"""Route independence, traced: the two routes of a ``check`` line may share
only the package functions on a reviewed allow-list.

Each route runs under ``sys.setprofile``, which records every function of
the package it calls (comprehensions and lambdas count as part of the
function that holds them).  A function both routes call that is not on the
allow-list fails the test until someone reviews it and gives its reason
here.
"""

import sys

import pytest

from cyclic_wonderful import fan as fan_module
from cyclic_wonderful.fan import build_fan, locate_point
from cyclic_wonderful.lattice import ArrangementSpec, BuildingSet
from cyclic_wonderful.sampling import Lcg, sample_mixed_points
from cyclic_wonderful.tropical import combinatorial_type, curve_from_point


def _called(route):
    """The package functions ``route()`` calls, as ``module.qualname``."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            name = frame.f_code.co_qualname
            if module.startswith("cyclic_wonderful") and "<" not in name:
                seen.add(f"{module.rpartition('.')[2]}.{name}")

    sys.setprofile(profile)
    try:
        route()
    finally:
        sys.setprofile(None)
    return seen


# "combinatorial type agrees with point location": the curve's type against
# the cone scan
CURVE_TYPE_VS_CONE_SCAN = {
    "lattice.ArrangementSpec.ambient_dim": "both check the point's length against the spec",
    "lattice.Chain._trusted": "both wrap the chain they found in the record, unchecked",
    "lattice.DecoratedSubset.__init__": (
        "the record of a decorated subset: the curve route builds its prefixes, "
        "the scan route the fan's ray labels"
    ),
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_curve_type_and_cone_scan_share_only_the_allowed_functions():
    spec = ArrangementSpec(3, 2)
    # off the support, on it, on its faces and at the origin
    points = sample_mixed_points(Lcg(7), spec, 60) + [(0, 0, 0, 0), (0, 2, 0, 0), (0, 2, -1, -1)]

    def curve_route():
        for point in points:
            curve = curve_from_point(point, spec)
            if curve is not None:
                combinatorial_type(curve, spec)

    def cold_scan_route():
        # a fresh fan, with no cached elimination state or row test: the
        # build, the inverses and the index all count
        fan_module._prefix_elimination.cache_clear()
        fan_module._row_test.cache_clear()
        fan = build_fan(spec, BuildingSet.maximal(spec))
        for point in points:
            locate_point(fan, point)

    curve_calls, scan_calls = _called(curve_route), _called(cold_scan_route)
    # each route ran its own core
    assert {"tropical.combinatorial_type", "fan.support_decomposition"} <= curve_calls
    assert {"linalg.SharedRowIndex.first", "fan._bareiss_step"} <= scan_calls
    assert curve_calls & scan_calls <= set(CURVE_TYPE_VS_CONE_SCAN)
