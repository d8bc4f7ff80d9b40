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
from cyclic_wonderful.fan import build_fan, build_fan_stellar, in_relative_interior, locate_point
from cyclic_wonderful.lattice import ArrangementSpec, BuildingSet
from cyclic_wonderful.normal_complex import complex_cells, in_delta
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


# ``locate``'s certificate: the curve's type against that one chain's cone,
# built from the chain's own rays with no fan
CURVE_TYPE_VS_CERTIFICATE = {
    "lattice.ArrangementSpec.ambient_dim": "both check the point's length against the spec",
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_curve_type_and_relative_interior_certificate_share_only_the_allowed_functions():
    spec = ArrangementSpec(3, 2)
    # on the support, on its faces and at the origin: the points locate certifies
    points = [p for p in sample_mixed_points(Lcg(7), spec, 60) if curve_from_point(p, spec)]
    points += [(0, 0, 0, 0), (0, 2, 0, 0), (0, 2, -1, -1)]
    chains = [combinatorial_type(curve_from_point(p, spec), spec) for p in points]

    def curve_route():
        for point in points:
            combinatorial_type(curve_from_point(point, spec), spec)

    def certificate_route():
        # no cached elimination state or row test: the cone's inverse counts
        fan_module._prefix_elimination.cache_clear()
        fan_module._row_test.cache_clear()
        assert all(in_relative_interior(c, p, spec) for c, p in zip(chains, points))

    curve_calls, certificate_calls = _called(curve_route), _called(certificate_route)
    assert {"tropical.combinatorial_type", "fan.support_decomposition"} <= curve_calls
    assert {"fan.in_relative_interior", "fan._bareiss_step", "fan.ray_vector"} <= certificate_calls
    assert curve_calls & certificate_calls <= set(CURVE_TYPE_VS_CERTIFICATE)


# "cells tile the truncated support": membership in the placed cells against
# the subset sums of the support decomposition
CELLS_VS_IN_DELTA = {
    "lattice.ArrangementSpec.ambient_dim": "both check the point's length against the spec",
    "normal_complex.delta": (
        "the truncation heights, the data both routes are about; "
        "test_delta_is_the_closed_form_height pins them on their own"
    ),
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_normal_cells_and_in_delta_share_only_the_allowed_functions():
    spec = ArrangementSpec(3, 2)
    points = sample_mixed_points(Lcg(3), spec, 200, max_abs=spec.n + 2)

    def cells_route():
        # the cells, their placed tests and the index all count
        complex_ = complex_cells(spec)
        for point in points:
            complex_.contains(point)

    def in_delta_route():
        for point in points:
            in_delta(point, spec)

    cell_calls, delta_calls = _called(cells_route), _called(in_delta_route)
    assert {"normal_complex.cell_polytope", "linalg.SharedRowIndex.first"} <= cell_calls
    assert {"fan.support_decomposition"} <= delta_calls
    assert cell_calls & delta_calls <= set(CELLS_VS_IN_DELTA)


# "stellar route equals direct route": one cone per decorated chain against
# stellar subdivisions of the product fan
RAYS = "the ray of each label, the data fans_equal compares"
ADMISSION = "both admit the spec through the same fan guard"
RECORD = "the record both routes return, compared by fans_equal"
LABEL = "the record of a decorated subset, which labels rays and cones in both routes"
DIRECT_VS_STELLAR = {
    "fan.ray_vector": RAYS,
    "fan.basis_image": RAYS,
    "fan.block_slot": RAYS,
    "fan._vector_gcd": RAYS,
    "lattice.validate_subset": RAYS,
    "linalg.combine": RAYS,
    "lattice.ArrangementSpec.ambient_dim": RAYS,
    "fan._check_maximal": "both refuse any building set but the maximal one",
    "lattice.BuildingSet.is_maximal": "both refuse any building set but the maximal one",
    "guards.check_fan_spec": ADMISSION,
    "guards.check_fan_size": ADMISSION,
    "guards._bound": ADMISSION,
    "guards._refuse_over": ADMISSION,
    "lattice.ArrangementSpec.num_subsets": ADMISSION,
    "lattice.ArrangementSpec.num_subsets_upto": ADMISSION,
    "lattice.ArrangementSpec.num_maximal_chains_upto": ADMISSION,
    "lattice._product_upto": ADMISSION,
    "fan.Cone.__init__": RECORD,
    "fan.Fan.__init__": RECORD,
    "lattice.Chain.__hash__": "both key their cones by chain",
    "lattice.Chain._trusted": "both wrap the chains they built in the record, unchecked",
    "lattice.DecoratedSubset.__init__": LABEL,
    "lattice.DecoratedSubset.__hash__": LABEL,
    "lattice.DecoratedSubset.size": LABEL,
    "lattice.DecoratedSubset.sort_key": "both order labels by the global deterministic order",
    "lattice._first_unnested_pair": (
        "the nesting test: the direct route runs it on its empty chain only, "
        "the stellar route in its final is_nested pass, which removes nothing"
    ),
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_direct_and_stellar_fans_share_only_the_allowed_functions():
    spec = ArrangementSpec(3, 2)
    g = BuildingSet.maximal(spec)

    def stellar_route():
        # the subdivisions test each singleton cone with its elimination,
        # so start with no cached elimination state or row test
        fan_module._prefix_elimination.cache_clear()
        fan_module._row_test.cache_clear()
        build_fan_stellar(spec, g)

    direct_calls = _called(lambda: build_fan(spec, g))
    stellar_calls = _called(stellar_route)
    assert {"lattice.enumerate_chains", "lattice._flag_chains"} <= direct_calls
    assert {"fan._star_subdivide", "fan._bareiss_step", "lattice.is_nested"} <= stellar_calls
    assert direct_calls & stellar_calls <= set(DIRECT_VS_STELLAR)
