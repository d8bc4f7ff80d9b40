"""Route independence, traced: the two routes of a ``check`` line may share
only the package functions on a reviewed allow-list.

Each route runs under ``sys.setprofile``, which records every function of
the package it calls (comprehensions and lambdas count as part of the
function that holds them).  A function both routes call that is not on the
allow-list fails the test until someone reviews it and gives its reason
here, and so does an allow-listed function the routes no longer share, so
no entry outlives its reason.
"""

import itertools
import sys

import pytest
from sampling import Lcg, sample_curve, sample_mixed_points

from cyclic_wonderful import fan as fan_module
from cyclic_wonderful import normal_complex
from cyclic_wonderful.chow import (
    DegreeReducer,
    betti_closed_form,
    betti_oracle,
    presentation,
    product_support,
)
from cyclic_wonderful.fan import act, build_fan, build_fan_stellar, in_relative_interior, locate_point, ray_vector
from cyclic_wonderful.lattice import (
    ArrangementSpec,
    BuildingSet,
    maximal_chains,
    orbit_representatives,
    symmetry_generators,
)
from cyclic_wonderful.linalg import extreme_points
from cyclic_wonderful.normal_complex import complex_cells, in_delta, union_extreme_points
from cyclic_wonderful.selfcheck import _barycentric_curve
from cyclic_wonderful.tropical import combinatorial_type, curve_from_point, embed


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


def assert_shared_exactly(calls, other_calls, allowed):
    """The routes share every allow-listed function and no other."""
    shared = calls & other_calls
    assert not shared - set(allowed), "shared but not reviewed"
    assert not set(allowed) - shared, "allow-listed but no longer shared"


# the curve's type against the cone scan: ``check`` compared them on 500
# sampled curves until its tropical lines became exact; tier-1 still does
# (test_a_generic_curve_round_trips_locates_at_its_type_and_keeps_it_when_scaled)
CURVE_TYPE_VS_CONE_SCAN = {
    "lattice.ArrangementSpec.ambient_dim": "both check the point's length against the spec",
    "lattice.Chain._trusted": "both wrap the chain they found in the record, unchecked",
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
        # a fresh fan, whose inverses no earlier call computed: the build,
        # the inverses and the index all count
        fan = build_fan(spec, BuildingSet.maximal(spec))
        for point in points:
            locate_point(fan, point)

    curve_calls, scan_calls = _called(curve_route), _called(cold_scan_route)
    # each route ran its own core
    assert {"tropical.combinatorial_type", "fan.support_decomposition"} <= curve_calls
    assert {"linalg.SharedRowIndex.first", "fan._bareiss_step"} <= scan_calls
    assert_shared_exactly(curve_calls, scan_calls, CURVE_TYPE_VS_CONE_SCAN)


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
        # each chain's new cone eliminates its own rays: the inverse counts
        assert all(in_relative_interior(c, p, spec) for c, p in zip(chains, points))

    curve_calls, certificate_calls = _called(curve_route), _called(certificate_route)
    assert {"tropical.combinatorial_type", "fan.support_decomposition"} <= curve_calls
    assert {"fan.in_relative_interior", "fan._bareiss_step", "fan.ray_vector"} <= certificate_calls
    assert_shared_exactly(curve_calls, certificate_calls, CURVE_TYPE_VS_CERTIFICATE)


# the round trips of the tropical suite's representatives and generators:
# the embedding writes the curve's point and the support decomposition
# reads it back
EMBED_VS_CURVE_FROM_POINT = {
    "lattice.ArrangementSpec.ambient_dim": "both size the point by the spec",
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_embedding_and_curve_from_point_share_only_the_allowed_functions():
    spec = ArrangementSpec(3, 2)
    rng = Lcg(3)
    curves = [sample_curve(rng, spec) for _ in range(200)]
    points = [embed(c, spec) for c in curves]
    embed_calls = _called(lambda: [embed(c, spec) for c in curves])
    read_calls = _called(lambda: [curve_from_point(p, spec) for p in points])
    # the writer places, the reader decomposes
    assert {"tropical.embed", "fan.support_point", "fan.place"} <= embed_calls
    assert {"fan.support_decomposition"} <= read_calls
    assert_shared_exactly(embed_calls, read_calls, EMBED_VS_CURVE_FROM_POINT)


# the tropical certificate against the rays: the representatives' and their
# images' embeddings, and the generators' action on their points, against
# the rays of their chains' prefixes read through ``ray_vector``
CERTIFICATE_VS_RAY_VECTOR = {
    "fan.block_slot": (
        "the one map from (i, a) to where e_i^a lies, which both write through; "
        "the fan suite's chart reading, written without it, is the independent read of the rays"
    ),
    "fan.place": "both write a vector of one multiple of e_i^a per factor with it",
    "lattice.ArrangementSpec.ambient_dim": "both size the vector by the spec",
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_tropical_certificate_and_ray_vector_share_only_the_allowed_functions():
    spec = ArrangementSpec(3, 3)
    representatives = orbit_representatives(spec)
    generators = symmetry_generators(spec)
    curves = [_barycentric_curve(chain, spec) for chain in representatives]
    chains = representatives + [g.chain(chain) for g in generators for chain in representatives]

    def certificate_route():
        for curve in curves:
            point = embed(curve, spec)
            for g in generators:
                act(spec, g, point)
                embed(curve.moved(g), spec)

    def ray_route():
        for chain in chains:
            for d in chain.prefixes:
                ray_vector(d, spec)

    certificate_calls, ray_calls = _called(certificate_route), _called(ray_route)
    assert {"tropical.embed", "fan.act", "tropical.TropicalCurve.moved"} <= certificate_calls
    assert {"fan.ray_vector"} <= ray_calls
    assert_shared_exactly(certificate_calls, ray_calls, CERTIFICATE_VS_RAY_VECTOR)


# membership in the placed cells against the subset sums of the support
# decomposition: no command compares them since the tiling line became
# exact, and tier-1 still does (test_cells_tile_the_truncated_support)
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
    assert_shared_exactly(cell_calls, delta_calls, CELLS_VS_IN_DELTA)


# "cells tile the truncated support" (``normal_complex.cell_failures``): each
# cell's placed rows against its chain's rays from ``ray_vector`` and their
# lengths from ``support_decomposition``
CELL_ROWS_VS_RAY_READINGS = {
    "fan.block_slot": (
        "the one map from e_i^a to its slot, by which the cells place their steps and ray_vector "
        "its rays; the fan suite reads the ray table against the layout without it"
    ),
    "fan.place": "the cells write their vertices with it, which the tiling line does not read; ray_vector its rays",
    "lattice.ArrangementSpec.ambient_dim": "both size their vectors by the spec",
    "lattice.DecoratedSubset.size": (
        "cell_polytope refuses a chain that is not maximal by it, ray_vector the empty subset"
    ),
    "normal_complex.delta": CELLS_VS_IN_DELTA["normal_complex.delta"],
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_cell_rows_and_ray_readings_share_only_the_allowed_functions():
    spec = ArrangementSpec(3, 2)
    chains = list(maximal_chains(spec))

    def cells_route():
        # every row test and every vertex table built afresh
        normal_complex._vertex_lengths.cache_clear()
        complex_cells(spec)

    def ray_route():
        # what cell_failures reads of each chain besides the cells' own rows
        for chain in chains:
            for j, prefix in enumerate(chain.prefixes, start=1):
                normal_complex._ray_reading(prefix, spec)
                normal_complex.delta(spec.n, j)

    cell_calls, ray_calls = _called(cells_route), _called(ray_route)
    assert {"normal_complex.cell_polytope", "normal_complex._cell_rows"} <= cell_calls
    assert {"fan.ray_vector", "fan.support_decomposition"} <= ray_calls
    assert_shared_exactly(cell_calls, ray_calls, CELL_ROWS_VS_RAY_READINGS)


# ``fan --via-stellar`` against ``fan``: one cone per decorated chain against
# stellar subdivisions of the product fan's maximal cones, whose faces the
# stellar route lists itself as the proper subsets of its maximal chains
RAYS = "the ray of each label, the data fans_equal compares"
ADMISSION = "both admit the spec through the same fan guard"
RECORD = "the record both routes return, compared by fans_equal"
LABEL = "the record of a decorated subset, which labels rays and cones in both routes"
DIRECT_VS_STELLAR = {
    "fan.ray_vector": RAYS,
    "fan.block_slot": RAYS,
    "fan.place": RAYS,
    "lattice.validate_subset": RAYS,
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
    "fan.Cone.__init__": "the record of each maximal cone, which both fans hold",
    "fan.Fan.__init__": RECORD,
    "fan.Fan.chains": "fans_equal reads each route's cones as its chains",
    "lattice.Chain.__hash__": "both key their maximal records by chain",
    "lattice.Chain._trusted": "both wrap the chains they built in the record, unchecked",
    "lattice.DecoratedSubset.__init__": LABEL,
    "lattice.DecoratedSubset.__hash__": LABEL,
    "lattice.DecoratedSubset.size": LABEL,
    "lattice.DecoratedSubset.sort_key": "both order labels by the global deterministic order",
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_direct_and_stellar_fans_share_only_the_allowed_functions():
    spec = ArrangementSpec(3, 2)
    g = BuildingSet.maximal(spec)

    def stellar_route():
        # the subdivisions test each singleton cone with its elimination
        build_fan_stellar(spec, g).chains

    # each route's output is every cone, so the direct route builds its faces
    direct_calls = _called(lambda: build_fan(spec, g).chains)
    stellar_calls = _called(stellar_route)
    assert "lattice._chains_of_length" in direct_calls
    assert {"fan._star_subdivide", "fan._bareiss_step", "fan.Fan.from_chains"} <= stellar_calls
    assert_shared_exactly(direct_calls, stellar_calls, DIRECT_VS_STELLAR)


# "stellar route equals direct route" as ``check`` runs it: the direct fan's
# maximal chains and ray table against the stellar core's maximal label sets
# and ray table, no face read on either side and the stellar route building
# no record of its cones or its fan.  Besides the functions below, the two
# routes share data made before either runs: the stellar route subdivides at
# the elements of the one building set, ``enumerate_decorated_subsets``,
# which also fills the direct route's subset table, so a subset missing from
# that list is missing from both.  Each subdivision's test of tau runs
# ``Cone._scaled_coefficients`` and ``_bareiss_step``, the elimination the
# wall and lattice lines run on the direct fan's maximal records; the direct
# side of this line reads labels and rays only, so it runs neither
STELLAR_RAYS = "the ray of each label: the check compares the two ray tables"
DIRECT_VS_STELLAR_LABELS = {
    "fan.ray_vector": STELLAR_RAYS,
    "fan.block_slot": STELLAR_RAYS,
    "fan.place": STELLAR_RAYS,
    "lattice.validate_subset": STELLAR_RAYS,
    "lattice.ArrangementSpec.ambient_dim": STELLAR_RAYS,
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
    "fan.Cone.__init__": (
        "the record of a cone: the direct route's maximal cones, and the "
        "singleton cone each subdivision tests its new ray in"
    ),
    "lattice.DecoratedSubset.__init__": "the record of a label, compared by the check in both routes",
    "lattice.DecoratedSubset.__hash__": "both key labels in sets and in the ray table",
    "lattice.DecoratedSubset.size": "both read a label's support size",
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_direct_fan_and_stellar_labels_share_only_the_allowed_functions():
    spec = ArrangementSpec(3, 2)
    g = BuildingSet.maximal(spec)

    def stellar_route():
        fan_module._stellar_labels(spec, g)

    def direct_route():
        fan = build_fan(spec, g)
        return fan.rays, fan._maximal

    direct_calls = _called(direct_route)
    stellar_calls = _called(stellar_route)
    assert "lattice._chains_of_length" in direct_calls
    assert {"fan._star_subdivide", "fan.Cone._scaled_coefficients", "fan._bareiss_step"} <= stellar_calls
    assert not {"fan.Cone._scaled_coefficients", "fan._bareiss_step", "fan.Fan.chains"} & direct_calls
    records = {"fan.Fan.__init__", "fan.Fan.chains", "fan.Fan.from_chains", "lattice.Chain._trusted"}
    assert not records & stellar_calls
    assert_shared_exactly(direct_calls, stellar_calls, DIRECT_VS_STELLAR_LABELS)


# "union extremes are the signed permutations of (1, 2)": the permutohedral
# orbit against the hull extremes of the cells' vertices
CELLS_GUARD = "both admit the spec through the same normal-complex guard, by maximal chain count"
LAYOUT = (
    "where e_i^a lies: the orbit places its points and the cells their "
    "vertices through the one layout of the coordinates"
)
ORBIT_VS_HULL = {
    "fan.block_slot": LAYOUT,
    "fan.place": LAYOUT,
    "lattice.ArrangementSpec.ambient_dim": "both size their vectors by the spec",
    "guards.check_normal_complex": CELLS_GUARD,
    "guards._refuse_over": CELLS_GUARD,
    "guards._bound": CELLS_GUARD,
    "lattice.ArrangementSpec.num_maximal_chains_upto": CELLS_GUARD,
    "lattice._product_upto": CELLS_GUARD,
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_union_orbit_and_hull_extremes_share_only_the_allowed_functions():
    spec = ArrangementSpec(2, 2)

    def hull_route():
        # the cells and the fraction-free simplex over their vertices count
        extreme_points({v for cell in complex_cells(spec).cells for v in cell.v_rep})

    orbit_calls = _called(lambda: union_extreme_points(spec))
    hull_calls = _called(hull_route)
    assert {"normal_complex.union_extreme_points", "fan.support_point"} <= orbit_calls
    assert {"normal_complex.cell_polytope", "linalg._in_hull_integer"} <= hull_calls
    assert_shared_exactly(orbit_calls, hull_calls, ORBIT_VS_HULL)


# "closed form matches rank oracle": the jump-type recurrence against the
# exact elimination of the reduced relations
CLOSED_FORM_VS_ORACLE: dict[str, str] = {}  # the two routes share no function


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_closed_form_and_rank_oracle_share_only_the_allowed_functions():
    spec = ArrangementSpec(3, 2)
    closed_calls = _called(lambda: betti_closed_form(spec))
    oracle_calls = _called(lambda: betti_oracle(spec))
    assert {"chow.betti_closed_form"} <= closed_calls
    assert {"chow._linear_relations", "linalg.SparseEliminator.add"} <= oracle_calls
    # the oracle writes its own reduced relations, not the printed presentation
    assert "chow.presentation" not in oracle_calls
    assert_shared_exactly(closed_calls, oracle_calls, CLOSED_FORM_VS_ORACLE)


# "degree-2 products vanish exactly when incomparable": the nested-set rule
# against the oracle's reduction of each degree-2 monomial
PRODUCT_SUPPORT_VS_REDUCER = {
    "lattice.DecoratedSubset.__hash__": "both key the generators by their decorated subset",
    "lattice.DecoratedSubset.sort_key": "both order labels by the global deterministic order",
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_product_support_and_degree_reducer_share_only_the_allowed_functions():
    spec = ArrangementSpec(3, 2)
    pairs = list(itertools.combinations_with_replacement(presentation(spec)[0], 2))

    def reducer_route():
        reducer = DegreeReducer(spec, 2)
        for x, y in pairs:
            reducer.monomial_is_zero([x, y])

    rule_calls = _called(lambda: [product_support([x, y]) for x, y in pairs])
    reducer_calls = _called(reducer_route)
    assert {"chow.product_support"} <= rule_calls
    assert {"chow.DegreeReducer.monomial_is_zero"} <= reducer_calls
    assert_shared_exactly(rule_calls, reducer_calls, PRODUCT_SUPPORT_VS_REDUCER)
