"""Fan construction, point location, smoothness, and the two build routes."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclic_wonderful.fan import (
    Cone,
    Fan,
    build_fan,
    build_fan_stellar,
    cone_dim,
    fans_equal,
    is_smooth_cone,
    locate_point,
    ray_vector,
    support_decomposition,
)
from cyclic_wonderful.linalg import matrix_rank, solve_columns
from cyclic_wonderful.lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    DecoratedSubset,
    chain_intersect,
    enumerate_chains,
)
from cyclic_wonderful.sampling import Lcg, sample_mixed_points
from cyclic_wonderful.serialize import fan_from_dict, fan_to_dict


def ds(*pairs):
    return DecoratedSubset.of(pairs)


def chain(sets, deco):
    return Chain.of(sets, deco)


# --- ray vectors -------------------------------------------------------------


def test_ray_vector_basis_cases():
    spec = ArrangementSpec(3, 2)
    assert ray_vector(ds((1, 1)), spec) == (0, 1, 0, 0)  # -1 = 2 mod 3
    assert ray_vector(ds((1, 0)), spec) == (-1, -1, 0, 0)


def test_ray_vector_sum_case():
    spec = ArrangementSpec(2, 2)
    assert ray_vector(ds((1, 0), (2, 1)), spec) == (-1, 1)


def test_ray_vector_rejects_empty_and_out_of_range():
    spec = ArrangementSpec(2, 2)
    with pytest.raises(ValueError):
        ray_vector(DecoratedSubset(()), spec)
    with pytest.raises(ValueError):
        ray_vector(ds((3, 0)), spec)


# --- direct construction -----------------------------------------------------


def test_fan_3_1_has_three_rays_and_no_2_cones():
    spec = ArrangementSpec(3, 1)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert sorted(fan.rays.values()) == [(-1, -1), (0, 1), (1, 0)]
    assert max(c.dim for c in fan.cones.values()) == 1


def test_fan_2_2_counts():
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert len(fan.rays) == 8
    assert sum(1 for c in fan.cones.values() if c.dim == 2) == 8


def test_fan_2_2_labeled_cone():
    # the 2-cone of the chain {2} < {1,2} with residues a(1)=1, a(2)=0
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    cone = fan.cone(chain([(2,), (1, 2)], {1: 1, 2: 0}))
    e20 = ray_vector(ds((2, 0)), spec)
    pair = ray_vector(ds((1, 1), (2, 0)), spec)
    assert set(cone.rays) == {e20, pair} == {(0, -1), (1, -1)}


def _pairs(spec):
    elements = BuildingSet.maximal(spec).elements
    return BuildingSet(frozenset(d for d in elements if d.size == 2), spec)


@pytest.mark.parametrize("builder", [build_fan, build_fan_stellar])
@pytest.mark.parametrize(
    "make",
    [BuildingSet.singletons, _pairs, lambda spec: BuildingSet.maximal(ArrangementSpec(2, 1))],
    ids=["singletons", "pairs", "other-spec"],
)
def test_builders_reject_a_non_maximal_building_set(make, builder):
    spec = ArrangementSpec(2, 2)
    with pytest.raises(ValueError, match="maximal building set"):
        builder(spec, make(spec))


def test_fan_closed_under_faces():
    spec = ArrangementSpec(3, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    for label in fan.cones:
        for size in range(len(label)):
            for sub in itertools.combinations(label, size):
                assert frozenset(sub) in fan.cones


def test_cone_dim_equals_chain_length():
    for r, n in [(2, 2), (3, 2)]:
        spec = ArrangementSpec(r, n)
        fan = build_fan(spec, BuildingSet.maximal(spec))
        for cone in fan.cones.values():
            assert cone_dim(cone) == len(cone.label)


def _maximal_by_inclusion(fan):
    """The pairwise-subset rule maximal_cones used before filtering by size."""
    keys = list(fan.cones)
    maximal = [k for k in keys if not any(k < other for other in keys)]
    maximal.sort(key=lambda k: sorted(d.sort_key() for d in k))
    return tuple(fan.cones[k] for k in maximal)


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_maximal_cones_by_dimension_match_the_inclusion_rule(r, n):
    spec = ArrangementSpec(r, n)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert fan.maximal_cones == _maximal_by_inclusion(fan)


# --- exact cone coordinates --------------------------------------------------


def _reference_coefficients(rays, point):
    """Fraction solve plus the nonnegativity filter."""
    if not rays:
        return [] if all(Fraction(x) == 0 for x in point) else None
    sol = solve_columns(rays, point)
    return None if sol is None or any(c < 0 for c in sol) else sol


def _combination(rays, coeffs, dim):
    return tuple(sum((c * v[i] for c, v in zip(coeffs, rays)), Fraction(0)) for i in range(dim))


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _fan_cones(r, n):
    spec = ArrangementSpec(r, n)
    return spec.ambient_dim, list(build_fan(spec, BuildingSet.maximal(spec)).cones.values())


_FAN_CONES = {spec: _fan_cones(*spec) for spec in [(2, 2), (3, 2), (2, 3), (4, 2)]}


@pytest.mark.parametrize("spec", list(_FAN_CONES))
@settings(max_examples=15, deadline=None)
@given(
    coeffs=st.lists(_RATIONALS, min_size=3, max_size=3),
    offset=st.lists(_RATIONALS, min_size=6, max_size=6),
)
def test_cone_coefficients_match_the_fraction_solve_on_every_fan_cone(spec, coeffs, offset):
    dim, cones = _FAN_CONES[spec]
    for cone in cones:
        k = len(cone.rays)
        on = _combination(cone.rays, [abs(c) for c in coeffs[:k]], dim)
        signed = _combination(cone.rays, coeffs[:k], dim)
        off = tuple(x + y for x, y in zip(on, offset))
        for point in (on, signed, off):
            assert cone.coefficients(point) == _reference_coefficients(cone.rays, point)
        if k:
            assert cone.coefficients(on) == [abs(c) for c in coeffs[:k]]


@st.composite
def _rough_cones(draw):
    """Simplicial cones whose generators do not extend to a lattice basis."""
    dim = draw(st.integers(2, 4))
    k = draw(st.integers(1, dim))
    rays = tuple(
        tuple(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)))
        for _ in range(k)
    )
    assume(matrix_rank(rays) == k and not is_smooth_cone(Cone(rays, ())))
    return rays


@settings(max_examples=150, deadline=None)
@given(
    rays=_rough_cones(),
    coeffs=st.lists(_RATIONALS, min_size=4, max_size=4),
    offset=st.lists(_RATIONALS, min_size=4, max_size=4),
)
def test_cone_coefficients_match_the_fraction_solve_on_non_unimodular_cones(rays, coeffs, offset):
    cone = Cone(rays, ())
    dim, k = len(rays[0]), len(rays)
    inv = cone._inverse
    assert inv.delta > 1
    minor = [[v[i] for v in rays] for i in inv.rows]
    assert [[sum(a * m[j] for a, m in zip(row, minor)) for j in range(k)] for row in inv.adj] == [
        [inv.delta * (i == j) for j in range(k)] for i in range(k)
    ]
    on = _combination(rays, [abs(c) for c in coeffs[:k]], dim)
    signed = _combination(rays, coeffs[:k], dim)
    off = tuple(x + y for x, y in zip(on, offset))
    for point in (on, signed, off):
        assert cone.coefficients(point) == _reference_coefficients(rays, point)
    assert cone.coefficients(on) == [abs(c) for c in coeffs[:k]]


@settings(max_examples=100, deadline=None)
@given(
    rays=st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(tuple),
        min_size=1,
        max_size=3,
    ),
    weights=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    point=st.lists(_RATIONALS, min_size=3, max_size=3),
)
def test_dependent_rays_raise(rays, weights, point):
    dependent = tuple(sum(w * v[i] for w, v in zip(weights, rays)) for i in range(3))
    rays = (*rays, dependent)
    with pytest.raises(ValueError, match="linearly dependent"):
        solve_columns(rays, point)
    with pytest.raises(ValueError, match="linearly dependent"):
        Cone(rays, ()).coefficients(point)


def test_cone_rejects_a_point_of_the_wrong_length():
    cone = Cone(((1, 0, 0), (0, 1, 0)), ())
    with pytest.raises(ValueError, match="length 2, expected 3"):
        cone.contains((1, 1))
    with pytest.raises(ValueError, match="length 4, expected 3"):
        cone.coefficients((1, 1, 0, 0))


# --- stellar construction ----------------------------------------------------


def test_stellar_2_1_performs_no_subdivisions():
    spec = ArrangementSpec(2, 1)
    g = BuildingSet.maximal(spec)
    assert g.elements == BuildingSet.singletons(spec).elements
    assert fans_equal(build_fan(spec, g), build_fan_stellar(spec, g))


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
def test_stellar_equals_direct(r, n):
    spec = ArrangementSpec(r, n)
    g = BuildingSet.maximal(spec)
    assert fans_equal(build_fan(spec, g), build_fan_stellar(spec, g))


def test_stellar_of_2_2_subdivides_the_four_product_cones():
    # the product fan has 4 two-dimensional cones; each gains one interior ray
    spec = ArrangementSpec(2, 2)
    fan = build_fan_stellar(spec, BuildingSet.maximal(spec))
    pair_rays = {
        ray_vector(ds((1, a), (2, b)), spec) for a in (0, 1) for b in (0, 1)
    }
    assert pair_rays == {(-1, -1), (-1, 1), (1, -1), (1, 1)}
    assert pair_rays <= set(fan.rays.values())


def test_fans_equal_basics():
    spec = ArrangementSpec(2, 2)
    g = BuildingSet.maximal(spec)
    fan = build_fan(spec, g)
    assert fans_equal(fan, fan)
    no_2_cones = {k: c for k, c in fan.cones.items() if c.dim < 2}
    assert not fans_equal(fan, Fan(spec, fan.rays, no_2_cones))


# --- point location ----------------------------------------------------------


def test_locate_origin_is_the_empty_chain():
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert locate_point(fan, (0, 0)) == Chain.empty()


def test_locate_a_ray_point():
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert locate_point(fan, (-1, 1)) == chain([(1, 2)], {1: 0, 2: 1})


def test_locate_interior_point_of_a_2_cone():
    spec = ArrangementSpec(3, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    located = locate_point(fan, (0, 3, 0, 1))  # 3 e_1^2 + e_2^2
    assert located == chain([(1,), (1, 2)], {1: 1, 2: 1})


def test_locate_outside_the_support():
    spec = ArrangementSpec(3, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert locate_point(fan, (1, 1, 0, 0)) is None


def test_locate_checks_dimension():
    spec = ArrangementSpec(3, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    with pytest.raises(ValueError):
        locate_point(fan, (1, 0))


# --- smoothness --------------------------------------------------------------


def test_single_primitive_ray_is_smooth():
    assert is_smooth_cone(Cone(((1, 0),), (ds((1, 1)),)))


def test_smooth_2_cone_example():
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    cone = fan.cone(chain([(1,), (1, 2)], {1: 0, 2: 0}))
    assert set(cone.rays) == {(-1, 0), (-1, -1)}
    assert is_smooth_cone(cone)


def test_index_two_sublattice_is_not_smooth():
    synthetic = Cone(((2, 0), (0, 1)), (ds((1, 0)), ds((2, 0))))
    assert not is_smooth_cone(synthetic)


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (4, 2)])
def test_all_maximal_cones_smooth(r, n):
    spec = ArrangementSpec(r, n)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert all(is_smooth_cone(c) for c in fan.maximal_cones)


# --- cone intersection law ---------------------------------------------------


def test_cone_intersection_law_exhaustive_2_2():
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    chains = list(enumerate_chains(spec, spec.n))
    for a, b in itertools.product(chains, repeat=2):
        expected = fan.cone(chain_intersect(a, b))
        cone_a, cone_b = fan.cone(a), fan.cone(b)
        assert all(cone_a.contains(g) and cone_b.contains(g) for g in expected.rays)
        for g in cone_a.rays:
            assert cone_b.contains(g) == expected.contains(g)
        for g in cone_b.rays:
            assert cone_a.contains(g) == expected.contains(g)


# --- support decomposition ---------------------------------------------------


def test_support_decomposition_reads_directions():
    spec = ArrangementSpec(3, 2)
    assert support_decomposition((0, 3, 0, 1), spec) == [(3, 2), (1, 2)]
    assert support_decomposition((-2, -2, 0, 0), spec) == [(2, 0), (0, None)]
    assert support_decomposition((1, 1, 0, 0), spec) is None


def test_completeness_for_r_2():
    for n in (1, 2, 3):
        spec = ArrangementSpec(2, n)
        fan = build_fan(spec, BuildingSet.maximal(spec))
        rng = Lcg(0)
        for p in sample_mixed_points(rng, spec, 200):
            assert locate_point(fan, p) is not None


def test_incompleteness_for_r_3():
    spec = ArrangementSpec(3, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    rng = Lcg(0)
    points = sample_mixed_points(rng, spec, 100)
    assert any(locate_point(fan, p) is None for p in points)


# --- JSON round trip ---------------------------------------------------------


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2)])
def test_fan_json_round_trip(r, n):
    spec = ArrangementSpec(r, n)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    payload = json.loads(json.dumps(fan_to_dict(fan)))
    rebuilt = fan_from_dict(payload)
    assert fans_equal(fan, rebuilt)


def test_fan_json_schema_fields():
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    payload = fan_to_dict(fan)
    assert payload["r"] == 2 and payload["n"] == 2
    assert payload["basis"] == ["e_1^1", "e_2^1"]
    assert {"id", "subset", "vector"} <= set(payload["rays"][0])
    assert {"dim", "ray_ids", "chain"} <= set(payload["cones"][0])
