"""Acceptance gate: one test per criterion, printed pass lines included.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is exact (integer or rational equality); the
stated runtime budgets are asserted with wall-clock checks.
"""

import itertools
import time
from fractions import Fraction

from cyclic_wonderful.chow import (
    DegreeReducer,
    betti_closed_form,
    betti_oracle,
    presentation,
    product_support,
)
from cyclic_wonderful.fan import (
    build_fan,
    build_fan_stellar,
    fans_equal,
    is_smooth_cone,
    locate_point,
    ray_vector,
)
from cyclic_wonderful.lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    DecoratedSubset,
    enumerate_chains,
)
from cyclic_wonderful.normal_complex import (
    complex_cells,
    in_delta,
    union_extreme_points,
)
from cyclic_wonderful.sampling import Lcg, sample_curve, sample_mixed_points
from cyclic_wonderful.selfcheck import intersection_law_failures
from cyclic_wonderful.tropical import combinatorial_type, curve_from_point, embed

BETTI_GRID = [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]

_FANS = {}


def _fan(r, n):
    if (r, n) not in _FANS:
        spec = ArrangementSpec(r, n)
        _FANS[(r, n)] = build_fan(spec, BuildingSet.maximal(spec))
    return _FANS[(r, n)]


def _report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_betti_agreement():
    start = time.monotonic()
    for r, n in BETTI_GRID:
        spec = ArrangementSpec(r, n)
        assert betti_closed_form(spec) == betti_oracle(spec), (r, n)
    assert betti_closed_form(ArrangementSpec(2, 2)) == (1, 6, 1)
    assert betti_closed_form(ArrangementSpec(3, 2)) == (1, 11, 1)
    assert betti_closed_form(ArrangementSpec(2, 3)) == (1, 23, 23, 1)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(1, f"betti closed form = oracle on {len(BETTI_GRID)} specs in {elapsed:.2f}s")


def test_criterion_2_fan_construction_equivalence():
    start = time.monotonic()
    for r, n in [(2, 2), (3, 2), (2, 3)]:
        spec = ArrangementSpec(r, n)
        g = BuildingSet.maximal(spec)
        assert fans_equal(build_fan(spec, g), build_fan_stellar(spec, g)), (r, n)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(2, f"stellar route equals direct route at (2,2), (3,2), (2,3) in {elapsed:.2f}s")


def test_criterion_3_structure_counts():
    for r in (2, 3, 4):
        for n in (1, 2, 3):
            spec = ArrangementSpec(r, n)
            fan = _fan(r, n)
            assert len(fan.rays) == (1 + r) ** n - 1, (r, n)
            full = [c for c in fan.maximal_cones if c.dim == n]
            assert len(full) == spec.num_maximal_chains, (r, n)
    spec22 = ArrangementSpec(2, 2)
    labeled = _fan(2, 2).cone(Chain.of([(2,), (1, 2)], {1: 1, 2: 0}))
    e20 = ray_vector(DecoratedSubset.of({2: 0}), spec22)
    pair = ray_vector(DecoratedSubset.of({1: 1, 2: 0}), spec22)
    assert set(labeled.rays) == {e20, pair}
    _report(3, "ray and maximal-cone counts for r in {2,3,4}, n in {1,2,3}; labeled cone reproduced")


def test_criterion_4_cone_intersection_law():
    for r, n in [(2, 2), (3, 2)]:
        spec = ArrangementSpec(r, n)
        fan = _fan(r, n)
        chains = list(enumerate_chains(spec, n))
        for a, b in itertools.product(chains, repeat=2):
            assert intersection_law_failures(fan, [(a, b)]) == [], (r, n, a.text(), b.text())
    # all 21,609 pairs at (2,3) in one call, which shares the cones' tests
    chains23 = list(enumerate_chains(ArrangementSpec(2, 3), 3))
    assert intersection_law_failures(_fan(2, 3), itertools.product(chains23, repeat=2)) == []
    _report(4, "intersection law exhaustive at (2,2), (3,2), (2,3)")


def test_criterion_5_smoothness():
    for r, n in [(2, 2), (3, 2), (2, 3), (4, 2)]:
        fan = _fan(r, n)
        assert all(is_smooth_cone(c) for c in fan.maximal_cones), (r, n)
    _report(5, "all maximal cones unimodular at (2,2), (3,2), (2,3), (4,2)")


def test_criterion_6_completeness_dichotomy():
    for n in (1, 2, 3):
        spec = ArrangementSpec(2, n)
        fan = _fan(2, n)
        rng = Lcg(0)
        points = sample_mixed_points(rng, spec, 1000)
        assert all(locate_point(fan, p) is not None for p in points), n
        assert sum(betti_closed_form(spec)) == spec.num_maximal_chains, n
    fan32 = _fan(3, 2)
    rng = Lcg(0)
    points32 = sample_mixed_points(rng, ArrangementSpec(3, 2), 1000)
    assert any(locate_point(fan32, p) is None for p in points32)
    _report(6, "r=2 fans complete with total rank n! 2^n; (3,2) has unlocatable points")


def test_criterion_7_tropical_round_trip():
    for r, n in [(2, 2), (3, 2), (3, 3)]:
        spec = ArrangementSpec(r, n)
        fan = _fan(r, n)
        rng = Lcg(0)
        for _ in range(500):
            curve = sample_curve(rng, spec)
            point = embed(curve, spec)
            assert curve_from_point(point, spec) == curve, (r, n)
            assert combinatorial_type(curve, spec) == locate_point(fan, point), (r, n)
    _report(7, "500 seeded round trips and stratum checks at (2,2), (3,2), (3,3)")


def test_criterion_8_normal_complex():
    nc22 = complex_cells(ArrangementSpec(2, 2))
    assert len(nc22.cells) == 8
    assert all(len(c.v_rep) == 4 for c in nc22.cells)
    extremes = set(union_extreme_points(ArrangementSpec(2, 2)))
    signed_perms = {
        (Fraction(sa * a), Fraction(sb * b))
        for a, b in ((1, 2), (2, 1))
        for sa in (1, -1)
        for sb in (1, -1)
    }
    assert extremes == signed_perms
    for r, n in [(2, 2), (3, 2), (2, 3)]:
        spec = ArrangementSpec(r, n)
        nc = complex_cells(spec)
        rng = Lcg(0)
        for p in sample_mixed_points(rng, spec, 500, max_abs=n + 2):
            assert nc.contains(p) == in_delta(p, spec), (r, n)
    _report(8, "8 quadrilateral cells, signed-permutohedron extremes, tiling on 500 points per spec")


def test_criterion_9_chow_relation_sanity():
    for r, n in [(2, 2), (3, 2)]:
        spec = ArrangementSpec(r, n)
        reducer = DegreeReducer(spec, 2)
        gens, _ = presentation(spec)
        for a, b in itertools.combinations_with_replacement(gens, 2):
            assert (product_support([a, b]) is None) == reducer.monomial_is_zero(
                [a, b]
            ), (r, n)
    for r, n in BETTI_GRID:
        _, relations = presentation(ArrangementSpec(r, n))
        assert sum(1 for _, a, _ in relations if a == 0) == n * (r - 1), (r, n)
    _report(9, "product vanishing matches the rank reduction; reduced relation count n(r-1)")
