"""Cross-module verification suites behind the ``check`` command.

Each suite returns a list of named results, each PASS, FAIL or SKIP (a
feasibility guard refused the work, so the check did not run); the command
line formats them and turns any failure into a nonzero exit status.  The checks
mirror the library's invariants: the two fan constructions agree, cone
intersections obey the chain rule, graded ranks computed by formula and by
elimination coincide, tropical round trips are exact, and the normal
complex tiles the truncated support.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from . import chow, normal_complex, tropical
from .fan import (
    Cone,
    Fan,
    Vector,
    build_fan,
    build_fan_stellar,
    cone_dim,
    fans_equal,
    is_smooth_cone,
    locate_point,
)
from .guards import FeasibilityError, check_fan_spec, check_override
from .lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    _Value,
    chain_intersect,
)
from .linalg import SharedRowIndex, extreme_points
from .sampling import Lcg, sample_curve, sample_mixed_points

# suite "x" is the function suite_x, looked up by name when it runs, so the
# module's globals are the one table (perfbench's span wrappers rebind them)
SUITES = ("fan", "chow", "tropical", "normal")


class CheckResult(_Value):
    _fields = ("suite", "name", "status", "detail")

    def __init__(self, suite: str, name: str, status: str, detail: str = "") -> None:
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "status", status)  # "PASS", "FAIL" or "SKIP"
        object.__setattr__(self, "detail", detail)


def _result(suite: str, name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(suite, name, "PASS" if passed else "FAIL", detail)


def _skipped(suite: str, name: str, refusal: FeasibilityError) -> CheckResult:
    """A check that did not run; the detail gives the size and the bound."""
    return CheckResult(suite, name, "SKIP", str(refusal))


def intersection_law_failures(
    fan: Fan, pairs: Iterable[tuple[Chain, Chain]]
) -> list[tuple[Chain, Chain]]:
    """The pairs (a, b) whose cones break cone(a) ∩ cone(b) = cone(a ∧ b).

    The law is checked exactly at finitely many points.  Every ray of the
    expected cone lies in both cones.  Conversely, each ray of either cone,
    and the sum of its rays (a point interior enough to catch mismatches),
    lies in the other cone exactly when it lies in the expected one.

    The pairs share their cones and points.  Only the chains the pairs meet
    (a, b and a ∧ b) are registered, in first-met order, in one
    ``SharedRowIndex`` of their cones' tests; the rayless cone's tests pin
    every coordinate to 0, so it holds only the origin.  Each distinct ray
    or ray-sum point is then evaluated once, as the mask of the met cones
    that hold it, and every pair is decided by bit tests on those masks.
    """
    pairs = list(pairs)
    bits: dict[Chain, int] = {}
    cones: list[Cone] = []
    met = []
    for a, b in pairs:
        trio = []
        for chain in (a, b, chain_intersect(a, b)):
            k = bits.get(chain)
            if k is None:
                k = bits[chain] = len(cones)
                cones.append(fan.cone(chain))
            trio.append(k)
        met.append(trio)
    origin = tuple([(((i, 1),), 0, 0) for i in range(fan.spec.ambient_dim)])
    index = SharedRowIndex(cones, lambda cone: cone._inverse.tests if cone.rays else origin)
    masks: dict[Vector, int] = {}
    # per met cone, the masks at its rays and then at the sum of its rays
    held: list[tuple[int, ...]] = []
    for cone in cones:
        points = (*cone.rays, tuple(map(sum, zip(*cone.rays)))) if cone.rays else ()
        row = []
        for p in points:
            mask = masks.get(p)
            if mask is None:
                mask = masks[p] = index.holding(p, 1)
            row.append(mask)
        held.append(tuple(row))

    def holds(ka: int, kb: int, kx: int) -> bool:
        both, expected = 1 << ka | 1 << kb, 1 << kx
        if any(mask & both != both for mask in held[kx][:-1]):
            return False
        for this, other in ((ka, 1 << kb), (kb, 1 << ka)):
            if any(bool(mask & other) != bool(mask & expected) for mask in held[this]):
                return False
        return True

    return [pair for pair, trio in zip(pairs, met) if not holds(*trio)]


def suite_fan(spec: ArrangementSpec, seed: int = 0) -> list[CheckResult]:
    try:
        check_fan_spec(spec)  # before the building set is enumerated
    except FeasibilityError as exc:
        return [_skipped("fan", "fan construction", exc)]
    out: list[CheckResult] = []
    g = BuildingSet.maximal(spec)
    fan = build_fan(spec, g)
    out.append(
        _result(
            "fan",
            "ray count (1+r)^n - 1",
            len(fan.rays) == spec.num_subsets,
            f"{len(fan.rays)} rays",
        )
    )
    maximal = fan.maximal_cones
    out.append(
        _result(
            "fan",
            "maximal cone count n! r^n",
            len(maximal) == spec.num_maximal_chains,
            f"{len(maximal)} maximal cones",
        )
    )
    # the stellar builder runs the same fan guard, which passed above
    stellar = build_fan_stellar(spec, g)
    out.append(_result("fan", "stellar route equals direct route", fans_equal(fan, stellar)))
    chains = list(fan.cones)
    pairs: list[tuple[Chain, Chain]]
    if len(chains) ** 2 <= 2500:
        pairs = list(itertools.product(chains, chains))
    else:
        rng = Lcg(seed)
        pairs = [
            (chains[rng.below(len(chains))], chains[rng.below(len(chains))])
            for _ in range(1000)
        ]
    bad = len(intersection_law_failures(fan, pairs))
    out.append(
        _result(
            "fan",
            "cone intersection law",
            bad == 0,
            f"{len(pairs)} pairs checked, {bad} failures",
        )
    )
    rough = [c for c in maximal if not is_smooth_cone(c)]
    out.append(
        _result("fan", "maximal cones unimodular", not rough, f"{len(maximal)} cones")
    )
    out.append(
        _result(
            "fan",
            "cone dimension equals chain length",
            all(cone_dim(c) == len(c.label) for c in fan.cones.values()),
        )
    )
    rng = Lcg(seed)
    points = sample_mixed_points(rng, spec, 1000)
    located = sum(1 for p in points if locate_point(fan, p) is not None)
    if spec.r == 2 or spec.n == 0:
        name = (
            "complete for r = 2: all sampled points locate"
            if spec.r == 2
            else "complete for n = 0: the fan is the origin of R^0"
        )
        out.append(_result("fan", name, located == len(points), f"{located}/{len(points)}"))
    else:
        out.append(
            _result(
                "fan",
                "not complete for r > 2: some sampled point fails to locate",
                located < len(points),
                f"{located}/{len(points)}",
            )
        )
    return out


def _greedy_elimination_keeps_the_reduced(pres: chow.ChowPresentation) -> bool:
    """Whether an elimination fed the emitted relations in order keeps
    exactly ``pres.reduced_indices``, certified in one pass linear in the
    relations' coefficients, with no elimination.

    Walking the relations in emission order: each reduced relation holds a
    generator that no earlier reduced relation holds, so it is independent
    of them; every other relation ``(i, a, b)`` equals ``(i, 0, b) - (i, 0,
    a)`` coefficient for coefficient, both reduced and emitted before it, so
    it lies in their span.  Together these say that the greedy elimination
    keeps a relation exactly when it is reduced.
    """
    reduced = set(pres.reduced_indices)
    if list(pres.reduced_indices) != sorted(reduced):
        return False
    held: set[int] = set()
    earlier: dict[tuple[int, int], dict[int, int]] = {}  # (i, b) -> (i, 0, b)
    for k, rel in enumerate(pres.linear_relations):
        coeffs = rel.as_dict()
        if k in reduced:
            if held.issuperset(coeffs):
                return False
            held.update(coeffs)
            if rel.a == 0:
                earlier[rel.i, rel.b] = coeffs
            continue
        plus, minus = earlier.get((rel.i, rel.b)), earlier.get((rel.i, rel.a))
        if plus is None or minus is None:
            return False
        difference = dict(plus)
        for x, c in minus.items():
            c = difference.pop(x, 0) - c
            if c:
                difference[x] = c
        if difference != coeffs:
            return False
    return True


def suite_chow(spec: ArrangementSpec, seed: int = 0) -> list[CheckResult]:
    try:
        check_fan_spec(spec)  # before the generators and chains are enumerated
    except FeasibilityError as exc:
        return [_skipped("chow", "presentation and chain census", exc)]
    out: list[CheckResult] = []
    closed = chow.betti_closed_form(spec)
    pres = chow.presentation(spec)
    try:
        oracle = chow.betti_oracle(spec, _presentation=pres)
        out.append(
            _result(
                "chow",
                "closed form equals rank oracle",
                closed == oracle,
                f"closed {closed.dims}, oracle {oracle.dims}",
            )
        )
    except FeasibilityError as exc:
        out.append(_skipped("chow", "closed form equals rank oracle", exc))
    out.append(
        _result(
            "chow",
            "rank-1 piece matches ray count minus reduced relations",
            closed.dims[1] == spec.num_subsets - spec.n * (spec.r - 1)
            if spec.n >= 1
            else True,
        )
    )
    out.append(
        _result(
            "chow",
            "reduced relation count n (r-1)",
            len(pres.reduced_indices) == spec.n * (spec.r - 1)
            and _greedy_elimination_keeps_the_reduced(pres),
            f"{len(pres.reduced_indices)} independent of {len(pres.linear_relations)} emitted",
        )
    )
    census = chow.jump_census(spec)
    expected_ok = all(
        count == chow.expected_jump_count(spec, jt) for jt, count in census.items()
    )
    total = sum(census.values())
    out.append(
        _result(
            "chow",
            "jump census matches multinomial counts",
            expected_ok and total == chow.nonempty_chain_count(spec),
            f"{len(census)} jump types, {total} chains",
        )
    )
    if spec.n >= 2 and spec.num_subsets <= 40:
        name = "degree-2 products vanish exactly when incomparable"
        try:
            reducer = chow.DegreeReducer(spec, 2)
        except FeasibilityError as exc:
            out.append(_skipped("chow", name, exc))
        else:
            bad = sum(
                1
                for x, y in itertools.combinations_with_replacement(pres.generators, 2)
                if (chow.product_support([x, y]) is None) != reducer.monomial_is_zero([x, y])
            )
            out.append(_result("chow", name, bad == 0, f"{bad} mismatches"))
    return out


def suite_tropical(spec: ArrangementSpec, seed: int = 0) -> list[CheckResult]:
    try:
        check_fan_spec(spec)  # before the building set is enumerated
    except FeasibilityError as exc:
        return [_skipped("tropical", "fan construction", exc)]
    out: list[CheckResult] = []
    fan = build_fan(spec, BuildingSet.maximal(spec))
    rng = Lcg(seed)
    curves = [sample_curve(rng, spec) for _ in range(500)]
    points = [tropical.embed(c, spec) for c in curves]
    round_trip = all(
        tropical.curve_from_point(p, spec) == c for c, p in zip(curves, points)
    )
    out.append(_result("tropical", "curve -> point -> curve round trip", round_trip))
    types = [tropical.combinatorial_type(c, spec) for c in curves]
    consistent = all(t == locate_point(fan, p) for t, p in zip(types, points))
    out.append(
        _result("tropical", "combinatorial type agrees with point location", consistent)
    )
    scaling = all(
        t == tropical.combinatorial_type(c.scaled(3), spec)
        for c, t in zip(curves[:100], types)
    )
    out.append(_result("tropical", "type is scaling invariant", scaling))
    return out


def suite_normal(spec: ArrangementSpec, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    try:
        complex_ = normal_complex.complex_cells(spec)
    except FeasibilityError as exc:
        return [_skipped("normal", "cell construction", exc)]
    out.append(
        _result(
            "normal",
            "one cell per maximal chain",
            len(complex_.cells) == spec.num_maximal_chains,
            f"{len(complex_.cells)} cells",
        )
    )
    origin = tuple(Fraction(0) for _ in range(spec.ambient_dim))
    out.append(
        _result(
            "normal",
            "origin is a vertex of every cell",
            all(origin in cell.v_rep for cell in complex_.cells),
        )
    )
    rng = Lcg(seed)
    points = sample_mixed_points(rng, spec, 500, max_abs=spec.n + 2)
    bad = sum(
        1
        for p in points
        if complex_.contains(p) != normal_complex.in_delta(p, spec)
    )
    out.append(
        _result(
            "normal",
            "cells tile the truncated support",
            bad == 0,
            f"{len(points)} points, {bad} mismatches",
        )
    )
    if (spec.r, spec.n) == (2, 2):
        # the fraction-free simplex over every cell vertex is the second route
        extremes = normal_complex.union_extreme_points(spec)
        hull = extreme_points({v for cell in complex_.cells for v in cell.v_rep})
        expect = {
            (Fraction(sa * a), Fraction(sb * b))
            for a, b in itertools.permutations((1, 2))
            for sa in (1, -1)
            for sb in (1, -1)
        }
        name = "union extremes are the signed permutations of (1, 2)"
        passed = set(extremes) == expect and extremes == hull
        out.append(_result("normal", name, passed, f"{len(extremes)} extreme points"))
    return out


def run_suites(
    spec: ArrangementSpec, suites: tuple[str, ...] = SUITES, seed: int = 0
) -> list[CheckResult]:
    # an invalid override is a usage error, not a refusal a suite may skip
    check_override()
    out: list[CheckResult] = []
    for name in suites:
        out.extend(globals()[f"suite_{name}"](spec, seed))
    return out
