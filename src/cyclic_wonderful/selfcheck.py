"""Cross-module verification suites behind the ``check`` command.

Each suite returns a list of named results, each PASS, FAIL or SKIP (a
feasibility guard refused the work, so the check did not run); the command
line formats them and turns any failure into a nonzero exit status.  The checks
mirror the library's invariants: the two fan constructions agree, cone
intersections obey the chain rule, graded ranks computed by formula and by
elimination coincide, tropical round trips are exact, and the normal
complex tiles the truncated support.

The fan suite's completeness line draws no sample.  At r = 2 it certifies
that the maximal cones cover R^n exactly once by their walls, the
codimension-1 cones: a pure simplicial fan does so when every wall lies in
exactly two maximal cones, on opposite sides of it, and one point is
covered exactly once (the pseudomanifold argument of De Loera, Rambau and
Santos, *Triangulations*, run on the sphere).  Count, at a point that lies
in no wall, the maximal cones that hold it.  A path that crosses a wall
away from the codimension-2 cones leaves one coface of that wall as it
enters the other, so the count does not change there; when n >= 2 the
codimension-2 cones do not disconnect R^n, so the count is the same at
every such point, and it is 1 beside the one point covered once.  At n = 1
there are no codimension-2 cones: the one wall is the origin and its two
cofaces are the two opposite rays, which cover the line.  The argument
needs every maximal cone to be simplicial of rank n, which the rank line
checks; a flat maximal cone fails the completeness line unrun.  At r > 2
the maximal cones have rank n < n (r - 1), so their union is not the whole
space; the line names a point outside it.

At r = 2, n >= 1 the same certificate decides the cone intersection law,
so the law's line runs only at r > 2 and at n = 0, where no wall
certificate runs (on every pair of cones up to 50 cones, else on 1,000
pairs drawn from the seed), and the fan suite draws no random number at
r = 2.  Around each face the maximal cones that hold it pass from one to
the next across their shared walls, each on its own side, so they cover a
neighbourhood of the face's relative interior a whole number of times, at
least once; the count 1 makes it exactly once.  The maximal cones
therefore triangulate R^n: two of them meet in the cone of their common
rays, the rays of their chains' common prefixes, which is what the law
asks of cone(a) ∩ cone(b) = cone(a ∧ b).  A face is the cone of some of
its maximal cone's rays, so pairs of faces meet in common faces too, once
each face has the rays its label names.  The argument has three
conditions besides the wall line, and the fan suite checks each.  Every
cone is the cone of its chain: its label is the chain's prefixes and its
rays are those prefixes' rays in the fan's ray table, in order.  The
stellar line checks this for every cone, faces included; without it two
faces that swapped cones would keep every set of rays and pass every
other line.  The rank line must pass, so that every cone is simplicial of
its chain's length.  And the stellar route's label sets and ray table
must equal the direct route's.  That route subdivides the product fan and
never enumerates chains; both take each label's ray from ``ray_vector``,
which gives distinct labels distinct rays, so with the tie the comparison
is one of every cone's set of rays: at r = 2 it is the only line that
checks the ray sets themselves against an independent route.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from . import chow, normal_complex, tropical
from .fan import Cone, Fan, Vector, _stellar_labels, build_fan, locate_point
from .guards import FeasibilityError, check_fan_spec, check_override
from .lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    DecoratedSubset,
    _Value,
    chain_intersect,
)
from .linalg import SharedRowIndex, extreme_points, lattice_pivots
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


def _eliminates(cone: Cone) -> bool:
    """Whether the cone has row tests: no rays, or independent ones."""
    try:
        return not cone.rays or bool(cone._inverse)
    except ValueError:
        return False


def intersection_law_failures(
    fan: Fan, pairs: Iterable[tuple[Chain, Chain]]
) -> list[tuple[Chain, Chain]]:
    """The pairs (a, b) whose cones break cone(a) ∩ cone(b) = cone(a ∧ b).

    The law is checked exactly at finitely many points.  Every ray of the
    expected cone lies in both cones.  Conversely, each ray of either cone,
    and the sum of its rays (a point interior enough to catch mismatches),
    lies in the other cone exactly when it lies in the expected one.  A pair
    that meets a cone of dependent rays, which has no row tests, fails.

    The pairs share their cones and points.  Only the chains the pairs meet
    (a, b and a ∧ b) are registered, in first-met order, in one
    ``SharedRowIndex`` of their cones' tests; the rayless cone's tests pin
    every coordinate to 0, so it holds only the origin.  Each distinct ray
    or ray-sum point is then evaluated once, as the mask of the met cones
    that hold it, and every pair is decided by bit tests on those masks.
    """
    pairs = list(pairs)
    bits: dict[Chain, int | None] = {}
    cones: list[Cone] = []
    met = []
    for a, b in pairs:
        trio = []
        for chain in (a, b, chain_intersect(a, b)):
            if chain not in bits:
                cone = fan.cone(chain)
                bits[chain] = len(cones) if _eliminates(cone) else None
                if bits[chain] is not None:
                    cones.append(cone)
            trio.append(bits[chain])
        met.append(None if None in trio else trio)
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

    return [pair for pair, trio in zip(pairs, met) if trio is None or not holds(*trio)]


def wall_failures(fan: Fan) -> tuple[int, list[tuple[DecoratedSubset, ...]]]:
    """The number of walls of the fan's maximal cones, and the walls that
    fail: those not lying in exactly two maximal cones on opposite sides.

    A wall is a maximal cone's label with one prefix removed, its facet.
    For a wall with two cofaces, the first coface's coefficient row of its
    extra ray (``Cone._inverse``) vanishes on the wall's rays and is
    positive at that ray, so the second coface's extra ray lies on the
    other side exactly when the row is negative there: one integer dot
    product per wall.  Every maximal cone has n >= 1 independent rays.

    Each prefix gets a code, a wall is its prefixes' codes packed into one
    integer, b bits each, and a coface is the integer k n + j (maximal cone
    k less its j-th prefix), so grouping builds no tuple per facet: at
    (2,6), 276,480 facets, the pass takes about 0.55 s in process on a
    2-vCPU VM, against 0.9-1.1 s with tuple keys.
    """
    n, maximal = fan.spec.n, fan.maximal_cones
    b = (n * len(maximal)).bit_length()
    codes: dict[DecoratedSubset, int] = {}
    first: dict[int, int] = {}  # wall -> its first coface
    second: dict[int, int] = {}
    crowded = set()  # walls of three or more cofaces
    for k, cone in enumerate(maximal):
        packed = 0
        for d in reversed(cone.label):
            packed = packed << b | codes.setdefault(d, len(codes))
        for j in range(n):
            # the codes above prefix j, moved down one place, over those below
            wall, c = packed >> b * (j + 1) << b * j | packed & ((1 << b * j) - 1), k * n + j
            if first.setdefault(wall, c) != c:
                if wall in second:
                    crowded.add(wall)
                else:
                    second[wall] = c
    failed = []
    for wall, c in first.items():
        one, j = c // n, c % n
        other = second.get(wall)
        if other is not None and wall not in crowded:
            other, k = other // n, other % n
            row, ray = maximal[one]._inverse.tests[j - n][0], maximal[other].rays[k]
            s = 0
            for i, a in row:
                s += a * ray[i]
            if s < 0:
                continue
        label = maximal[one].label
        failed.append(label[:j] + label[j + 1 :])
    return len(first), failed


def suite_fan(spec: ArrangementSpec, seed: int = 0) -> list[CheckResult]:
    """The fan's counts, its two routes (every cone tied to its chain), the
    intersection law (at r > 2 and n = 0 only), the lattice lines and
    completeness (see the module docstring for the wall argument, which at
    r = 2 also gives the law).
    """
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
    # the stellar core runs the same fan guard, which passed above
    stellar, stellar_rays = _stellar_labels(spec, g)
    stellar_count = len(stellar)
    # one pass over the cones: each chain's label set leaves the stellar
    # route's, which, the counts being equal, empties exactly when the sets
    # are; each cone is tied to its chain (the label is the chain's prefixes,
    # the rays theirs); a pivot list's length is the rank, all 1 if unimodular
    ray = fan.rays.__getitem__
    chains, astray, rough, flat = [], [], [], []
    for chain, cone in fan.cones.items():
        chains.append(chain)
        stellar.discard(frozenset(chain.prefixes))
        if cone.label != chain.prefixes or cone.rays != tuple(map(ray, chain.prefixes)):
            astray.append(chain)
        pivots = lattice_pivots(cone.rays)
        if len(pivots) != len(cone.label):
            flat.append(chain)
        if len(chain.prefixes) == spec.n and pivots != [1] * len(cone.rays):
            rough.append(chain)
    out.append(
        _result(
            "fan",
            "stellar route equals direct route",
            not stellar and len(chains) == stellar_count and stellar_rays == fan.rays and not astray,
            f"{len(chains)} cones, {len(astray)} not on their chain's rays, first {astray[0].text()}"
            if astray
            else "",
        )
    )
    # at r = 2, n >= 1 the completeness line's wall certificate decides the
    # law (see the module docstring)
    if spec.r != 2 or spec.n == 0:
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
    out.append(
        _result(
            "fan",
            "maximal cones unimodular",
            not rough,
            f"{len(maximal)} cones"
            + (f", {len(rough)} not unimodular, first {rough[0].text()}" if rough else ""),
        )
    )
    out.append(
        _result(
            "fan",
            "cone dimension equals chain length",
            not flat,
            f"{len(chains)} cones, {len(flat)} of another rank, first {flat[0].text()}"
            if flat
            else "",
        )
    )
    if spec.n == 0:
        name = "complete for n = 0: the fan is the origin of R^0"
    elif spec.r == 2:
        name = "complete for r = 2, cones meeting in common faces: every wall has two maximal cones on opposite sides"
    else:
        name = "not complete for r > 2: e_1^1 + e_1^2 lies in no cone"
    flat_maximal = [chain for chain in flat if len(chain.prefixes) == spec.n]
    if flat_maximal:
        # the walls and the scan eliminate every maximal cone, which a flat
        # one refuses
        detail = f"not run, first flat maximal cone {flat_maximal[0].text()}"
        out.append(_result("fan", name, False, detail))
        return out
    if spec.n == 0:
        out.append(_result("fan", name, [cone.rays for cone in maximal] == [()]))
    elif spec.r == 2:
        walls, failed = wall_failures(fan)
        detail = f"{walls} walls, {len(failed)} failures"
        if failed:
            detail += f", first {Chain._trusted(failed[0]).text()}"
        # the ray sum of the first maximal cone lies inside it, and must
        # lie in no other maximal cone
        first = maximal[0]
        covers = fan._cone_index.holding(tuple(map(sum, zip(*first.rays))), 1).bit_count()
        if covers != 1:
            label = Chain._trusted(first.label).text()
            detail += f", the ray sum of {label} lies in {covers} maximal cones"
        out.append(_result("fan", name, not failed and covers == 1, detail))
    else:
        # factor 1's block of a point of a cone is a nonnegative multiple of
        # one e_1^a, and e_1^1 + e_1^2 is none
        chain = locate_point(fan, (1, 1, *[0] * (spec.ambient_dim - 2)))
        detail = "" if chain is None else f"it lies in the cone of {chain.text()}"
        out.append(_result("fan", name, chain is None, detail))
    return out


def _greedy_elimination_keeps_the_reduced(relations: chow.Relations) -> bool:
    """Whether an elimination fed the emitted relations in order keeps
    exactly the reduced ones, those with a = 0, certified in one pass linear
    in the relations' coefficients, with no elimination.

    Walking the relations in emission order: each reduced relation holds a
    generator that no earlier reduced relation holds, so it is independent
    of them; every other relation ``(i, a, b)`` equals ``(i, 0, b) - (i, 0,
    a)`` coefficient for coefficient, both reduced and emitted before it, so
    it lies in their span.  Together these say that the greedy elimination
    keeps a relation exactly when it is reduced.
    """
    held: set[int] = set()
    earlier: dict[tuple[int, int], dict[int, int]] = {}  # (i, b) -> (i, 0, b)
    for (i, a, b), pairs in relations.items():
        coeffs = dict(pairs)
        if a == 0:
            if held.issuperset(coeffs):
                return False
            held.update(coeffs)
            earlier[i, b] = coeffs
            continue
        plus, minus = earlier.get((i, b)), earlier.get((i, a))
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
    generators, relations = chow.presentation(spec)
    try:
        oracle = chow.betti_oracle(spec)
        out.append(
            _result(
                "chow",
                "closed form equals rank oracle",
                closed == oracle,
                f"closed {closed}, oracle {oracle}",
            )
        )
    except FeasibilityError as exc:
        out.append(_skipped("chow", "closed form equals rank oracle", exc))
    out.append(
        _result(
            "chow",
            "rank-1 piece matches ray count minus reduced relations",
            closed[1] == spec.num_subsets - spec.n * (spec.r - 1)
            if spec.n >= 1
            else True,
        )
    )
    reduced = sum(1 for _, a, _ in relations if a == 0)
    out.append(
        _result(
            "chow",
            "reduced relation count n (r-1)",
            reduced == spec.n * (spec.r - 1) and _greedy_elimination_keeps_the_reduced(relations),
            f"{reduced} independent of {len(relations)} emitted",
        )
    )
    census = chow.jump_census(spec)
    expected_ok = all(
        count == chow.expected_jump_count(spec, parts) for parts, count in census.items()
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
                for x, y in itertools.combinations_with_replacement(generators, 2)
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
