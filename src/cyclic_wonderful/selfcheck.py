"""Cross-module verification suites behind the ``check`` command.

Each suite returns a list of named results, each PASS, FAIL or SKIP (a
feasibility guard refused the work, so the check did not run); the command
line formats them and turns any failure into a nonzero exit status.  The checks
mirror the library's invariants: the two fan constructions agree, cone
intersections obey the chain rule, graded ranks computed by formula and by
elimination coincide, tropical round trips are exact, and the normal
complex tiles the truncated support.

No suite samples, so ``--seed`` moves no line.  The normal suite's tiling
line reads each cell's rows exactly on its chain's rays
(``normal_complex``'s docstring gives the argument, which takes the
disjoint cones from the fan suite's walls), and the tropical suite's lines
are a certificate too (its argument is the last part of this docstring).
The fan suite's completeness line certifies, from the fan's walls, the
codimension-1 cones, that the maximal cones cover the fan's support
exactly once and meet in common faces, at every r.  The support is
T = L^n, L the tropical line: the r rays e^0, ..., e^(r-1) of R^(r-1),
which sum to 0 (at r = 2 the whole line, and T = R^n).  T is the union
of the r^n charts O_c = cone(e_1^(c_1), ..., e_n^(c_n)), each a
unimodular copy of the orthant R^n_{>=0} in coordinates t_1, ..., t_n;
two charts meet in the coordinate face where their residues agree, and a
chart's facet t_m = 0 lies in exactly the r charts that differ from it at
m alone.

A maximal cone's label is a chain (I_1, a_1) < ... < (I_n, a_n) of
decorated prefixes, |I_j| = j, each decoration the top one's restriction,
and its rays are those prefixes' rays, each the sum of e_i^(-a(i)) over
its label's factors.  So the cone lies in the chart c = -a_n of its top
prefix and, of rank n, spans that chart's span.  A wall is the label less
one prefix.  An *inner* wall drops a prefix below the top: it keeps the
top ray, inside the chart, and both its cofaces lie in that one chart.  A
*boundary* wall drops the top prefix: its rays miss the one factor m the
top prefix adds, so it lies on the chart's facet t_m = 0.  The line asks:

- of every inner wall, exactly two cofaces on opposite sides: the first
  coface's coefficient row of its extra ray vanishes on the wall and is
  positive at that ray, and must be negative at the second coface's extra
  ray, which lies in the same span (one integer dot product);
- of every boundary wall, exactly r cofaces, whose top prefixes each add
  one factor to the wall's top prefix, at r distinct residues (a test of
  labels): one coface in each of the r charts around the facet;
- of every entry of the ray table, that it is the sum of e_i^(-a(i)) over
  its label's factors, read as integers over its nonzero entries (the
  chart condition);
- of one point, the ray sum of the first maximal cone, that it lies in
  no other maximal cone of that cone's chart, the cones whose top prefix
  is its own, each read by its own ``Cone._inverse`` tests.

Why that suffices.  In one chart, count the maximal cones that hold a
point of the chart's interior on no wall.  A path that crosses an inner
wall away from the codimension-2 cones leaves one coface as it enters the
other, so the count does not change there; when n >= 2 the codimension-2
cones do not disconnect the chart's interior, which no boundary wall
meets, so the count is one number per chart.  Beside a point x of a facet
t_m = 0 that lies on no cone of dimension n - 2, a chart's maximal cones
that hold the points near x are the cofaces in that chart of the boundary
walls through x, one each, and those walls are the same for the r charts
around the facet: the count is the same on both sides of every facet, and
the charts connect through their facets, so it is one number for all of
T.  The first maximal cone's ray sum has every chart coordinate at least
1 in its chart c (each factor lies in some prefix), and lies in no other
maximal cone of chart c.  A maximal cone of another chart c' lies in
O_c', which meets O_c only where some chart coordinate is 0, so no such
cone holds the ray sum, and none of its walls does either.  So the ray
sum is on no wall, and that number is 1.  (At n = 1 the one wall is the
origin, a boundary wall, and its r cofaces are the r rays of L.)  Within
a chart the maximal cones pass from one to the next across their
shared walls, each on its own side, so around each face they cover a
neighbourhood of the face's relative interior (within T) a whole number
of times, at least once; the count 1 makes it exactly once, and the
maximal cones of one chart triangulate it
(the pseudomanifold argument of De Loera, Rambau and Santos,
*Triangulations*): two of them meet in the cone of their common rays, the
rays of their chains' common prefixes.  Two maximal cones s, t of charts
c and c' meet inside the face G of both charts where c and c' agree.  The
face of s in G is the cone of s's prefixes inside G, which is a face of
some maximal cone s' of chart c' as well, every maximal chain having its
cone; so s and t meet where s' and t meet within G, in the cone of the
prefixes common to s and t (a common prefix lies inside G).  That is the
law cone(a) ∩ cone(b) = cone(a ∧ b) for every pair of maximal cones, and
a face is the cone of some of its maximal cone's rays (below), so pairs
of faces meet in common faces too.
No command decides the law pair by pair; the tests do, on every pair of
chains at several specs, as the certificate's cross-check.

The argument takes three conditions from the other lines of the suite.
A face is its chain: its rays are, by definition, its prefixes' entries
in the fan's ray table, the rays ``fan`` prints.  A maximal cone also has
a record, and the stellar line ties each record to its chain: the label
is the chain's prefixes and the rays their entries, in order; without the
tie two records that swapped chains would keep every set of rays and pass
every other line.  The labels are chains: the direct route builds each by
restricting its top decoration, and the stellar route, which subdivides
the product fan and never enumerates chains, must find the same maximal
label sets and ray table.  And the count line finds the n! r^n maximal
cones, one per maximal chain.  Both routes take each label's ray from
``ray_vector``, so the comparison of ray tables is no second route for
the rays themselves; the chart reading is.

The stellar line compares maximal cones alone and reads no face.  That
is enough, because both fans are pure of dimension n, so equal maximal
label sets over equal ray tables mean equal fans.  The stellar route is
pure by construction: it holds maximal cones only, and each subdivision
replaces a maximal cone by maximal cones.  In the direct route every
chain extends to a maximal chain: refine its flag of index sets to a
complete flag of [n], extend its top decoration to [n] by any residues,
and restrict that to each set of the flag.  So each direct face lies in
the down-closure of the maximal chains.  The other inclusion, that the
direct face list is exactly that down-closure (the enumerator
``_chains_of_length`` yields every subset of a maximal chain at each
length below n, and each once), is read by no fan-suite line.
It is the condition the argument takes from the chow suite's census
line, "jump census matches multinomial counts", which reads the same
enumerator and counts its chains by jump type against the multinomial
counts and their total against the closed count: a lost or extra face
shows there, though a duplicate paired with a lost face of the same jump
type would not.  So ``check --suite fan`` alone covers the maximal cones
and the ray table; the faces ``fan`` prints are covered by the census
line.  The tests keep the full-face comparison of the two routes
(``fans_equal``, faces included) as the cross-check.

The two lattice lines run ``lattice_pivots`` on the maximal cones alone,
and a flat one fails the completeness line unrun.  Pivots all 1 say that
a maximal cone's n rays extend to a basis of the lattice, and each face
inherits that: every chain extends to a maximal chain (above), whose
record holds the face's rays by the tie; and a subset of a lattice basis
is a lattice basis of its span.  So every face is unimodular and of its
chain's length, and the per-face pass is left to the tests, as the
cross-check.

At r = 2 each facet lies in two charts, a boundary wall's two cofaces lie
on either side of its coordinate hyperplane, and the line's name says
that every wall has two maximal cones on opposite sides.  At r > 2 the
line also names a point outside T, e_1^1 + e_1^2, which no cone holds,
decided on the labels with no scan.  A point of a cone is a nonnegative
combination of its record's rays, which are its chain's (the tie).  The
prefixes of a chain that hold factor 1 all decorate it by the top one's
residue a (the labels are chains), and each of their rays has factor 1's
block e_1^(-a) (the chart reading).  So factor 1's block of a point of a
cone is a nonnegative multiple of one e_1^(-a), and e_1^1 + e_1^2 is
none when r > 2.  At n = 0 the fan is the one rayless cone, the origin of
R^0, which the line checks alone.

The two points take the same three conditions from the other lines: the
labels are chains and each record is its chain's (the stellar line), and
each ray's block is e_i^(-a(i)) (the chart reading).  Together they put
each maximal cone in the chart of its top prefix, which the ray sum's
count, restricted to one chart, needs as well.  So ``check`` scans no
cone: at n = 1 it inverts the first chart's one cone and no other.

The tropical suite.  The fan's support T is the space of tropical curves:
a curve c puts orbit i on spoke l_i at distance L_i > 0, or on the center,
and ``embed`` writes sum_i L_i e_i^(l_i).  Let v_1 > ... > v_k be the
distinct positive lengths and v_(k+1) = 0; the type C = (P_1 < ... < P_k)
has P_j the orbits at distance at least v_j, decorated by -l_i.  Then

    embed(c) = sum_j (v_j - v_(j+1)) ray(P_j),

every coefficient positive, ray(P) the sum of e_i^(l_i) over P.  So embed
maps the curves of type C onto the relative interior of cone(C), the
cone's rays being those sums (the fan suite's chart reading checks every
entry of the ray table against its label); the relative interiors of the
fan's cones are disjoint and cover T (the fan suite's wall certificate,
above), so the scan finds C at embed(c), for every curve.  The sampled
lines that checked this at 500 curves are gone; the suite checks instead
that the three functions do what the identity takes from them, in three
lines that read no fan:

- *unit curves*: for every factor i and spoke l, embed of the curve with
  orbit i alone on spoke l at distance 1 is e_i^l, read at its chart slot
  with no ``block_slot`` (``_on_chart``, the chart reading of the rays);
- *orbit representatives*: G = Z/r wr S_n permutes the factors and turns
  each factor's residues, and its orbits of chains are their sets of
  prefix sizes, 2^n in all (``lattice.orbit_representatives``: one chain
  of undecorated prefixes {1..s_1} < ... < {1..s_k} per set).  The
  barycentric curve of a chain puts orbit i of its top prefix on spoke
  -a(i) at the number of prefixes that hold i.  For each representative
  it must have that chain as its type, come back from curve_from_point
  of its embedding, and embed to the sum of its prefixes' rays, read
  through ``ray_vector``;
- *generators*: each of the n - 1 swaps of neighbouring factors and the
  shift of factor 1's residues (``lattice.symmetry_generators``, which
  generate G) must commute with embed, combinatorial_type and
  curve_from_point at every representative.  G moves curves
  (``TropicalCurve.moved``), chains (``Symmetry.chain``) and lattice
  vectors (``fan.act``, the linear map its residue maps define through
  ``block_slot``); the line compares embed(g c) with g embed(c), the
  type of g c with g's image of c's type, and curve_from_point(g p) with
  g curve_from_point(p).  A residue map that is no bijection has no
  lattice map: ``fan.act`` then sends e_1^0 off its label's ray, and the
  line fails.

Why that suffices.  Every chain is g R for a representative R and some g
in G, and g moves R's barycentric curve to the chain's.  Where the three
functions commute with G, the representative's type, round trip and ray
sum carry to every chain of its orbit, since g is linear and maps the ray
of each label to the ray of its image (by the unit curves and
linearity).  A curve of type C has C's spokes and the order of C's
barycentric lengths, and ``combinatorial_type`` reads the lengths through
their order alone, so it finds C at every curve, and at every positive
multiple of it: the type is scaling invariant.  ``embed`` writes each
orbit's length into its own block alone, so the unit curves fix it on
every curve, and ``curve_from_point`` reads each block alone.  These
properties of the code (commuting with G away from the representatives,
reading lengths through their order, working block by block) are what no
finite line shows, and the argument takes them as given; tier-1 checks
their consequence on every chain at six specs up to (3,3), (2,4) and
(4,2), and on curves of generic lengths, with mixed denominators, against
the scan.

The lines take two conditions from the fan suite: the chart reading,
which makes the rays that ``ray_vector`` gives the ray table's (both are
written through ``block_slot`` and ``fan.place``, like embed's points; the
chart reading is the independent read), and the wall certificate, which
makes the cones' relative interiors disjoint and covering.  The suite
builds no fan, but keeps the fan guard, so that a spec the fan suite
refuses prints its SKIP here as well.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from . import chow, normal_complex, tropical
from .fan import Fan, _invert_maximal_cones, _stellar_labels, act, build_fan, ray_vector
from .guards import FeasibilityError, check_fan_spec, check_override
from .lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    DecoratedSubset,
    _Value,
    orbit_representatives,
    symmetry_generators,
)
from .linalg import extreme_points, lattice_pivots

_ZERO, _ONE = Fraction(0), Fraction(1)

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


def wall_failures(fan: Fan) -> tuple[int, list[tuple[DecoratedSubset, ...]]]:
    """The number of walls of the fan's maximal cones, and the walls that
    fail the certificate of the module docstring: an inner wall not lying
    in exactly two maximal cones on opposite sides, or a boundary wall not
    lying in exactly r maximal cones whose top prefixes add one factor to
    its top prefix at r distinct residues.

    A wall is a maximal cone's label with one prefix removed, its facet.
    For an inner wall, the first coface's coefficient row of its extra ray
    (``Cone._inverse``, written for every maximal cone by one pass,
    ``fan._invert_maximal_cones``) vanishes on the wall's rays and is
    positive at that ray, so the second coface's extra ray lies on the
    other side exactly when the row is negative there: one integer dot
    product per wall.  An inner wall is the only reader of an inverse, so
    the pass runs only when n >= 2, where inner walls exist.  A
    boundary wall reads only labels: the residue its cofaces' top prefixes
    add is one bit, found once per distinct pair of top prefixes, and the r
    cofaces must set all r bits, none twice.  Every maximal cone has n >= 1
    independent rays.

    Each prefix gets a code, a wall is its prefixes' codes packed into one
    integer, b bits each (a boundary wall w keyed -1 - w, apart from the
    inner ones), and a coface is the integer k n + j (maximal cone k less
    its j-th prefix), so grouping builds no tuple per facet: at (2,6),
    276,480 facets, the pass takes about 0.35 s in process on a 2-vCPU VM,
    and 0.17 s at (3,5), 68,040 walls.
    """
    n, maximal = fan.spec.n, fan.maximal_cones
    b = (n * len(maximal)).bit_length()
    # per inner prefix j: the codes above it move down one place, over those below
    splits = [(b * (j + 1), b * j, (1 << b * j) - 1) for j in range(n - 1)]
    below_top = (1 << b * (n - 1)) - 1  # the codes of the prefixes below the top
    top_two = b * max(n - 2, 0)  # the codes below the top two prefixes'
    codes: dict[DecoratedSubset, int] = {}
    added: dict[int, int] = {}  # the top two codes -> the residue bit the top adds, or 0
    first: dict[int, int] = {}  # wall -> its first coface
    second: dict[int, int] = {}  # inner wall -> its second coface
    residues: dict[int, int] = {}  # boundary wall -> the residue bits its cofaces add
    crowded = set()  # inner walls of three or more cofaces, boundary walls that fail a label
    for k, cone in enumerate(maximal):
        packed = 0
        for d in reversed(cone.label):
            packed = packed << b | codes.setdefault(d, len(codes))
        c = k * n
        for hi, lo, low in splits:
            wall = packed >> hi << lo | packed & low
            if first.setdefault(wall, c) != c:
                if wall in second:
                    crowded.add(wall)
                else:
                    second[wall] = c
            c += 1
        bit = added.get(packed >> top_two)
        if bit is None:
            top, below = cone.label[-1].items, cone.label[-2].items if n > 1 else ()
            extra = set(top).difference(below)
            bit = 1 << extra.pop()[1] if len(extra) == 1 == len(top) - len(below) else 0
            added[packed >> top_two] = bit
        wall = -1 - (packed & below_top)
        held = residues.get(wall)
        if held is None:
            first[wall], held = c, 0
        if held & bit or not bit:
            crowded.add(wall)
        residues[wall] = held | bit
    every = (1 << fan.spec.r) - 1
    if n > 1:
        _invert_maximal_cones(maximal)
    failed = []
    for wall, c in first.items():
        one, j = c // n, c % n
        if wall < 0:
            if residues[wall] == every and wall not in crowded:
                continue
        else:
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


def _on_chart(vector: tuple, items: Iterable[tuple[int, int]], spec: ArrangementSpec) -> bool:
    """Whether the vector is the sum of e_i^(-a) over the pairs (i, a),
    one per factor, read as integers with no vector built: factor i's
    block of r - 1 entries must hold a 1 at slot -a mod r, or -1 across
    the whole block for residue 0, and the vector no other nonzero entry,
    which one count of its zeros checks.  The chart reading, written
    without ``block_slot``."""
    r = spec.r
    block, minus = r - 1, (-1,) * (r - 1)
    held, nonzero = len(vector) == spec.ambient_dim, 0
    for i, a in items:
        start, slot = (i - 1) * block, -a % r
        if slot:
            held = held and vector[start + slot - 1] == 1
            nonzero += 1
        else:
            held = held and vector[start : start + block] == minus
            nonzero += block
    return held and len(vector) - vector.count(0) == nonzero


def _rays_off_their_charts(fan: Fan) -> list[DecoratedSubset]:
    """The labels whose ray in the fan's ray table is not the sum of
    e_i^(-a(i)) over the label's factors (i, a(i)) (``_on_chart``)."""
    return [d for d, ray in fan.rays.items() if not _on_chart(ray, d.items, fan.spec)]


def suite_fan(spec: ArrangementSpec) -> list[CheckResult]:
    """The fan's counts, its two routes (every maximal record tied to its
    chain), the lattice lines on the maximal cones and completeness, whose
    wall certificate also gives the cone intersection law (see the module
    docstring)."""
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
    # the stellar core runs the same fan guard, which passed above; a
    # subdivision vector off the support (a bent ray) fails the route
    try:
        stellar, stellar_rays = _stellar_labels(spec, g)
    except FeasibilityError:
        raise
    except ValueError as exc:
        stellar, stellar_rays, broken = set(), None, str(exc)
    else:
        broken = ""
    stellar_count = len(stellar)
    # each maximal chain's label set leaves the stellar route's maximal
    # ones, which, the counts being equal, empties exactly when the sets
    # are; each maximal record is tied to its chain (the label is the
    # chain's prefixes, the rays their ray-table entries).  No face is read
    # (see the module docstring)
    stellar.difference_update(frozenset(chain.prefixes) for chain in fan._maximal)
    ray = fan.rays.__getitem__
    astray = [
        chain
        for chain, cone in fan._maximal.items()
        if cone.label != chain.prefixes or cone.rays != tuple(map(ray, chain.prefixes))
    ]
    # the lattice lines read the maximal cones alone (see the module
    # docstring): a pivot list's length is the rank, all 1 if unimodular
    rough, flat = [], []
    for cone in maximal:
        pivots = lattice_pivots(cone.rays)
        if len(pivots) != len(cone.label):
            flat.append(Chain._trusted(cone.label))
        if pivots != [1] * len(cone.rays):
            rough.append(Chain._trusted(cone.label))
    details = [broken] if broken else []
    if astray:
        details.append(f"{len(maximal)} maximal cones, {len(astray)} not on their chain's rays, first {astray[0].text()}")
    out.append(
        _result(
            "fan",
            "stellar route equals direct route",
            not broken and not stellar and len(maximal) == stellar_count and stellar_rays == fan.rays and not astray,
            ", ".join(details),
        )
    )
    detail = f"{len(maximal)} cones" + (f", {len(rough)} not unimodular, first {rough[0].text()}" if rough else "")
    out.append(_result("fan", "maximal cones unimodular", not rough, detail))
    detail = f"{len(maximal)} maximal cones, {len(flat)} of another rank, first {flat[0].text()}" if flat else ""
    out.append(_result("fan", "cone dimension equals chain length", not flat, detail))
    if spec.n == 0:
        name = "complete for n = 0: the fan is the origin of R^0"
    elif spec.r == 2:
        name = "complete for r = 2, cones meeting in common faces: every wall has two maximal cones on opposite sides"
    else:
        name = (
            "not complete for r > 2: e_1^1 + e_1^2 lies in no cone, and the cones cover T = L^n once,"
            " meeting in common faces: every inner wall has two maximal cones on opposite sides,"
            " every boundary wall r at distinct residues"
        )
    if flat:
        # the walls (n >= 2) and the ray sum's count eliminate maximal
        # cones, which a flat one refuses
        detail = f"not run, first flat maximal cone {flat[0].text()}"
        out.append(_result("fan", name, False, detail))
        return out
    if spec.n == 0:
        out.append(_result("fan", name, [cone.rays for cone in maximal] == [()]))
        return out
    walls, failed = wall_failures(fan)
    detail = f"{walls} walls, {len(failed)} failures"
    if failed:
        detail += f", first {Chain._trusted(failed[0]).text()}"
    off = _rays_off_their_charts(fan)
    if off:
        detail += f", {len(off)} rays off their label's chart, first {off[0].text()}"
    # the ray sum of the first maximal cone lies inside it, and must lie in
    # no other maximal cone of its chart; e_1^1 + e_1^2 is decided on the
    # labels (see the module docstring)
    first = maximal[0]
    point, top = tuple(map(sum, zip(*first.rays))), first.label[-1]
    covers = sum(1 for cone in maximal if cone.label[-1] == top and cone._scaled_coefficients(point) is not None)
    if covers != 1:
        label = Chain._trusted(first.label).text()
        detail += f", the ray sum of {label} lies in {covers} maximal cones of its chart"
    out.append(_result("fan", name, not failed and not off and covers == 1, detail))
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


def suite_chow(spec: ArrangementSpec) -> list[CheckResult]:
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


def _barycentric_curve(chain: Chain, spec: ArrangementSpec) -> tropical.TropicalCurve:
    """The chain's barycentric curve: orbit i of its top prefix on spoke
    -a(i) at the distance of the number of prefixes that hold i, every
    other orbit on the center (see the module docstring)."""
    spokes: list[int | None] = [tropical.CENTER] * spec.n
    lengths = [0] * spec.n
    for d in chain.prefixes:
        for i, a in d.items:
            spokes[i - 1] = -a % spec.r
            lengths[i - 1] += 1
    return tropical.TropicalCurve._trusted(tuple(spokes), tuple([Fraction(x) for x in lengths]))


def suite_tropical(spec: ArrangementSpec) -> list[CheckResult]:
    """The three exact lines of the module docstring's tropical argument:
    the unit curves, the orbit representatives and the generators.  It
    builds no fan: the representatives' rays come from ``ray_vector``,
    which the fan suite's chart reading checks against every ray-table
    entry."""
    try:
        # no fan is built, but past the fan guard the fan suite checks
        # neither of the conditions the argument takes from it
        check_fan_spec(spec)
    except FeasibilityError as exc:
        name = "fan-suite chart reading and wall certificate, which its argument takes, not checked"
        return [_skipped("tropical", name, exc)]
    r, n = spec.r, spec.n
    out: list[CheckResult] = []
    off = []
    for i in range(1, n + 1):
        for spoke in range(r):
            spokes, lengths = [tropical.CENTER] * n, [_ZERO] * n
            spokes[i - 1], lengths[i - 1] = spoke, _ONE
            point = tropical.embed(tropical.TropicalCurve._trusted(tuple(spokes), tuple(lengths)), spec)
            if not _on_chart(point, ((i, -spoke % r),), spec):
                off.append(f"e_{i}^{spoke}")
    detail = f"{n * r} curves" + (f", {len(off)} off their slot, first {off[0]}" if off else "")
    out.append(_result("tropical", "unit curves: embed puts each e_i^l at its chart slot", not off, detail))
    representatives = orbit_representatives(spec)
    # each representative with its curve, type, point and curve read back
    seen = []
    failed = []
    for chain in representatives:
        curve = _barycentric_curve(chain, spec)
        point = tropical.embed(curve, spec)
        kind, back = tropical.combinatorial_type(curve, spec), tropical.curve_from_point(point, spec)
        seen.append((chain, curve, kind, point, back))
        rays = [ray_vector(d, spec) for d in chain.prefixes]
        ray_sum = tuple(map(sum, zip(*rays))) if rays else (0,) * spec.ambient_dim
        if kind != chain or back != curve or point != ray_sum:
            failed.append(chain)
    name = "orbit representatives: each barycentric curve has its chain as type, round-trips and embeds to its ray sum"
    detail = f"{len(representatives)} chains, one per set of prefix sizes"
    if failed:
        detail += f", {len(failed)} failures, first {failed[0].text()}"
    out.append(_result("tropical", name, not failed, detail))
    generators = symmetry_generators(spec)
    failed = []
    for g in generators:
        for chain, curve, kind, point, back in seen:
            image, moved = curve.moved(g), act(spec, g, point)
            if (
                tropical.embed(image, spec) != moved
                or tropical.combinatorial_type(image, spec) != g.chain(kind)
                or back is None
                or tropical.curve_from_point(moved, spec) != back.moved(g)
            ):
                failed.append(chain)
    name = "generators of Z/r wr S_n commute with embed, type and curve_from_point on the representatives"
    detail = f"{len(generators)} generators on {len(representatives)} chains"
    if failed:
        detail += f", {len(failed)} failures, first {failed[0].text()}"
    out.append(_result("tropical", name, not failed, detail))
    return out


def suite_normal(spec: ArrangementSpec) -> list[CheckResult]:
    """The cell count, the origin in every cell, the exact tiling line
    (``normal_complex.cell_failures``) and, at (2, 2), the union extremes."""
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
    # a Fraction is 0 exactly when its numerator is, so no vertex is compared
    # as a tuple of Fractions
    out.append(
        _result(
            "normal",
            "origin is a vertex of every cell",
            all(any(not any(x.numerator for x in v) for v in cell.v_rep) for cell in complex_.cells),
        )
    )
    failed = normal_complex.cell_failures(complex_)
    name = "cells tile the truncated support: each cell is its maximal cone's part of it, read on the chain's rays"
    detail = f"{len(complex_.cells)} cells, {len(failed)} failures"
    if failed:
        detail += f", first {failed[0].text()}"
    out.append(_result("normal", name, not failed, detail))
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


def run_suites(spec: ArrangementSpec, suites: tuple[str, ...] = SUITES) -> list[CheckResult]:
    # an invalid override is a usage error, not a refusal a suite may skip
    check_override()
    return [res for name in suites for res in globals()[f"suite_{name}"](spec)]
