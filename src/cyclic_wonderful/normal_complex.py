"""The normal complex: truncated cone polytopes tiling a bounded region.

Each maximal chain's cone is cut down to a polytope by one truncation per
flag level: writing a point of the cone as v = sum_i x_i e_i^(-a(i)) with
per-factor lengths x_i >= 0, level j imposes

    sum over i in I_j of x_i  <=  z_j := n + (n-1) + ... + (n-|I_j|+1).

Equivalently, the truncation pairs v against the level's ray generator with
the inner product that makes the chain's per-factor directions unit
vectors; for r = 2 that is the plain coordinate dot product.  (The flat dot
product would give the residue-0 direction squared norm r - 1 and, for
r > 2, cells that fail to tile the region cut out by the subset-sum
inequalities; the subset-sum form is the one consistent with that region.)

The union of these cells over all maximal chains is exactly the region of
the fan's support on which every subset-sum of the per-factor lengths is
bounded by the corresponding height.  For r = 2, n = 2 this union is the
octagon whose vertices are the signed permutations of (1, 2).

Cells are realized only for maximal chains; lower-dimensional faces are
shared boundaries of those.  A cell's vertices and rows are closed forms,
with no solve.  The steps between consecutive generators of a chain lie
in distinct factor blocks, so they are orthogonal: the dual rows that read
off the cone coefficients are differences of the steps scaled by their
squared norms, and the span rows are unit vectors (differences of two in a
residue-0 block) at the slots the steps leave free.  In per-level lengths
every cell is the same polytope, combinatorially a cube, whose 2^n
vertices depend on n only and are computed once.

Each cell is placed once, in integers, every entry at its factor's block
and none summed: a row as its ``linalg.RowTest`` test
``(normal, None, bound)``, each normal kept as its nonzero (index, coeff)
pairs, with the scale that clears it (the lcm of the squared norms of the
steps it holds, r - 1 or 1), and a vertex over the common denominator of
the cube's corners, written by ``fan.place``.  A cell stores each row
once, as that test and scale, and cells that repeat a test share one
tuple (``_cell_test``); ``h_rep``, the dense rational rows, is built
from them on first read, and no command reads it: the JSON output writes
each distinct stored row's text once, from ``Polytope.integer_rows`` (at
n = 1 the r cells hold O(r^2) references to about 5r distinct tests,
their dense rows r^3 entries).
Membership is integer arithmetic: a rational point p / D (p integer,
D > 0) satisfies ``normal . v <= bound`` exactly when ``normal_int . p <=
bound_int * D``.  One cell's membership test is ``linalg.tests_hold``,
which stops at its first violated row.  The cells
repeat their rows (253 distinct among the 6,912 H-rows at r = 4, n = 3,
with 244 distinct normals), and a cell holds each equality as a pair of
opposite rows, so the normals lie on 178 hyperplanes.  Membership in the
complex goes through a ``linalg.SharedRowIndex`` over the cells' tests:
each hyperplane is evaluated once per point, and a bitmask per test drops
every cell it violates.  The index reads only the cells' own rows, not the
point's chain.

The tiling line of ``check`` samples nothing: ``cell_failures`` certifies
cell(σ) = Δ ∩ σ for every maximal cone σ, where Δ is the region
``in_delta`` cuts out (the support points whose per-factor lengths x
have every s-subset sum at most delta(n, s)).  It reads each cell's own
tests at the n rays g_1, ..., g_n of its chain, from ``fan.ray_vector``,
and the lengths ``fan.support_decomposition`` gives each ray; a ray g_k
has length 1 on the factors of its prefix I_k and 0 elsewhere, all at
the top prefix's directions, so on σ the lengths are linear in the cone
coordinates: x_i(sum_k t_k g_k) = sum over k with i in I_k of t_k.

- The span rows come in opposite pairs of bound 0, so they are
  equalities; each vanishes on every ray, so they hold on span σ; and
  their distinct leads (last nonzero slots) number ambient_dim - n.
  That bounds their rank from below, and the n independent rays they
  vanish on bound it from above, so they cut out exactly span σ.
- Coefficient row j reads -scale_j [k = j] on ray k, scale_j > 0: the
  rays are independent, and on span σ the row is -scale_j t_j, so the
  coefficient rows hold exactly on σ.
- Truncation row j reads scale_j times the sum over I_j of the lengths
  on every ray, and its bound is delta(n, j) scale_j: on σ it says the
  lengths over I_j sum to at most delta(n, j).

So cell(σ) = {v in σ : the lengths over each prefix I_j sum to at most
delta(n, j)}.  That contains Δ ∩ σ, and is contained in it: for t >= 0
and any set S of s factors, the lengths over S sum to
sum_k |S ∩ I_k| t_k <= sum_k min(s, k) t_k, the sum over I_s, which is at
most delta(n, s).  The fan suite's wall certificate shows that the
maximal cones cover the support T exactly once, meeting in common faces
(``selfcheck``'s docstring), and Δ lies in T, so the cells cover Δ and
meet only on their boundaries: they tile it.  Membership
(``NormalComplex.contains``) and ``in_delta`` stay as tier-1's sampled
cross-check of that statement; no command compares them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache, cached_property, lru_cache
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterator, Sequence

from .guards import COUNT_CAP, check_normal_complex
from .fan import Vector, block_slot, place, ray_vector, support_decomposition, support_point
from .lattice import (
    ArrangementSpec,
    Chain,
    DecoratedSubset,
    _Frozen,
    enumerate_decorated_subsets,
    maximal_chains,
)
from .linalg import (
    RowTest,
    SharedRowIndex,
    SparseRow,
    scaled_point,
    tests_hold,
)

FracVec = tuple[Fraction, ...]


def delta(n: int, k: int) -> int:
    """The truncation height: the sum n + (n-1) + ... + (n-k+1)."""
    if not 0 <= k <= n:
        raise ValueError(f"k must be within [0, {n}], got {k}")
    return sum(n - t for t in range(k))


def z_vector(spec: ArrangementSpec) -> dict[DecoratedSubset, int]:
    """Truncation height for every ray, by support size."""
    return {
        d: delta(spec.n, d.size) for d in enumerate_decorated_subsets(spec)
    }


class Polytope(_Frozen):
    """Exact H- and V-representations of one cell, with its chain label.

    Constraints read ``normal * v <= bound`` with the coordinate dot
    product; equalities carving out the cone's span appear as paired
    opposite inequalities.  Each row is stored once, as ``_cell_rows``
    yields it: the test ``(normal, None, bound)`` cleared of denominators,
    the normal kept as its nonzero ``(index, coeff)`` pairs, and the scale
    that clears it.  ``h_rep``, which the record shows, is built on first
    read.
    """

    _fields = ("h_rep", "v_rep", "label")

    def __init__(
        self,
        v_rep: tuple[FracVec, ...],
        label: Chain,
        rows: Sequence[tuple[RowTest, int]],
    ) -> None:
        object.__setattr__(self, "v_rep", v_rep)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_tests", tuple([test for test, _ in rows]))
        object.__setattr__(self, "_scales", tuple([scale for _, scale in rows]))

    @property
    def integer_rows(self) -> Iterator[tuple[RowTest, int]]:
        """Each row as stored, its test ``(pairs, None, bound)`` and the
        scale that clears it: ``h_rep``'s row is ``pairs / scale`` against
        ``bound / scale``.  Cells that repeat a row share its test
        tuple (``_cell_test``)."""
        return zip(self._tests, self._scales)

    @cached_property
    def h_rep(self) -> tuple[tuple[FracVec, Fraction], ...]:
        dim, zero, rows = len(self.v_rep[0]), Fraction(0), []
        for (pairs, _, bound), scale in self.integer_rows:
            row = [zero] * dim
            for f, a in pairs:
                row[f] = Fraction(a, scale)
            rows.append((tuple(row), Fraction(bound, scale)))
        return tuple(rows)

    def contains(self, point: Sequence) -> bool:
        # the origin is a vertex of every cell, so v_rep gives the dimension
        p, scale = scaled_point(point, len(self.v_rep[0]))
        return tests_hold(self._tests, p, scale)


class NormalComplex(_Frozen):
    """The cells of one arrangement.

    Membership scales the point to integers once and asks whether some
    cell's tests all hold, through a ``SharedRowIndex`` over every
    cell: each hyperplane of their rows is evaluated at most once per point.
    """

    _fields = ("spec", "cells")

    def __init__(self, spec: ArrangementSpec, cells: tuple[Polytope, ...]) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "cells", cells)

    @cached_property
    def _cell_index(self) -> SharedRowIndex:
        return SharedRowIndex(self.cells, lambda cell: cell._tests)

    def contains(self, point: Sequence) -> bool:
        """Whether some cell holds the point.  No command calls it; it stays
        as tier-1's sampled cross-check of ``cell_failures``, against
        ``in_delta``."""
        p, scale = scaled_point(point, self.spec.ambient_dim)
        return self._cell_index.first(p, scale) is not None


@cache
def _vertex_lengths(n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Per-level lengths y of every cell vertex, one per set of tight levels,
    as integers over their common denominator lcm(1, ..., n), and that
    denominator.

    A cell is {y_1 >= ... >= y_n >= 0 : y_1 + ... + y_j <= delta(n, j)}, and
    the increments delta(n, j) - delta(n, j-1) = n - j + 1 strictly decrease,
    so the cell is combinatorially a cube: each set T = {t_1 < ... < t_m} of
    tight truncation levels gives one vertex, constant on every block
    (t_{k-1}, t_k] at that block's mean increment and 0 after t_m.  A block
    has at most n levels, so its mean is an integer over the denominator.
    Placed into a cell's blocks (``fan.place``), these integers over it are
    the cell's vertices, and sort like them.
    """
    common = lcm(*range(1, n + 1))
    vertices = []
    for m in range(n + 1):
        for tight in itertools.combinations(range(1, n + 1), m):
            y: list[int] = []
            prev = 0
            for t in tight:
                y += [(delta(n, t) - delta(n, prev)) * (common // (t - prev))] * (t - prev)
                prev = t
            vertices.append(tuple(y + [0] * (n - prev)))
    return tuple(vertices), common


# Where a level's step e_i^b lies, as ``fan.block_slot`` gives it: the
# offset of its factor's block, and the index of its one entry 1, or None
# for residue 0.
_Slot = tuple[int, int | None]


def _level_slots(chain: Chain, spec: ArrangementSpec) -> list[_Slot]:
    """Where the step of each level of a maximal chain lies: the factor i it
    adds, at residue a, steps along e_i^(-a)."""
    slots, before = [], set()
    for prefix in chain.prefixes:
        ((i, a),) = [item for item in prefix.items if item[0] not in before]
        before.add(i)
        slots.append(block_slot(spec, i, -a))
    return slots


@lru_cache(maxsize=8192)
def _cell_test(pairs: tuple[tuple[int, int], ...], bound: int) -> RowTest:
    """The test ``(pairs, None, bound)``.

    Cached so that equal tests share one tuple, as the fan's maximal cones
    share theirs within one pass (``fan._invert_maximal_cones``): the cells
    repeat few rows (995 distinct among the 79,600 of the 200 cells at
    r = 200, n = 1, about 5r at n = 1, so (1000, 1) fits).
    """
    return pairs, None, bound


def _cell_rows(slots: list[_Slot], block: int, n: int) -> list[tuple[RowTest, int]]:
    """Each H-row of a cell as its integer test ``(pairs, None, bound)`` and
    the scale that clears it, in ``cell_polytope``'s row order, placed from
    where the level steps lie.

    A span row has scale 1.  A coefficient or truncation row is
    ``sum sign * u`` over its units u_j = f_j / |f_j|^2, scaled by their
    lcm(|f_j|^2): ``block`` (= r - 1) when one is a residue-0 step, else 1.
    A residue-0 entry is then ``-sign`` and a slot entry ``sign * scale``.
    """
    rows: list[tuple[RowTest, int]] = []
    for off, slot in sorted(slots):
        if slot is None:  # e_f - e_off for each later slot f of the block
            spans = [((off, -1), (f, 1)) for f in range(off + 1, off + block)]
        else:  # e_f for each other slot f
            spans = [((f, 1),) for f in range(off, off + block) if f != slot]
        for pairs in spans:
            rows += [(_cell_test(pairs, 0), 1), (_cell_test(tuple([(f, -a) for f, a in pairs]), 0), 1)]

    def unit_row(units: list[tuple[_Slot, int]], bound: int) -> tuple[RowTest, int]:
        scale = block if any(slot is None for (_, slot), _ in units) else 1
        pairs = []
        for (off, slot), sign in sorted(units):
            if slot is None:
                pairs += [(f, -sign) for f in range(off, off + block)]
            else:
                pairs.append((slot, sign * scale))
        return _cell_test(tuple(pairs), bound * scale), scale

    for j, slot in enumerate(slots):
        rows.append(unit_row([(slot, -1)] + [(s, 1) for s in slots[j + 1 : j + 2]], 0))
    for j in range(len(slots)):
        rows.append(unit_row([(s, 1) for s in slots[: j + 1]], delta(n, j + 1)))
    return rows


def cell_polytope(chain: Chain, spec: ArrangementSpec) -> Polytope:
    """The truncated-cone cell of a maximal chain.

    Level j of the chain adds one factor, so the step f_j = g_j - g_{j-1}
    between consecutive generators is that factor's direction, in its own
    block of coordinates: ``e_b`` at one slot, or ``-(1, ..., 1)`` across
    the block for residue 0.  The steps are pairwise orthogonal.  With
    per-level lengths y_j >= 0 the cell's points are sum_j y_j f_j, and its
    vertices are the closed-form cube corners of ``_vertex_lengths``.

    H-representation groups, all in ambient coordinates:
      * paired equalities pinning v to the span of the cone (absent for
        r=2): ``e_f`` for each other slot f of a block whose step is
        ``e_b``, and ``e_f - e_first`` for each slot but the first of a
        residue-0 block, in slot order (the rows an RREF nullspace of the
        generators gives),
      * one inequality per generator expressing nonnegativity of its cone
        coefficient y_j - y_{j+1}: with u_j = f_j / |f_j|^2, so that
        u_j . f_s = [j = s], the row is -(u_j - u_{j+1}),
      * one truncation  (u_1 + ... + u_j) . v <= delta(n, j)  per flag level.

    Each vertex and row holds at most one step per block, so it is placed
    in integers, every entry at its slot with none summed: a vertex over
    the common denominator of ``_vertex_lengths`` by ``fan.place``,
    a row as its integer test and the scale that clears it
    (``_cell_rows``), stored once; ``Polytope.h_rep`` builds the dense rows
    from them when read.  The vertices sort by those integers, and each
    entry of ``v_rep`` is an integer over their denominator, one
    ``Fraction`` per distinct value.
    """
    if not chain.is_maximal(spec):
        raise ValueError(
            "cells are realized for maximal chains only; shorter chains label "
            "shared faces of the maximal cells"
        )
    block = spec.r - 1
    slots = _level_slots(chain, spec)
    lengths, common = _vertex_lengths(len(slots))
    keys = sorted(place(block, spec.ambient_dim, 0, zip(slots, y)) for y in lengths)
    ratios = {x: Fraction(x, common) for x in set().union(*keys)}
    v_rep = tuple([tuple([ratios[x] for x in key]) for key in keys])
    return Polytope(v_rep, chain, _cell_rows(slots, block, spec.n))


def complex_cells(spec: ArrangementSpec) -> NormalComplex:
    """One cell per maximal chain, in the deterministic chain order."""
    check_normal_complex(spec.num_maximal_chains_upto(COUNT_CAP))
    return NormalComplex(spec, tuple(cell_polytope(c, spec) for c in maximal_chains(spec)))


_LENGTH_ENTRIES = {x: Fraction(x) for x in (-1, 0, 1)}
# a ray reading's fields, and a span row's (_span_row)
_RAY, _NONZERO, _PLACED = itemgetter(0), itemgetter(1), itemgetter(2)
_NEGATIVE, _SLOTS, _LEAD = itemgetter(0), itemgetter(1), itemgetter(2)


def _ray_reading(
    d: DecoratedSubset, spec: ArrangementSpec
) -> tuple[Vector, frozenset[int], frozenset[tuple[int, int | None]], tuple[int, ...], tuple[int, ...]] | None:
    """The ray of a label from ``fan.ray_vector`` and its nonzero slots; the
    (factor, direction) pairs of positive length and each factor's length
    that ``fan.support_decomposition`` reads off it; and the label's
    factors, as indices into those lengths.  None when the ray is off the
    support.

    A ray's entries are 0 or +-1, handed over as three shared ``Fraction``s,
    so a ray of r - 1 entries at n = 1 builds none; an integer vector's
    lengths are integers, kept as their numerators."""
    g = ray_vector(d, spec)
    if _LENGTH_ENTRIES.keys() >= set(g):
        decomp = support_decomposition(list(map(_LENGTH_ENTRIES.__getitem__, g)), spec)
    else:
        decomp = support_decomposition(g, spec)
    if decomp is None:
        return None
    nonzero = frozenset(itertools.compress(range(len(g)), g))
    placed = frozenset([(i, a) for i, (x, a) in enumerate(decomp) if x])
    return g, nonzero, placed, tuple([x.numerator for x, _ in decomp]), tuple([i - 1 for i, _ in d.items])


def _span_row(row: RowTest, dim: int) -> tuple[RowTest, frozenset[int], int, SparseRow] | None:
    """A span row's negative, its slots, its lead (its last slot) and its
    pairs, or None unless it reads ``row . v <= 0`` with nonzero entries at
    slots of the space."""
    pairs, lo, bound = row
    if lo is not None or bound != 0 or not pairs or not all(a and 0 <= f < dim for f, a in pairs):
        return None
    slots = [f for f, _ in pairs]
    return (tuple([(f, -a) for f, a in pairs]), None, 0), frozenset(slots), max(slots), pairs


def _reads(pairs: SparseRow, g: Vector) -> int:
    s = 0
    for f, a in pairs:
        s += a * g[f]
    return s


def cell_failures(complex_: NormalComplex) -> list[Chain]:
    """The chains whose cells are not their maximal cone's part of the
    truncated support, read exactly from each cell's own tests (``_tests``
    and ``_scales``, in ``cell_polytope``'s row order) at the n rays of its
    chain (``fan.ray_vector``).  A cell passes when

    * its span rows come in pairs ``row, -row`` of bound 0 (equalities),
      every one vanishes on every ray, and their distinct leads number
      ``ambient_dim - n``;
    * coefficient row j reads ``-scale * [k = j]`` on ray k, with scale > 0;
    * truncation row j reads, on each ray, ``scale`` times the sum over the
      factors I_j of level j of the lengths ``fan.support_decomposition``
      gives that ray, and its bound is ``delta(n, j) * scale``;
    * each ray's factors lie at the top ray's directions (one chart).

    Why that suffices is in the module docstring.  A span row is read by
    its slots: it vanishes unread on a ray with no nonzero entry there, and
    its lead is one integer.  Each distinct span row is read once (the
    cells share their tests, ``_cell_test``), and each ray once, kept until
    the last cell on it: the r cells at n = 1, about r^2 span rows, cost
    O(r^2) lookups, no product, and one ray of r - 1 entries at a time.
    """
    spec = complex_.spec
    n, dim = spec.n, spec.ambient_dim
    heights = [delta(n, j) for j in range(1, n + 1)]
    # id of a label -> its _ray_reading, dropped after the last cell on it
    readings: dict[int, tuple | None] = {}
    uses = Counter(map(id, itertools.chain.from_iterable([cell.label.prefixes for cell in complex_.cells])))
    # id of a span row -> _span_row, with its negative; the cells keep it alive
    spans: dict[int, tuple] = {}
    in_range: set[int] = set()  # ids of the rows checked to lie in the space

    def rows_hold(rays: list, rows: Sequence[RowTest], scales: Sequence[int]) -> bool:
        """The one-chart, coefficient and truncation conditions: ``rows``
        and ``scales`` are the cell's last 2n, ``rays`` its chain's readings."""
        if not all(map(rays[-1][2].issuperset, map(_PLACED, rays))):
            return False
        for pairs, _, _ in rows:
            if id(pairs) not in in_range:
                if not all(0 <= f < dim for f, _ in pairs):
                    return False
                in_range.add(id(pairs))
        # the products are written out: this is the line's inner loop
        for j in range(n):
            (pairs, lo, bound), scale = rows[j], scales[j]
            if lo is not None or bound != 0 or scale <= 0:
                return False
            for k, g in enumerate(map(_RAY, rays)):
                s = 0
                for f, a in pairs:
                    s += a * g[f]
                if s != (-scale if k == j else 0):
                    return False
        for j in range(n):
            (pairs, lo, bound), scale = rows[n + j], scales[n + j]
            if lo is not None or bound != heights[j] * scale:
                return False
            factors = rays[j][4]
            for g, _, _, lengths, _ in rays:
                s = 0
                for f, a in pairs:
                    s += a * g[f]
                if s != scale * sum(map(lengths.__getitem__, factors)):
                    return False
        return True

    def holds(cell: Polytope, keys: list[int]) -> bool:
        tests, scales = cell._tests, cell._scales
        m = len(tests) - 2 * n
        rays = []
        for key, d in zip(keys, cell.label.prefixes):
            reading = readings.get(key, False)
            if reading is False:
                reading = readings[key] = _ray_reading(d, spec)
            rays.append(reading)
        if m < 0 or m % 2 or len(scales) != len(tests) or len(rays) != n or None in rays:
            return False
        if n and not rows_hold(rays, tests[m:], scales[m:]):
            return False
        # each span row and its partner, which must be its negative: one equality
        span, partners = tests[0:m:2], tests[1:m:2]
        read = list(map(spans.get, map(id, span)))
        if None in read:
            for k, row in enumerate(span):
                if read[k] is None and (found := _span_row(row, dim)) is not None:
                    # kept as the partner itself when equal, so later cells compare by identity
                    negative = partners[k] if partners[k] == found[0] else found[0]
                    read[k] = spans[id(row)] = (negative, *found[1:])
            if None in read:
                return False
        # columns read by itemgetter: a zip(*read) would make one iterator per row
        if tuple(map(_NEGATIVE, read)) != partners or len(set(map(_LEAD, read))) != dim - n:
            return False
        held = frozenset().union(*map(_NONZERO, rays))
        if all(map(held.isdisjoint, map(_SLOTS, read))):
            return True
        # a row is read only on the rays nonzero at one of its slots
        for _, at, _, pairs in read:
            if not held.isdisjoint(at):
                for g, nonzero, _, _, _ in rays:
                    if not nonzero.isdisjoint(at) and _reads(pairs, g):
                        return False
        return True

    failed = []
    for cell in complex_.cells:
        keys = list(map(id, cell.label.prefixes))
        if not holds(cell, keys):
            failed.append(cell.label)
        for key in keys:
            uses[key] -= 1
            if not uses[key]:
                del readings[key]
    return failed


def in_delta(point: Sequence, spec: ArrangementSpec) -> bool:
    """Membership in the truncated support region.

    The point must decompose as nonnegative lengths along one direction per
    factor, and every subset of factors must have total length at most the
    height for its size.  Lengths compare as integers over one denominator.

    It stays as the region the tiling line certifies: tier-1 compares it
    with ``NormalComplex.contains``, and the benchmark's extremes check
    reads the union extremes against it.
    """
    decomp = support_decomposition(point, spec)
    if decomp is None:
        return False
    ratios = [x.as_integer_ratio() for x, _ in decomp]
    common = lcm(*[d for _, d in ratios])
    # the s largest lengths bound the total of every s-subset
    totals = itertools.accumulate(sorted([a * (common // d) for a, d in ratios], reverse=True))
    return all(total <= delta(spec.n, s) * common for s, total in enumerate(totals, start=1))


def union_extreme_points(spec: ArrangementSpec) -> list[FracVec]:
    """Extreme points of the union of the cells, sorted: the permutohedral
    orbit sum_i sigma(i) e_i^(a_i) over the permutations sigma of 1..n and
    the residues a.

    Each orbit point is the vertex of one cell where every level is tight,
    so the normal-complex guard bounds the orbit.  The rest of the union
    averages orbit points: its lengths lie below the permutohedron of
    (1, ..., n), and a factor's r residues average to 0.  ``check`` compares
    the orbit with ``linalg.extreme_points`` over the cells' vertices.
    """
    check_normal_complex(spec.num_maximal_chains_upto(COUNT_CAP))
    lengths = [Fraction(k) for k in range(1, spec.n + 1)]
    return sorted(
        support_point(spec, zip(sigma, residues))
        for sigma in itertools.permutations(lengths)
        for residues in itertools.product(range(spec.r), repeat=spec.n)
    )
