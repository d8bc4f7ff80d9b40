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
from them on first read, and only the JSON output reads it (at n = 1 the
r cells hold O(r^2) references to about 5r distinct tests, their dense
rows r^3 entries).
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
The tiling check in ``check`` compares this with ``in_delta`` (subset sums
of the support decomposition), a route that shares none of it.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, lru_cache
from fractions import Fraction
from math import lcm
from typing import Sequence

from .guards import COUNT_CAP, check_normal_complex
from .fan import block_slot, place, support_decomposition, support_point
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

    @cached_property
    def h_rep(self) -> tuple[tuple[FracVec, Fraction], ...]:
        dim, zero, rows = len(self.v_rep[0]), Fraction(0), []
        for (pairs, _, bound), scale in zip(self._tests, self._scales):
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

    Cached so that equal tests share one tuple, as ``fan._row_test`` does
    for the cones: the cells repeat few rows (995 distinct among the 79,600
    of the 200 cells at r = 200, n = 1, about 5r at n = 1, so (1000, 1)
    fits).
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
    ratios = {x: Fraction(x, common) for key in keys for x in key}
    v_rep = tuple([tuple([ratios[x] for x in key]) for key in keys])
    return Polytope(v_rep, chain, _cell_rows(slots, block, spec.n))


def complex_cells(spec: ArrangementSpec) -> NormalComplex:
    """One cell per maximal chain, in the deterministic chain order."""
    check_normal_complex(spec.num_maximal_chains_upto(COUNT_CAP))
    return NormalComplex(spec, tuple(cell_polytope(c, spec) for c in maximal_chains(spec)))


def in_delta(point: Sequence, spec: ArrangementSpec) -> bool:
    """Membership in the truncated support region.

    The point must decompose as nonnegative lengths along one direction per
    factor, and every subset of factors must have total length at most the
    height for its size.  Lengths compare as integers over one denominator.
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
