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
shared boundaries of those.  A cell's vertices and all but its span rows
are closed forms.  The steps between consecutive generators of a chain lie
in distinct factor blocks, so they are orthogonal: the dual rows that read
off the cone coefficients are differences of the steps scaled by their
squared norms, with no solve.  In per-level lengths every cell is the same
polytope, combinatorially a cube, whose 2^n vertices depend on n only and
are computed once.  The span rows come from ``linalg.nullspace``, one
rational RREF per cell.

Membership is integer arithmetic: each cell caches its H-rows cleared of
denominators as ``linalg.RowTest`` tests ``(normal, None, bound)``, each
normal kept as its nonzero (index, coeff) pairs, and a rational point p / D
(p integer, D > 0) satisfies ``normal . v <= bound`` exactly when
``normal_int . p <= bound_int * D``.  One cell's membership test is
``linalg.tests_hold``, which stops at its first violated row.  The cells
repeat their rows (253 distinct among the 6,912 H-rows at r = 4, n = 3),
so membership in the complex goes through a ``linalg.SharedRowIndex`` over
the cells' tests: each distinct row is evaluated once per point, and a
bitmask per row drops every cell it violates.  The index reads only the
cells' own rows, not the point's chain.
The tiling check in ``check`` compares this with ``in_delta`` (subset sums
of the support decomposition), a route that shares none of it.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from fractions import Fraction
from typing import Sequence

from .guards import COUNT_CAP, check_normal_complex
from .fan import basis_image, ray_vector, support_decomposition
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
    combine,
    integer_scaled,
    nullspace,
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
    opposite inequalities.
    """

    _fields = ("h_rep", "v_rep", "label")

    def __init__(
        self, h_rep: tuple[tuple[FracVec, Fraction], ...], v_rep: tuple[FracVec, ...], label: Chain
    ) -> None:
        object.__setattr__(self, "h_rep", h_rep)
        object.__setattr__(self, "v_rep", v_rep)
        object.__setattr__(self, "label", label)

    @cached_property
    def _tests(self) -> tuple[RowTest, ...]:
        """Each H-row times the lcm of its denominators, as the test
        ``(normal, None, bound)`` with the normal kept as its nonzero
        ``(index, coeff)`` pairs."""
        tests = []
        for normal, bound in self.h_rep:
            (row,), _ = integer_scaled([(*normal, bound)])
            tests.append((tuple((i, a) for i, a in enumerate(row[:-1]) if a), None, row[-1]))
        return tuple(tests)

    def contains(self, point: Sequence) -> bool:
        # the origin is a vertex of every cell, so v_rep gives the dimension
        p, scale = scaled_point(point, len(self.v_rep[0]))
        return tests_hold(self._tests, p, scale)


class NormalComplex(_Frozen):
    """The cells of one arrangement.

    Membership scales the point to integers once and asks whether some
    cell's cached tests all hold, through a ``SharedRowIndex`` over every
    cell: each distinct row is evaluated at most once per point.
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
def _vertex_lengths(n: int) -> tuple[FracVec, ...]:
    """Per-level lengths y of every cell vertex, one per set of tight levels.

    A cell is {y_1 >= ... >= y_n >= 0 : y_1 + ... + y_j <= delta(n, j)}, and
    the increments delta(n, j) - delta(n, j-1) = n - j + 1 strictly decrease,
    so the cell is combinatorially a cube: each set T = {t_1 < ... < t_m} of
    tight truncation levels gives one vertex, constant on every block
    (t_{k-1}, t_k] at that block's mean increment and 0 after t_m.
    """
    vertices = []
    for m in range(n + 1):
        for tight in itertools.combinations(range(1, n + 1), m):
            y: list[Fraction] = []
            prev = 0
            for t in tight:
                y += [Fraction(delta(n, t) - delta(n, prev), t - prev)] * (t - prev)
                prev = t
            vertices.append(tuple(y + [Fraction(0)] * (n - prev)))
    return tuple(vertices)


def cell_polytope(chain: Chain, spec: ArrangementSpec) -> Polytope:
    """The truncated-cone cell of a maximal chain.

    Level j of the chain adds one factor, so the step f_j = g_j - g_{j-1}
    between consecutive generators is that factor's direction, in its own
    block of coordinates: the steps are pairwise orthogonal.  With per-level
    lengths y_j >= 0 the cell's points are sum_j y_j f_j, and its vertices
    are the closed-form cube corners of ``_vertex_lengths``.

    H-representation groups, all in ambient coordinates:
      * paired equalities pinning v to the span of the cone (absent for r=2),
      * one inequality per generator expressing nonnegativity of its cone
        coefficient y_j - y_{j+1}: with u_j = f_j / |f_j|^2, so that
        u_j . f_s = [j = s], the row is -(u_j - u_{j+1}),
      * one truncation  (u_1 + ... + u_j) . v <= delta(n, j)  per flag level.
    """
    if not chain.is_maximal(spec):
        raise ValueError(
            "cells are realized for maximal chains only; shorter chains label "
            "shared faces of the maximal cells"
        )
    gens = [ray_vector(p, spec) for p in chain.prefixes]
    n = len(gens)
    dim, zero = spec.ambient_dim, Fraction(0)
    steps = [
        tuple(a - b for a, b in zip(g, prev))
        for prev, g in zip([(0,) * dim, *gens], gens)
    ]
    ambient = [combine(y, steps, dim, zero) for y in _vertex_lengths(n)]

    h_rep: list[tuple[FracVec, Fraction]] = []
    for w in nullspace(gens):
        h_rep.append((w, zero))
        h_rep.append((combine([-1], [w], dim, zero), zero))
    units = [combine([Fraction(1, sum(x * x for x in f))], [f], dim, zero) for f in steps]
    for j in range(n):
        h_rep.append((combine([-1, 1], units[j : j + 2], dim, zero), zero))
    for j in range(n):
        h_rep.append((combine([1] * (j + 1), units, dim, zero), Fraction(delta(spec.n, j + 1))))
    return Polytope(tuple(h_rep), tuple(sorted(ambient)), chain)


def complex_cells(spec: ArrangementSpec) -> NormalComplex:
    """One cell per maximal chain, in the deterministic chain order."""
    check_normal_complex(spec.num_maximal_chains_upto(COUNT_CAP))
    chains = sorted(maximal_chains(spec), key=Chain.sort_key)
    return NormalComplex(spec, tuple(cell_polytope(c, spec) for c in chains))


def in_delta(point: Sequence, spec: ArrangementSpec) -> bool:
    """Membership in the truncated support region.

    The point must decompose as nonnegative lengths along one direction per
    factor, and every subset of factors must have total length at most the
    height for its size.
    """
    decomp = support_decomposition(point, spec)
    if decomp is None:
        return False
    # the s largest lengths bound the total of every s-subset
    totals = itertools.accumulate(sorted((x for x, _ in decomp), reverse=True))
    return all(total <= delta(spec.n, size) for size, total in enumerate(totals, start=1))


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
    n, dim = spec.n, spec.ambient_dim
    images = [[basis_image(spec, i, a) for a in range(spec.r)] for i in range(1, n + 1)]
    return sorted(
        combine(sigma, [block[a] for block, a in zip(images, residues)], dim, Fraction(0))
        for sigma in itertools.permutations(range(1, n + 1))
        for residues in itertools.product(range(spec.r), repeat=n)
    )
