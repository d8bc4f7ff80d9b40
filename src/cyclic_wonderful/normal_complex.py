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
shared boundaries of those.  Vertex enumeration happens in the cone's own
coefficient space, where the cone is the nonnegative orthant, and only then
maps to ambient coordinates.

Membership is integer arithmetic: each cell caches its H-rows cleared of
denominators, and a rational point p / D (p integer, D > 0) satisfies
``normal . v <= bound`` exactly when ``normal_int . p <= bound_int * D``.
The tiling check in ``check`` compares this with ``in_delta`` (subset sums
of the support decomposition), a route that shares none of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .guards import check_hull_points, check_normal_complex
from .fan import ray_vector, support_decomposition
from .lattice import (
    ArrangementSpec,
    Chain,
    DecoratedSubset,
    enumerate_decorated_subsets,
    maximal_chains,
)
from .linalg import (
    combine,
    dot,
    extreme_points,
    integer_scaled,
    nullspace,
    scaled_point,
    solve_columns,
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


@dataclass(frozen=True, eq=False)
class Polytope:
    """Exact H- and V-representations of one cell, with its chain label.

    Constraints read ``normal * v <= bound`` with the coordinate dot
    product; equalities carving out the cone's span appear as paired
    opposite inequalities.
    """

    h_rep: tuple[tuple[FracVec, Fraction], ...]
    v_rep: tuple[FracVec, ...]
    label: Chain

    @cached_property
    def _integer_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each H-row as ``(normal, bound)`` times the lcm of its denominators."""
        rows = []
        for normal, bound in self.h_rep:
            (row,), _ = integer_scaled([(*normal, bound)])
            rows.append((row[:-1], row[-1]))
        return tuple(rows)

    def _holds(self, p: tuple[int, ...], scale: int) -> bool:
        """Membership of ``p / scale``, with p an integer vector, scale > 0."""
        return all(
            sum(a * x for a, x in zip(normal, p)) <= bound * scale
            for normal, bound in self._integer_rows
        )

    def contains(self, point: Sequence) -> bool:
        # the origin is a vertex of every cell, so v_rep gives the dimension
        p, scale = scaled_point(point, len(self.v_rep[0]))
        return self._holds(p, scale)


@dataclass(frozen=True, eq=False)
class NormalComplex:
    """The cells of one arrangement.

    Membership scales the point to integers once and tests every cell's
    cached integer H-rows with integer dot products.
    """

    spec: ArrangementSpec
    cells: tuple[Polytope, ...]

    def contains(self, point: Sequence) -> bool:
        p, scale = scaled_point(point, self.spec.ambient_dim)
        return any(cell._holds(p, scale) for cell in self.cells)


def _orthant_polytope_vertices(
    gram: list[list[Fraction]], bounds: list[Fraction]
) -> list[FracVec]:
    """Vertices of {c >= 0 : gram c <= bounds} by exhausting constraint bases.

    The dimension here is the chain length (n at most 3 under the guard), so
    trying every n-subset of the 2n constraints is cheap and exact.
    """
    n = len(bounds)
    if n == 0:
        return [()]
    rows: list[tuple[FracVec, Fraction]] = []
    for j in range(n):
        normal = tuple(Fraction(-1) if t == j else Fraction(0) for t in range(n))
        rows.append((normal, Fraction(0)))  # -c_j <= 0
    for j in range(n):
        rows.append((tuple(gram[j]), bounds[j]))
    vertices: set[FracVec] = set()
    for subset in itertools.combinations(range(len(rows)), n):
        cols = [
            tuple(rows[k][0][t] for k in subset) for t in range(n)
        ]
        target = [rows[k][1] for k in subset]
        try:
            sol = solve_columns(cols, target)
        except ValueError:
            continue  # singular basis
        if sol is None:
            continue
        point = tuple(sol)
        if all(dot(normal, point) <= bound for normal, bound in rows):
            vertices.add(point)
    return sorted(vertices)


def cell_polytope(chain: Chain, spec: ArrangementSpec) -> Polytope:
    """The truncated-cone cell of a maximal chain.

    H-representation groups, all in ambient coordinates:
      * paired equalities pinning v to the span of the cone (absent for r=2),
      * one inequality per generator expressing nonnegativity of the cone
        coefficient (via the dual basis of the generators inside the span),
      * one truncation  v * u_j <= z_j  per flag level.
    """
    if not chain.is_maximal(spec):
        raise ValueError(
            "cells are realized for maximal chains only; shorter chains label "
            "shared faces of the maximal cells"
        )
    check_normal_complex(spec.n, spec.num_maximal_chains)
    gens = [ray_vector(p, spec) for p in chain.prefixes()]
    n = len(gens)
    bounds = [Fraction(delta(spec.n, len(s))) for s in chain.sets]
    # in cone coordinates c, the subset-sum of level j is
    # sum_s |I_j /\ I_s| c_s, since factor i contributes to c_s iff i is in I_s
    overlap = [
        [Fraction(len(set(chain.sets[j]) & set(chain.sets[s]))) for s in range(n)]
        for j in range(n)
    ]
    c_vertices = _orthant_polytope_vertices(overlap, bounds)
    dim, zero = spec.ambient_dim, Fraction(0)
    ambient = [combine(c, gens, dim, zero) for c in c_vertices]

    h_rep: list[tuple[FracVec, Fraction]] = []
    for w in nullspace(gens):
        h_rep.append((w, Fraction(0)))
        h_rep.append((tuple(-x for x in w), Fraction(0)))
    # dual functionals: duals[j] . v recovers the coefficient c_j on the span
    gram = [[Fraction(dot(gi, gj)) for gj in gens] for gi in gens]
    duals: list[FracVec] = []
    for j in range(n):
        ej = [Fraction(1) if t == j else Fraction(0) for t in range(n)]
        coeffs = solve_columns([tuple(col) for col in zip(*gram)], ej)
        assert coeffs is not None
        duals.append(combine(coeffs, gens, dim, zero))
        h_rep.append((tuple(-x for x in duals[j]), Fraction(0)))
    for j in range(n):
        h_rep.append((combine(overlap[j], duals, dim, zero), bounds[j]))
    return Polytope(tuple(h_rep), tuple(sorted(ambient)), chain)


def complex_cells(spec: ArrangementSpec) -> NormalComplex:
    """One cell per maximal chain, in the deterministic chain order."""
    check_normal_complex(spec.n, spec.num_maximal_chains)
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
    lengths = [x for x, _ in decomp]
    for size in range(1, spec.n + 1):
        for subset in itertools.combinations(range(spec.n), size):
            if sum(lengths[i] for i in subset) > delta(spec.n, size):
                return False
    return True


def union_extreme_points(
    spec: ArrangementSpec, complex_: NormalComplex | None = None
) -> list[FracVec]:
    """Extreme points of the convex hull of all cell vertices.

    Pass ``complex_`` when the complex of ``spec`` is already built.  The
    vertex count is guarded before any LP runs.
    """
    if complex_ is None:
        complex_ = complex_cells(spec)
    points = {v for cell in complex_.cells for v in cell.v_rep}
    check_hull_points(len(points))
    return extreme_points(points)
