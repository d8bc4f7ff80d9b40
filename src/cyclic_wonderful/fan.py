"""The nested-set fan over integer lattice coordinates.

Ambient space.  Each line factor contributes a copy of R^r modulo its
diagonal.  Coordinates eliminate the 0-th basis image per factor, so the
lattice is Z^(n*(r-1)) with basis images

    e_i^j  ->  unit vector at slot (i, j)          for j in 1..r-1,
    e_i^0  ->  (-1, ..., -1) in factor i's block.

Rays.  The decorated subset (I, a) gives the primitive integer vector
u = sum_{i in I} e_i^(-a(i) mod r); a chain contributes one ray per decorated
prefix and those rays span a simplicial cone whose dimension is the chain
length.

Two constructions are provided: the direct one (one cone per nested set) and
the stellar route, which starts from the product of the n one-dimensional
factor fans and subdivides at the non-singleton ray vectors in an
inclusion-increasing order.  They must agree cone-for-cone, and the test
suite checks that they do.

Cone coordinates are exact and integer.  Each cone caches, on first use, an
invertible k x k minor M of its generator matrix and the integer matrix
delta * M^-1 from fraction-free (Bareiss) elimination, so membership of a
rational point is a few integer dot products.  Nothing assumes the cone is
unimodular: any simplicial cone works.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Mapping, NamedTuple, Sequence

from .guards import check_fan_size
from .lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    DecoratedSubset,
    enumerate_chains,
    is_nested,
    validate_subset,
)
from .linalg import combine, matrix_rank, scaled_point, smith_divisors

Vector = tuple[int, ...]


def basis_labels(spec: ArrangementSpec) -> list[str]:
    """Names of the ambient coordinates, ``e_i^j`` with j in 1..r-1."""
    return [f"e_{i}^{j}" for i in range(1, spec.n + 1) for j in range(1, spec.r - 1 + 1)]


def basis_image(spec: ArrangementSpec, i: int, a: int) -> Vector:
    """Integer coordinates of the image of e_i^a, for any residue a in Z_r."""
    if not 1 <= i <= spec.n:
        raise ValueError(f"factor index {i} outside [1, {spec.n}]")
    a %= spec.r
    block = spec.r - 1
    vec = [0] * spec.ambient_dim
    off = (i - 1) * block
    if a == 0:
        for j in range(block):
            vec[off + j] = -1
    else:
        vec[off + a - 1] = 1
    return tuple(vec)


def ray_vector(d: DecoratedSubset, spec: ArrangementSpec) -> Vector:
    """Primitive generator of the ray labelled by a nonempty decorated subset."""
    if d.size == 0:
        raise ValueError("the empty decorated subset has no ray")
    validate_subset(d, spec)
    vec = combine(
        [1] * d.size, [basis_image(spec, i, -a) for i, a in d.items], spec.ambient_dim
    )
    # entries are 0 or +-1 with at least one nonzero, hence already primitive
    assert _vector_gcd(vec) == 1
    return vec


def _vector_gcd(vec: Iterable[int]) -> int:
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g


def _gauss_jordan(m: list[list[int]], k: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) through the first k
    columns of the integer matrix m, in place, with row swaps.

    Every division is exact, since each entry stays a minor of the input.
    Returns the original index of the row now at each position, and the last
    pivot delta: rows 0..k-1 end with delta times the identity in the first
    k columns.  Raises ValueError when those columns are dependent.
    """
    order = list(range(len(m)))
    prev = 1
    for c in range(k):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            raise ValueError("columns are linearly dependent")
        m[c], m[p] = m[p], m[c]
        order[c], order[p] = order[p], order[c]
        piv = m[c]
        pv = piv[c]
        for i, row in enumerate(m):
            if i != c:
                f = row[c]
                m[i] = [(pv * x - f * y) // prev for x, y in zip(row, piv)]
        prev = pv
    return order, prev


class _Inverse(NamedTuple):
    """An exact integer inverse of a cone's generator matrix A (rays as columns).

    ``rows`` picks k ambient rows whose k x k minor M of A is invertible and
    ``adj = delta * M^-1`` with ``delta > 0``.
    """

    rows: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]
    delta: int


@dataclass(frozen=True)
class Cone:
    """A simplicial cone: primitive ray generators plus its nested-set label."""

    rays: tuple[Vector, ...]
    label: tuple[DecoratedSubset, ...]

    @property
    def dim(self) -> int:
        return len(self.rays)

    def chain(self) -> Chain:
        """The label as a chain: every cone's label is the prefix set of one."""
        return Chain.from_prefixes(self.label)

    def contains(self, point: Sequence) -> bool:
        return self.coefficients(point) is not None

    @cached_property
    def _inverse(self) -> _Inverse:
        """Computed on first use, so cones a scan never tries cost nothing."""
        k = len(self.rays)
        a = [list(row) for row in zip(*self.rays)]
        order, _ = _gauss_jordan([row[:] for row in a], k)
        rows = tuple(order[:k])
        m = [a[i] + [int(i == j) for j in rows] for i in rows]
        _, delta = _gauss_jordan(m, k)
        sign = 1 if delta > 0 else -1
        adj = tuple(tuple(sign * x for x in row[k:]) for row in m[:k])
        return _Inverse(rows, adj, sign * delta)

    def _scaled_coefficients(self, p: Vector) -> list[int] | None:
        """Cone coordinates times ``delta * D`` of the point ``p / D``.

        ``p`` is an integer vector of the right length.  Returns None unless
        the coordinates are nonnegative and reproduce the point exactly.
        """
        rows, adj, delta = self._inverse
        ps = [p[i] for i in rows]
        c = [sum(x * y for x, y in zip(row, ps)) for row in adj]
        if any(x < 0 for x in c):
            return None
        residual = [delta * x for x in p]
        for cj, ray in zip(c, self.rays):
            if cj:
                residual = [x - cj * y for x, y in zip(residual, ray)]
        return None if any(residual) else c

    def coefficients(self, point: Sequence) -> list[Fraction] | None:
        """Nonnegative cone coordinates of a rational point, if it lies here.

        Exact integer arithmetic for any simplicial cone, unimodular or not:
        with ``D`` the lcm of the point's denominators and the cached
        ``adj = delta * M^-1`` of an invertible k x k minor M of the rays,
        ``c`` is ``adj`` applied to the entries of ``D * point`` in M's rows.
        The point lies in the cone exactly when ``c >= 0`` and
        ``sum_j c_j ray_j`` equals ``delta * D * point``; the coordinates are
        then ``c_j / (delta * D)``.  Raises ValueError when the cone has rays
        and the point's length differs from theirs, or when the rays are
        linearly dependent.
        """
        if not self.rays:
            return [] if all(Fraction(x) == 0 for x in point) else None
        p, scale = scaled_point(point, len(self.rays[0]))
        c = self._scaled_coefficients(p)
        if c is None:
            return None
        scale *= self._inverse.delta
        return [Fraction(x, scale) for x in c]


@dataclass(frozen=True, eq=False)
class Fan:
    """An immutable fan: a ray per decorated subset, one cone per chain.

    Cones are keyed by their label, the set of the chain's decorated
    prefixes.
    """

    spec: ArrangementSpec
    rays: dict[DecoratedSubset, Vector]
    cones: dict[frozenset[DecoratedSubset], Cone]

    def cone(self, label: Chain | Iterable[DecoratedSubset]) -> Cone:
        key = frozenset(label.prefixes()) if isinstance(label, Chain) else frozenset(label)
        return self.cones[key]

    @cached_property
    def maximal_cones(self) -> tuple[Cone, ...]:
        """The cones with n-element labels: these fans are pure of dimension n."""
        maximal = [k for k in self.cones if len(k) == self.spec.n]
        maximal.sort(key=lambda k: sorted(d.sort_key() for d in k))
        return tuple(self.cones[k] for k in maximal)


def _make_cone(label: Iterable[DecoratedSubset], rays: Mapping[DecoratedSubset, Vector]) -> Cone:
    ordered = tuple(sorted(label, key=DecoratedSubset.sort_key))
    return Cone(tuple(rays[d] for d in ordered), ordered)


def _check_maximal(spec: ArrangementSpec, g: BuildingSet) -> None:
    if g.spec != spec or not g.is_maximal:
        raise ValueError(
            "fans are built from the maximal building set of the same spec only"
        )


def build_fan(spec: ArrangementSpec, g: BuildingSet) -> Fan:
    """One cone per decorated chain, the nested sets of the maximal g."""
    _check_maximal(spec, g)
    check_fan_size(len(g.elements), spec.num_maximal_chains)
    rays = {d: ray_vector(d, spec) for d in g.sorted_elements()}
    labels = [frozenset(chain.prefixes()) for chain in enumerate_chains(spec, spec.n)]
    cones = {label: _make_cone(label, rays) for label in labels}
    return Fan(spec, rays, cones)


def _star_subdivide(
    cones: set[frozenset[DecoratedSubset]],
    rays: Mapping[DecoratedSubset, Vector],
    new_label: DecoratedSubset,
    v: Vector,
) -> set[frozenset[DecoratedSubset]]:
    """Stellar subdivision at v, which must lie in the relative interior of
    a unique existing cone tau.  Cones containing tau are replaced by joins
    of the new ray with their faces not containing tau."""
    tau = None
    for s in cones:
        if not s:
            continue
        cone = _make_cone(s, rays)
        coeffs = cone.coefficients(v)
        if coeffs is not None and all(c > 0 for c in coeffs):
            tau = s
            break
    if tau is None:
        raise ValueError("subdivision vector lies outside the fan support")
    out = {s for s in cones if not tau <= s}
    for s in cones:
        if tau <= s:
            continue
        if (s | tau) in cones:
            out.add(s | {new_label})
    return out


def build_fan_stellar(spec: ArrangementSpec, g: BuildingSet) -> Fan:
    """Stellar-subdivision construction of the same fan.

    Starts from the product of the factor fans (all cones with at most one
    singleton ray per factor) and subdivides at the ray vector of every
    non-singleton element, ordered by increasing inclusion of the loci the
    elements cut out: deepest intersections first, so support size runs
    downward (ties broken by the global deterministic order).  A final pass
    discards any cone whose label set fails nestedness; with this order the
    pass is a safety net and removes nothing.
    """
    _check_maximal(spec, g)
    check_fan_size(len(g.elements), spec.num_maximal_chains)
    singles = BuildingSet.singletons(spec).elements
    rays: dict[DecoratedSubset, Vector] = {
        d: ray_vector(d, spec) for d in sorted(singles, key=DecoratedSubset.sort_key)
    }
    # product fan: at most one singleton ray per factor
    per_factor: list[list[DecoratedSubset | None]] = [
        [None] + [DecoratedSubset(((i, a),)) for a in range(spec.r)]
        for i in range(1, spec.n + 1)
    ]
    cones: set[frozenset[DecoratedSubset]] = set()
    for combo in itertools.product(*per_factor):
        cones.add(frozenset(d for d in combo if d is not None))
    # larger supports cut out smaller loci, which must be subdivided first
    for d in sorted(g.elements - singles, key=lambda x: (-x.size, x.items)):
        v = ray_vector(d, spec)
        cones = _star_subdivide(cones, rays, d, v)
        rays[d] = v
    kept = {s for s in cones if is_nested(s, g)}
    cone_map = {s: _make_cone(s, rays) for s in kept}
    used = {d for s in kept for d in s}
    ray_map = {d: rays[d] for d in sorted(used, key=DecoratedSubset.sort_key)}
    return Fan(spec, ray_map, cone_map)


def fans_equal(f1: Fan, f2: Fan) -> bool:
    """Equality as sets of cones, each cone taken as its set of generators."""
    if f1.spec != f2.spec:
        raise ValueError("fans live over different parameters")
    set1 = {frozenset(c.rays) for c in f1.cones.values()}
    set2 = {frozenset(c.rays) for c in f2.cones.values()}
    return set1 == set2


def locate_point(fan: Fan, point: Sequence) -> Chain | None:
    """The chain whose cone's relative interior contains the point.

    Scans the maximal cones with the exact integer membership test of
    ``Cone.coefficients`` (the point is scaled to integers once), which works
    for any simplicial cone; the located chain keeps exactly the generators
    with strictly positive coefficients.  Returns None when the point is
    outside the fan's support.
    """
    p, _ = scaled_point(point, fan.spec.ambient_dim)
    for cone in fan.maximal_cones:
        coeffs = cone._scaled_coefficients(p)
        if coeffs is None:
            continue
        support = [d for d, c in zip(cone.label, coeffs) if c > 0]
        return Chain.from_prefixes(support)
    return None


def is_smooth_cone(cone: Cone) -> bool:
    """Whether the generators extend to a basis of the ambient lattice.

    Computed as all Smith-form elementary divisors of the generator matrix
    being 1 (rank deficiency shows up as a zero divisor).
    """
    if not cone.rays:
        return True
    divisors = smith_divisors([list(v) for v in cone.rays])
    return len(divisors) == len(cone.rays) and all(d == 1 for d in divisors)


def cone_dim(cone: Cone) -> int:
    if not cone.rays:
        return 0
    return matrix_rank([list(v) for v in cone.rays])


def support_decomposition(
    point: Sequence, spec: ArrangementSpec
) -> list[tuple[Fraction, int | None]] | None:
    """Per-factor lengths and directions of a point of the fan's support.

    A point lies in the support exactly when each factor block is a
    nonnegative multiple x_i of a single basis image e_i^(a_i).  Returns the
    list of (x_i, a_i) pairs with a_i = None when x_i = 0, or None when some
    block has the wrong shape.
    """
    point = tuple(Fraction(x) for x in point)
    if len(point) != spec.ambient_dim:
        raise ValueError(
            f"point has length {len(point)}, expected {spec.ambient_dim}"
        )
    block = spec.r - 1
    out: list[tuple[Fraction, int | None]] = []
    for i in range(spec.n):
        coords = point[i * block : (i + 1) * block]
        nonzero = [(j, x) for j, x in enumerate(coords, start=1) if x != 0]
        if not nonzero:
            out.append((Fraction(0), None))
        elif len(nonzero) == 1 and nonzero[0][1] > 0:
            out.append((nonzero[0][1], nonzero[0][0]))
        elif len(nonzero) == block and all(x == coords[0] for x in coords) and coords[0] < 0:
            out.append((-coords[0], 0))
        else:
            return None
    return out
