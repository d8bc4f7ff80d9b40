"""The nested-set fan over integer lattice coordinates.

Ambient space.  Each line factor contributes a copy of R^r modulo its
diagonal.  Coordinates eliminate the 0-th basis image per factor, so the
lattice is Z^(n*(r-1)) with basis images

    e_i^j  ->  unit vector at slot (i, j)          for j in 1..r-1,
    e_i^0  ->  (-1, ..., -1) in factor i's block.

``block_slot`` maps (i, a) to where e_i^a lies, and ``place`` writes a
vector of one multiple of e_i^a per factor there: the rays, the support
points (curves' embeddings, sampled points, the union's extreme points)
and the normal cells' vertices.

Rays.  The decorated subset (I, a) gives the primitive integer vector
u = sum_{i in I} e_i^(-a(i) mod r); a chain contributes one ray per decorated
prefix and those rays span a simplicial cone whose dimension is the chain
length.

Two constructions are provided: the direct one (one cone per decorated chain,
the nested sets of the maximal building set) and the stellar route, which
starts from the product of the n one-dimensional factor fans, whose rays are
the singletons, and subdivides at the non-singleton ray vectors in an
inclusion-increasing order.  Each subdivision's cone is known without a
search: the ray of (I, a) is the sum of the singleton rays (i, a(i)), and
that singleton cone survives until (I, a) is processed, since only smaller
decorated subsets (processed later) could subdivide it.  A map from each
label to the cones holding it gives that cone's star as an intersection of
sets, so a subdivision visits only the cones it replaces: 135 in all for
the 54 subdivisions at r = 3, n = 3, where a scan per subdivision read
12,744.  The two routes must agree cone-for-cone, and the test suite checks
that they do.

A ``Fan`` holds its maximal cones, one per length-n chain (the n! r^n
decorated complete flags), and builds the others, their faces, when
``Fan.cones`` is first read, a table that then holds each cone once.  The
direct route builds the ray table and the maximal cones up front and leaves
the faces to that read, so a scan, which reads only ``maximal_cones``, never
enumerates a face: they are 2,198 of the 3,128 cones at (3,3), (4,3) and
(2,4) together.  The stellar route builds every cone as it goes and hands
its faces over as they are.

Cone coordinates are exact and integer.  Each cone holds the result of a
fraction-free (Bareiss) Gauss-Jordan elimination through the ray columns
of [A | I], A the rays as columns: dim - k span-check rows, a basis of A's
left kernel, and k coefficient rows, delta times a left inverse of A, every
row, the identity's too, kept as its nonzero (index, coeff) pairs, so a
one-ray cone at n = 1 costs order r, not r^2.  The elimination takes the
columns in ray order, so its state after the first j rays is shared by
every cone whose chain starts with the same j prefixes.  A fan's maximal
cones get their eliminations in one pass over them all
(``_invert_maximal_cones``), the first time the fan's index or the fan
suite's walls need them: each distinct prefix's state is computed once,
found by the identity of its rays, and each cone runs only the step of its
last ray; no state outlives the pass, and labels only decide when a state
is dropped.  A full cold scan of the 162 maximal cones at r = 3, n = 3
takes 225 steps (one per cone plus one per distinct proper prefix) against
486 for a full pass per cone.  Any other cone, a face or a one-off cone,
runs its own full pass from the identity on first use.  A step negates a
pivot row whose pivot is negative, so on these unimodular fans every pivot
is 1, and a step keeps each row its ray does not meet and subtracts the
pivot row from the others with no multiply or division: the 225 steps
build 366 row tuples, not 519.  The rows are the cone's ``linalg.RowTest``
tests, span-check rows ``(row, 0, 0)`` (the row vanishes on the point)
first and coefficient rows ``(row, 0, None)`` (a nonnegative coordinate)
after, so one cone's membership test of a rational point scaled to
integers is ``linalg.tests_hold``, which stops at the first test the point
fails.  Nothing assumes the cone is unimodular.

The maximal cones repeat these rows heavily: at r = 4, n = 3 the 384 of
them hold 3,456 rows, of which 114 are distinct (19 as span-check rows, 104
as coefficient rows, 9 as both), and many of those are one another's
negatives: they lie on 66 hyperplanes.  The scan ``locate_point`` asks the
fan's ``linalg.SharedRowIndex``, built from every maximal cone, for the
first cone that holds the point: each hyperplane is evaluated once per
point.  The ``locate`` command does not scan: ``in_relative_interior``
certifies the chain of the point's tropical curve on that chain's own cone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .guards import check_fan_spec
from .lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    DecoratedSubset,
    _Frozen,
    _Value,
    _chains_of_length,
    _subset_table,
    validate_subset,
)
from .linalg import (
    RowTest,
    SharedRowIndex,
    SparseRow,
    lattice_pivots,
    scaled_point,
    tests_hold,
)

Vector = tuple[int, ...]


def basis_labels(spec: ArrangementSpec) -> list[str]:
    """Names of the ambient coordinates, ``e_i^j`` with j in 1..r-1."""
    return [f"e_{i}^{j}" for i in range(1, spec.n + 1) for j in range(1, spec.r - 1 + 1)]


def block_slot(spec: ArrangementSpec, i: int, a: int) -> tuple[int, int | None]:
    """Where e_i^a lies: the offset of factor i's block of r - 1 coordinates,
    and the index of its one entry 1, or None for residue 0, whose image is
    -1 across the whole block.  The one map from (i, a) to the layout;
    ``place`` writes what it gives."""
    off = (i - 1) * (spec.r - 1)
    a %= spec.r
    return off, off + a - 1 if a else None


def place(
    block: int, dim: int, zero: object, placed: Iterable[tuple[tuple[int, int | None], object]]
) -> list:
    """The vector sum x e_i^a of one multiple per factor, from where each
    e_i^a lies (``block_slot``): x at its slot, or -x across a residue-0
    block of ``block`` coordinates, and ``zero`` elsewhere.  Rays, support
    points and normal-cell vertices are all written here."""
    out = [zero] * dim
    for (off, slot), x in placed:
        if slot is None:
            out[off : off + block] = [-x] * block
        else:
            out[slot] = x
    return out


def ray_vector(d: DecoratedSubset, spec: ArrangementSpec) -> Vector:
    """Primitive generator of the ray labelled by a nonempty decorated subset.

    Each factor (i, a) of the subset places e_i^(-a) into its own block, so
    the entries are 0 or +-1 with at least one nonzero: the vector is
    primitive."""
    if d.size == 0:
        raise ValueError("the empty decorated subset has no ray")
    validate_subset(d, spec)
    placed = [(block_slot(spec, i, -a), 1) for i, a in d.items]
    return tuple(place(spec.r - 1, spec.ambient_dim, 0, placed))


# The state of a fraction-free (Bareiss) Gauss-Jordan elimination of
# [A | I] after the columns of the first j rays: the left multiplier R as a
# tuple of rows, each its nonzero (index, coeff) pairs in index order, so
# that R A is delta times the identity in the first j columns of its first j
# rows and zero there in the rows below, and the last pivot delta > 0.  It
# depends only on those j rays, in order.
_Elimination = tuple[tuple[SparseRow, ...], int]


def _bareiss_step(state: _Elimination, c: int, a: Vector) -> _Elimination:
    """The Bareiss step of column c, the ray a, on the state of the c rays
    before it.

    The column of ``R [A | I]`` it eliminates is ``R a``, each entry read
    off its row's own pairs.  The pivot is its first nonzero entry at or
    below row c, swapped into row c and negated if negative (a row of the
    input negated, so each entry stays a signed minor of it); every other
    row becomes ``(pv * row - f * pivot_row) // delta``, an exact division,
    written as sorted pairs, and a row with ``f == 0`` and ``pv == delta``
    is kept as it is.  When ``pv`` and ``delta`` are both 1, as at every
    step on a unimodular fan, that is ``row - f * pivot_row``, with no
    multiply and no division.  Raises ValueError when the column has no
    pivot, i.e. the rays are dependent.
    """
    rows, prev = state
    rows = list(rows)
    col = []
    for row in rows:
        s = 0
        for j, x in row:
            s += x * a[j]
        col.append(s)
    p = c
    while p < len(rows) and not col[p]:
        p += 1
    if p == len(rows):
        raise ValueError("columns are linearly dependent")
    if p != c:
        rows[c], rows[p] = rows[p], rows[c]
        col[c], col[p] = col[p], col[c]
    pv = col[c]
    if pv < 0:
        rows[c], pv = tuple([(j, -x) for j, x in rows[c]]), -pv
    piv = rows[c]
    if pv == 1 == prev:
        for i, f in enumerate(col):
            if f and i != c:
                merged = dict(rows[i])
                for j, y in piv:
                    merged[j] = merged.get(j, 0) - f * y
                rows[i] = tuple([(j, x) for j, x in sorted(merged.items()) if x])
        return tuple(rows), 1
    for i, row in enumerate(rows):
        f = col[i]
        if i == c or (not f and pv == prev):
            continue
        merged = {j: pv * x for j, x in row}
        for j, y in piv:
            merged[j] = merged.get(j, 0) - f * y
        rows[i] = tuple([(j, x // prev) for j, x in sorted(merged.items()) if x])
    return tuple(rows), pv


def _identity(dim: int) -> _Elimination:
    """The state of the empty prefix: dim one-entry rows and pivot 1."""
    return tuple([((i, 1),) for i in range(dim)]), 1


def _elimination(dim: int, rays: tuple[Vector, ...]) -> _Elimination:
    """The Bareiss state after the columns of the rays, in R^dim: one full
    pass from the identity, sharing nothing with any other call."""
    state = _identity(dim)
    for c, a in enumerate(rays):
        state = _bareiss_step(state, c, a)
    return state


class _Inverse(NamedTuple):
    """An exact integer left inverse of a cone's generator matrix A (rays as
    columns), kept as the cone's row tests over the ambient indices.

    With k the number of rays, the first dim - k tests are ``(y, 0, 0)``
    for independent rows y with ``y A = 0``, so a point lies in the span of
    the rays exactly when every one of them pairs to zero with it.  The last
    k are ``(row, 0, None)`` for the rows of ``delta * L``, L a left inverse
    of A (``L A = I``) and ``delta > 0`` the last pivot: the point's cone
    coordinates, times delta, are >= 0.  Each row is a row of the Bareiss
    state after every ray (``_elimination``); within one pass over a fan's
    maximal cones (``_invert_maximal_cones``) equal tests are one tuple.
    """

    tests: tuple[RowTest, ...]
    delta: int


class Cone(_Value):
    """A simplicial cone: primitive ray generators plus its nested-set label,
    the decorated prefixes of its chain, one per ray and innermost first."""

    _fields = ("rays", "label")

    def __init__(self, rays: tuple[Vector, ...], label: tuple[DecoratedSubset, ...]) -> None:
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "label", label)

    @property
    def dim(self) -> int:
        return len(self.rays)

    def contains(self, point: Sequence) -> bool:
        """Whether the point has cone coordinates (``coefficients``)."""
        return self.coefficients(point) is not None

    @cached_property
    def _inverse(self) -> _Inverse:
        """The Bareiss elimination of ``[A | I]`` through the ray columns.

        It multiplies ``[A | I]`` on the left by an invertible R, so ``R A``
        is delta times the identity stacked on zeros: the first k rows of R
        are the coefficient rows, the other dim - k rows span the left
        kernel of A.  A fan's maximal cones get theirs from one pass over
        them all (``_invert_maximal_cones``), which shares each prefix's
        state; any other cone, a face or a one-off cone, runs its own full
        pass from the identity here, on first use.
        """
        k = len(self.rays)
        rows, delta = _elimination(len(self.rays[0]), self.rays)
        return _Inverse(
            (*((row, 0, 0) for row in rows[k:]), *((row, 0, None) for row in rows[:k])), delta
        )

    def _scaled_coefficients(self, p: Vector) -> list[int] | None:
        """Cone coordinates times ``delta * D`` of the point ``p / D``.

        ``p`` is an integer vector of the right length.  Returns None when a
        test of the cone fails (the point is off the rays' span, or a
        coordinate is negative); otherwise the coordinates reproduce the
        point exactly.  Every bound of a cone's tests is 0, so ``D`` does
        not enter them.
        """
        if not self.rays:
            return None if any(p) else []
        if not tests_hold(self._inverse.tests, p, 1):
            return None
        return self._coordinates(p)

    def _coordinates(self, p: Vector) -> list[int]:
        """The k coefficient rows at ``p``, with no test: cone coordinates
        times ``delta * D`` of ``p / D`` when the cone's tests hold there.
        The cone has rays."""
        c = []
        for row, _, _ in self._inverse.tests[-len(self.rays):]:
            s = 0
            for i, a in row:
                s += a * p[i]
            c.append(s)
        return c

    def coefficients(self, point: Sequence) -> list[Fraction] | None:
        """Nonnegative cone coordinates of a rational point, if it lies here.

        Exact integer arithmetic for any simplicial cone, unimodular or not:
        with ``D`` the lcm of the point's denominators, ``D * point`` lies in
        the span of the rays exactly when every cached span-check row
        vanishes on it, and its coordinates there are then the cached
        coefficient rows ``delta * L`` applied to it, ``c``.  The point lies
        in the cone exactly when, in addition, ``c >= 0``; the coordinates
        are then ``c_j / (delta * D)``.  Raises ValueError when the cone has
        rays and the point's length differs from theirs, or when the rays
        are linearly dependent.
        """
        p, scale = scaled_point(point, len(self.rays[0]) if self.rays else len(point))
        c = self._scaled_coefficients(p)
        if not c:  # None, or [] for the rayless cone at the origin
            return c
        scale *= self._inverse.delta
        return [Fraction(x, scale) for x in c]


def _invert_maximal_cones(cones: Sequence[Cone]) -> None:
    """Write every cone's ``_inverse`` in one pass, skipping the rayless
    cone and any cone that has one.

    Each distinct ray prefix's Bareiss state is computed once, and each cone
    runs one step, for its last ray.  A state of depth j is keyed by the
    identity of its j-th ray and kept with the state it was stepped from, so
    a cone reads it only when both are the very objects it was made from
    (the cones hold their rays for the whole pass, so no key is reused).
    Labels decide only when states go: a state made under a j-th label
    prefix with other indices than the last one made at depth j drops every
    state of depth j and deeper.  In ``Chain.sort_key`` order the chains
    that share a flag of index sets are contiguous, so no dropped state is
    needed again; in any other order it is made again.  Equal tests are one
    tuple, interned for the pass: 123 distinct tests among the 3,456 of the
    maximal cones at r = 4, n = 3.
    """
    # per depth j: the states after j + 1 rays, keyed by the id of the last,
    # each with the state it was stepped from; and the indices of the j-th
    # label prefix they were made under
    levels: list[dict[int, tuple[_Elimination, _Elimination]]] = []
    indices: list[tuple[int, ...] | None] = []
    spans: dict[SparseRow, RowTest] = {}
    coefficients: dict[SparseRow, RowTest] = {}
    identity = None
    for cone in cones:
        rays = cone.rays
        if not rays or "_inverse" in vars(cone):
            continue
        k = len(rays)
        if identity is None:
            identity = _identity(len(rays[0]))
        state = identity
        for j in range(k - 1):
            ray = rays[j]
            held = levels[j].get(id(ray)) if j < len(levels) else None
            if held is not None and held[0] is state:
                state = held[1]
                continue
            label = cone.label
            here = tuple([i for i, _ in label[j].items]) if j < len(label) else None
            if j == len(levels) or here != indices[j]:
                del levels[j:], indices[j:]
                levels.append({})
                indices.append(here)
            after = _bareiss_step(state, j, ray)
            levels[j][id(ray)] = state, after
            state = after
        rows, delta = _bareiss_step(state, k - 1, rays[-1])
        tests = []
        for row in rows[k:]:
            test = spans.get(row)
            if test is None:
                test = spans[row] = row, 0, 0
            tests.append(test)
        for row in rows[:k]:
            test = coefficients.get(row)
            if test is None:
                test = coefficients[row] = row, 0, None
            tests.append(test)
        vars(cone)["_inverse"] = _Inverse(tuple(tests), delta)


class Fan(_Frozen):
    """An immutable fan: a ray per decorated subset, one cone per chain.

    Cones are keyed by their chain, and a cone's label is that chain's own
    tuple of decorated prefixes.  A fan holds its maximal cones, those of
    the length-n chains, and a zero-argument callable that returns its other
    cones, the faces, in a dict of its own; ``cones`` calls it on first read
    and takes that dict over, then the maximal cones' own.  Both keep the
    order the cones were built in (see ``maximal_cones``).  The record shows
    ``spec``, ``rays`` and ``cones``.
    """

    _fields = ("spec", "rays", "cones")

    def __init__(
        self,
        spec: ArrangementSpec,
        rays: dict[DecoratedSubset, Vector],
        maximal: dict[Chain, Cone],
        faces: Callable[[], dict[Chain, Cone]],
    ) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "_maximal", maximal)
        object.__setattr__(self, "_faces", faces)

    @classmethod
    def from_cones(
        cls,
        spec: ArrangementSpec,
        rays: dict[DecoratedSubset, Vector],
        cones: Iterable[tuple[Chain, Cone]],
    ) -> "Fan":
        """The fan of (chain, cone) pairs already built, split by chain
        length: the length-n chains' cones are its maximal cones, the others
        its faces."""
        maximal, faces = {}, {}
        for chain, cone in cones:
            (maximal if len(chain.prefixes) == spec.n else faces)[chain] = cone
        return cls(spec, rays, maximal, lambda: faces)

    @cached_property
    def cones(self) -> dict[Chain, Cone]:
        """Every cone, keyed by its chain: the faces first, then the maximal
        cones, each the very object that ``maximal_cones`` holds."""
        self.maximal_cones  # read before the table takes the dict it reads
        cones = self._faces()
        cones.update(vars(self).pop("_maximal"))
        return cones

    def cone(self, chain: Chain) -> Cone:
        return self.cones[chain]

    @cached_property
    def maximal_cones(self) -> tuple[Cone, ...]:
        """The cones with n-element labels (these fans are pure of dimension
        n), in the order they were built in: ``Chain.sort_key`` order for
        ``build_fan``, insertion order for ``Fan.from_cones``."""
        return tuple(self._maximal.values())

    @cached_property
    def _cone_index(self) -> SharedRowIndex:
        """The maximal cones' tests.  The rayless cone is maximal only at
        n = 0, where the ambient space is R^0 and it holds the one point."""
        _invert_maximal_cones(self.maximal_cones)
        return SharedRowIndex(self.maximal_cones, lambda c: c._inverse.tests if c.rays else ())


def _check_maximal(spec: ArrangementSpec, g: BuildingSet) -> None:
    if g.spec != spec or not g.is_maximal:
        raise ValueError(
            "fans are built from the maximal building set of the same spec only"
        )


def build_fan(spec: ArrangementSpec, g: BuildingSet) -> Fan:
    """One cone per decorated chain, the nested sets of the maximal g.

    Built up front: the ray table, one ray per subset of the subset table,
    and the cones of the length-n chains, the maximal cones.  The faces, the
    cones of the chains of length 0..n-1, are built when ``Fan.cones`` is
    first read, so a caller that only scans (``locate_point``) never
    enumerates a face.  Every chain comes from that one table, so the labels
    and the ray table hold the very same subsets.  The chains come in
    ``Chain.sort_key`` order, and so do ``maximal_cones`` and the keys of
    ``Fan.cones``.
    """
    _check_maximal(spec, g)
    check_fan_spec(spec)
    table = _subset_table(spec)
    rays = {d: ray_vector(d, spec) for d in table.values()}

    def cones(lengths: range) -> dict[Chain, Cone]:
        return {
            chain: Cone(tuple([rays[d] for d in chain.prefixes]), chain.prefixes)
            for length in lengths
            for chain in _chains_of_length(spec, table, length)
        }

    return Fan(spec, rays, cones(range(spec.n, spec.n + 1)), lambda: cones(range(spec.n)))


def _star_subdivide(
    cones: set[frozenset[DecoratedSubset]],
    holding: dict[DecoratedSubset, set[frozenset[DecoratedSubset]]],
    rays: Mapping[DecoratedSubset, Vector],
    new_label: DecoratedSubset,
    v: Vector,
) -> None:
    """Stellar subdivision at v = ray_vector(new_label), in place: every
    cone t that contains tau, the star of tau, gives way to the cones
    (t minus tau) + B + {new_label} for the proper subsets B of tau, the
    joins of the new ray with t's faces not containing tau.

    ``holding`` maps each label to the set of current cones that hold it,
    so the star is the intersection of the sets of tau's rays, and only the
    star's cones are visited; both ``cones`` and ``holding`` are updated.

    tau is known without a search: it is the cone of the singletons
    (i, a(i)) of new_label = (I, a), whose rays sum to v.  A subdivision at
    d' removes only the cones containing the singleton cone of d', so only
    a d' < new_label could have removed tau; such a d' has smaller support
    and is processed later, and singletons are never subdivided.  Relative
    interiors of a fan's cones are disjoint, so tau is the one cone holding
    v in its relative interior.  The check below confirms that on tau's
    single cone."""
    singletons = tuple(DecoratedSubset((p,)) for p in new_label.items)
    tau = frozenset(singletons)
    tau_cone = Cone(tuple(rays[d] for d in singletons), singletons)
    coeffs = tau_cone._scaled_coefficients(v) if tau in cones else None
    if coeffs is None or not all(c > 0 for c in coeffs):
        raise ValueError("subdivision vector lies outside the fan support")
    star = set.intersection(*sorted((holding[d] for d in singletons), key=len))
    # tau's labels as the cones hold them, so that the new cones share them
    held = [d for d in next(iter(star)) if d in tau]
    faces = [
        frozenset((new_label, *b))
        for k in range(len(held))
        for b in itertools.combinations(held, k)
    ]
    holding[new_label] = set()
    for t in star:
        cones.remove(t)
        for d in t:
            holding[d].remove(t)
        rest = t - tau
        for face in faces:
            s = rest | face
            cones.add(s)
            for d in s:
                holding[d].add(s)


def _stellar_labels(
    spec: ArrangementSpec, g: BuildingSet
) -> tuple[set[frozenset[DecoratedSubset]], dict[DecoratedSubset, Vector]]:
    """The stellar route's cones as sets of labels, and its ray table.

    Starts from the product of the factor fans: its rays are the singletons,
    and its cones are the sets with at most one singleton per factor.  It
    then subdivides at the ray vector of every non-singleton element,
    ordered by increasing inclusion of the loci the elements cut out:
    deepest intersections first, so support size runs downward (ties broken
    by the global deterministic order).  That order
    keeps each element's singleton cone intact until its own step, so every
    step subdivides the star of that known cone (see ``_star_subdivide``),
    found through a map from each label to the cones holding it that lives
    only for this call.  Every cone and every ray the subdivisions made is
    kept: a cone whose labels are not a chain would be their fault, so it
    is left for the comparison to find, not filtered out.
    """
    _check_maximal(spec, g)
    check_fan_spec(spec)
    # product fan: at most one singleton ray per factor
    per_factor: list[list[DecoratedSubset | None]] = [
        [None] + [DecoratedSubset(((i, a),)) for a in range(spec.r)]
        for i in range(1, spec.n + 1)
    ]
    rays: dict[DecoratedSubset, Vector] = {
        d: ray_vector(d, spec) for factor in per_factor for d in factor[1:]
    }
    cones: set[frozenset[DecoratedSubset]] = set()
    holding: dict[DecoratedSubset, set[frozenset[DecoratedSubset]]] = {d: set() for d in rays}
    for combo in itertools.product(*per_factor):
        s = frozenset(d for d in combo if d is not None)
        cones.add(s)
        for d in s:
            holding[d].add(s)
    # larger supports cut out smaller loci, which must be subdivided first
    non_singletons = (d for d in g.elements if d.size > 1)
    for d in sorted(non_singletons, key=lambda x: (-x.size, x.items)):
        v = ray_vector(d, spec)
        _star_subdivide(cones, holding, rays, d, v)
        rays[d] = v
    return cones, rays


def build_fan_stellar(spec: ArrangementSpec, g: BuildingSet) -> Fan:
    """Stellar-subdivision construction of the same fan: each cone of
    ``_stellar_labels`` sorted into its chain, the ray table in global order."""
    cones, rays = _stellar_labels(spec, g)
    chains = (Chain._trusted(tuple(sorted(s, key=DecoratedSubset.sort_key))) for s in cones)
    ray_map = {d: rays[d] for d in sorted(rays, key=DecoratedSubset.sort_key)}
    return Fan.from_cones(
        spec, ray_map, ((c, Cone(tuple(rays[d] for d in c.prefixes), c.prefixes)) for c in chains)
    )


def fans_equal(f1: Fan, f2: Fan) -> bool:
    """Equality as sets of cones, each cone taken as its set of generators
    (``check`` compares ``_stellar_labels`` with the direct chains instead)."""
    if f1.spec != f2.spec:
        raise ValueError("fans live over different parameters")
    set1 = {frozenset(c.rays) for c in f1.cones.values()}
    set2 = {frozenset(c.rays) for c in f2.cones.values()}
    return set1 == set2


def locate_point(fan: Fan, point: Sequence) -> Chain | None:
    """The chain whose cone's relative interior contains the point.

    Finds the first maximal cone, in ``maximal_cones`` order, that holds
    the point by the exact integer tests of its ``_inverse`` (the point is
    scaled to integers once), which work for any simplicial cone.  The
    search goes through the fan's ``SharedRowIndex``: each hyperplane of
    the maximal cones' span-check and coefficient rows (a row and its
    negative are one) is evaluated at most once per point.  The index has
    then checked every test of the cone it found, so only the cone's k
    coefficient rows are read at the point, and the located chain keeps
    exactly the generators whose coefficient is strictly positive: a
    subsequence of the cone's label, the prefixes of its chain, so it is
    built without the nesting check.  Returns None when the point is
    outside the fan's support.
    """
    p, scale = scaled_point(point, fan.spec.ambient_dim)
    k = fan._cone_index.first(p, scale)
    if k is None:
        return None
    cone = fan.maximal_cones[k]
    if not cone.rays:  # n = 0: the cone is the origin of R^0
        return Chain._trusted(())
    coeffs = cone._coordinates(p)  # the index has checked every test of the cone
    return Chain._trusted(tuple([d for d, c in zip(cone.label, coeffs) if c > 0]))


def in_relative_interior(chain: Chain, point: Sequence, spec: ArrangementSpec) -> bool:
    """Whether the point lies in the relative interior of the chain's cone,
    built from the chain's own rays with no fan: its exact integer tests
    hold and every cone coordinate is > 0.  The empty chain's cone is the
    origin."""
    cone = Cone(tuple([ray_vector(d, spec) for d in chain.prefixes]), chain.prefixes)
    coeffs = cone._scaled_coefficients(scaled_point(point, spec.ambient_dim)[0])
    return coeffs is not None and all(c > 0 for c in coeffs)


def is_smooth_cone(cone: Cone) -> bool:
    """Whether the generators extend to a basis of the ambient lattice: each
    gets a ``lattice_pivots`` pivot, and every pivot is 1."""
    return lattice_pivots(cone.rays) == [1] * len(cone.rays)


_ZERO = Fraction(0)


def support_decomposition(
    point: Sequence, spec: ArrangementSpec
) -> list[tuple[Fraction, int | None]] | None:
    """Per-factor lengths and directions of a point of the fan's support.

    A point lies in the support exactly when each factor block is a
    nonnegative multiple x_i of a single basis image e_i^(a_i).  Returns the
    list of (x_i, a_i) pairs with a_i = None when x_i = 0, or None when some
    block has the wrong shape.

    An entry that is not a ``Fraction`` is made one.  Zero and sign tests
    read each entry's numerator, and two entries are equal when their
    numerators and denominators are (a ``Fraction`` is kept in lowest
    terms); a factor at the origin gets the one module-wide ``Fraction(0)``.
    """
    point = [x if isinstance(x, Fraction) else Fraction(x) for x in point]
    if len(point) != spec.ambient_dim:
        raise ValueError(
            f"point has length {len(point)}, expected {spec.ambient_dim}"
        )
    block = spec.r - 1
    out: list[tuple[Fraction, int | None]] = []
    for i in range(spec.n):
        coords = point[i * block : (i + 1) * block]
        nonzero = [(j, x) for j, x in enumerate(coords, start=1) if x.numerator]
        if not nonzero:
            out.append((_ZERO, None))
        elif len(nonzero) == 1 and nonzero[0][1].numerator > 0:
            out.append((nonzero[0][1], nonzero[0][0]))
        elif len(nonzero) == block and coords[0].numerator < 0:
            num, den = coords[0].numerator, coords[0].denominator
            if any(x.numerator != num or x.denominator != den for x in coords):
                return None
            out.append((-coords[0], 0))
        else:
            return None
    return out


def support_point(
    spec: ArrangementSpec, decomposition: Iterable[tuple[Fraction, int | None]]
) -> tuple[Fraction, ...]:
    """The point sum_i x_i e_i^(a_i) of the fan's support, the inverse of
    ``support_decomposition``.

    ``decomposition`` holds one ``(x_i, a_i)`` pair per factor, in factor
    order: a residue a_i in 0..r-1, or None (or x_i = 0) for a factor at
    the origin.  ``place`` writes each x_i into factor i's block, at slot
    a_i, or as -x_i across the whole block for a_i = 0; every other entry
    is the one module-wide ``Fraction(0)``, so points compare their zeros by
    identity.  A length that is not a ``Fraction`` is made
    one, so every entry is a ``Fraction``.
    """
    placed = [
        (block_slot(spec, i, a), x if type(x) is Fraction else Fraction(x))
        for i, (x, a) in enumerate(decomposition, start=1)
        if a is not None and x
    ]
    return tuple(place(spec.r - 1, spec.ambient_dim, _ZERO, placed))
