"""Chow presentation of the compactified moduli space and its graded ranks.

The ring is generated by one boundary-divisor class per nonempty decorated
subset.  Relations come in two families:

* products of incomparable generators vanish (the divisors are disjoint);
* for every factor i and every pair of residues a, b, the sum of the
  generators whose decoration sends i to a equals the sum of those sending
  i to b.

Graded ranks are computed two independent ways.  The closed form sums over
jump types: the rank of degree k is the coefficient of t^k in

    P_n(t) = sum_m C(n, m) * F_m(t) * (1 + t)^(n - m),  F_0 = 1,
    F_m(t) = sum_{j=2..m} C(m, j) * r^j * (t + ... + t^(j-1)) * F_(m-j)(t),

where F_m sums multinomial(m; j) * r^m * prod_i (t + ... + t^(j_i - 1)) over
the compositions j of m with all parts >= 2; splitting off the first part j
gives the recurrence.  The oracle knows nothing of that formula: it spans
degree k by the monomials whose support is a chain, expands (linear
relation) x (chain monomial of degree k-1) against that spanning set, and
subtracts the exact rank of the resulting integer matrix.
Only the n(r-1) reduced relations are expanded; they span the same degree-1
space as all emitted relations, so their products span the same degree-k
space.  Columns run in reverse lexicographic order, so each pivot sits on a
row's lexicographically last chain monomial.

Rows are fed relation-major (every row of reduced relation 0, then of
relation 1, ...), shortest first within a relation, and the row L_j * mu is
skipped when mu became a degree-(k-1) pivot while a relation before j was
fed (Faugere's F5 criterion).  Such a mu is the lead of some
g = sum_{i<j} h_i L_i, and L_j g = sum_{i<j} L_i (h_i L_j), so L_j mu is a
combination of rows of earlier relations and rows L_j mu' with mu' past mu;
induction on (relation, monomial) shows the skipped rows add nothing to the
span.  The argument needs the relation-major feed and holds for any column
order, with "lead" meaning the eliminator's pivot.  At r = 2 no fed row
reduces to zero.  Row order, column order and the skipped rows change the
fill of the pivot rows, never the rank: the elimination is exact integer
arithmetic throughout.  With this order nearly every pivot row has lead 1,
so a row is updated in place against it with no gcd; only a step against
another lead scales the row and divides it by its content.

A monomial's multipliers (the generators comparable to all its factors)
are found once, filtered from those of the monomial one degree below.  They
give the next degree's monomials, mu + (g,) for g >= mu[-1] in
lexicographic order, and the columns of mu's rows: mu * g is the next new
monomial, or for g < mu[-1] one made earlier, found with g inserted at
``bisect_right(mu, g)``.  Each degree's lists go once the next degree's rows
are fed; the top degree gets none.  The oracle is refused before any work
by its generator count and by the width of its top degree
(:func:`top_monomial_count`).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from math import comb, factorial
from typing import Iterator, Sequence

from .guards import COUNT_CAP, check_oracle_size, check_oracle_width
from .lattice import (
    ArrangementSpec,
    Chain,
    DecoratedSubset,
    JumpType,
    _Frozen,
    _Value,
    enumerate_chains,
    enumerate_decorated_subsets,
    jump_type,
)
from .linalg import SparseEliminator


class GradedDims(_Value):
    """Ranks b_0, ..., b_n of the graded pieces."""

    _fields = ("dims",)

    def __init__(self, dims: tuple[int, ...]) -> None:
        if not dims or dims[0] != 1:
            raise ValueError(f"degree-zero rank must be 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        return sum(self.dims)


class LinearRelation(_Value):
    """sum of generators decorating i by a, minus those decorating i by b."""

    _fields = ("i", "a", "b", "coeffs")

    def __init__(self, i: int, a: int, b: int, coeffs: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "coeffs", coeffs)  # (generator index, +-1)

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)


class ChowPresentation(_Frozen):
    _fields = ("spec", "generators", "linear_relations", "reduced_indices")

    def __init__(
        self, spec: ArrangementSpec, generators: tuple[DecoratedSubset, ...],
        linear_relations: tuple[LinearRelation, ...], reduced_indices: tuple[int, ...],
    ) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "linear_relations", linear_relations)
        object.__setattr__(self, "reduced_indices", reduced_indices)

    def reduced_linear_relations(self) -> tuple[LinearRelation, ...]:
        return tuple(self.linear_relations[k] for k in self.reduced_indices)


def presentation(spec: ArrangementSpec) -> ChowPresentation:
    """Generators in the global order plus the emitted linear relations.

    Emits one relation per (i, a, b) with a < b, n*r*(r-1)/2 in all.  The
    n*(r-1) relations (i, 0, b) are a maximal independent subset: each
    holds {i:b}, which no relation before it does, and (i, a, b) =
    (i, 0, b) - (i, 0, a); ``check`` confirms them by elimination.  One
    pass over the generators fills every relation: a generator decorating
    i by a enters (i, a, b) with +1 for each b > a and (i, b, a) with -1
    for each b < a, in increasing generator order.
    """
    generators = tuple(enumerate_decorated_subsets(spec))
    coeffs: dict[tuple[int, int, int], list[tuple[int, int]]] = {
        (i, a, b): []
        for i in range(1, spec.n + 1)
        for a, b in itertools.combinations(range(spec.r), 2)
    }
    for x, d in enumerate(generators):
        for i, a in d.items:
            for b in range(spec.r):
                if a < b:
                    coeffs[i, a, b].append((x, 1))
                elif b < a:
                    coeffs[i, b, a].append((x, -1))
    relations = [LinearRelation(i, a, b, tuple(c)) for (i, a, b), c in coeffs.items()]
    reduced = tuple(k for k, rel in enumerate(relations) if rel.a == 0)
    return ChowPresentation(spec, generators, tuple(relations), reduced)


def product_support(ds: Sequence[DecoratedSubset]) -> Chain | None:
    """The stratum chain cut out by a product of divisor generators.

    Returns the chain of the distinct factors when they form one, and None
    otherwise: then two factors are incomparable and the product is zero.
    """
    if not ds:
        raise ValueError("product of an empty list of divisors is undefined")
    try:
        return Chain.from_prefixes(ds)
    except ValueError:  # two neighbouring factors do not nest
        return None


# ---------------------------------------------------------------------------
# Closed-form graded ranks
# ---------------------------------------------------------------------------


def _multinomial(n: int, parts: Sequence[int]) -> int:
    rest = n - sum(parts)
    if rest < 0:
        return 0
    out = factorial(n) // factorial(rest)
    for p in parts:
        out //= factorial(p)
    return out


def betti_closed_form(spec: ArrangementSpec) -> GradedDims:
    """Graded ranks via the first-jump recurrence of the jump-type sum.

    A composition of m is a first part j >= 2 and a composition of m - j, and
    multinomial(m; j, rest) = C(m, j) * multinomial(m - j; rest), which gives
    F_m from F_(m-2), ..., F_0.  The window t + ... + t^(j-1) is
    (t - t^j) / (1 - t): F_m is built times (1 - t), then summed cumulatively.
    """
    n, r = spec.n, spec.r
    fs = [[1]]  # fs[m][d]: coefficient of t^d in F_m
    for m in range(1, n + 1):
        shifted = [0] * (m + 1)  # (1 - t) * F_m
        for j in range(2, m + 1):
            weight = comb(m, j) * r**j
            for d, c in enumerate(fs[m - j]):
                shifted[d + 1] += weight * c
                shifted[d + j] -= weight * c
        fs.append(list(itertools.accumulate(shifted)))
    dims = [0] * (n + 1)
    for m, fm in enumerate(fs):
        for d, c in enumerate(fm):
            for e in range(n - m + 1):
                dims[d + e] += comb(n, m) * c * comb(n - m, e)
    return GradedDims(tuple(dims))


def jump_census(spec: ArrangementSpec) -> dict[JumpType, int]:
    """Chain counts by jump type, over every nonempty chain."""
    census: dict[JumpType, int] = {}
    for chain in enumerate_chains(spec, spec.n):
        if chain.length == 0:
            continue
        jt = jump_type(chain)
        census[jt] = census.get(jt, 0) + 1
    return census


def expected_jump_count(spec: ArrangementSpec, jt: JumpType) -> int:
    """multinomial(n; j_1, ..., j_l) * r^|j| ordered tuples of disjoint sets."""
    return _multinomial(spec.n, jt.parts) * spec.r ** jt.total


def nonempty_chain_count(spec: ArrangementSpec) -> int:
    """sum_{s=1..n} C(n, s) * r^s * Fub(s): a nonempty chain is a decorated
    top set of size s with an ordered set partition of it (the jumps).

    Fub(s) counts the ordered set partitions of an s-set, by the recursion
    on the first block: Fub(s) = sum_{k=1..s} C(s, k) * Fub(s - k).
    """
    fub = [1]
    for s in range(1, spec.n + 1):
        fub.append(sum(comb(s, k) * fub[s - k] for k in range(1, s + 1)))
    return sum(comb(spec.n, s) * spec.r**s * fub[s] for s in range(1, spec.n + 1))


# ---------------------------------------------------------------------------
# Rank oracle
# ---------------------------------------------------------------------------


def top_monomial_count(spec: ArrangementSpec) -> int:
    """The number of degree-n chain monomials, the oracle's widest degree.

    sum_l chains_l * C(n-1, l-1): a degree-n monomial on a chain of l
    distinct generators takes each of them at least once.  A chain of
    length l is a decorated top set of size s with an ordered partition of
    it into l jumps, so chains_l = sum_s C(n, s) * r^s * Surj(s, l), where
    Surj(s, l) = l * (Surj(s-1, l-1) + Surj(s-1, l)) counts the surjections
    of an s-set onto an l-set.  At n = 0 the oracle builds no degree and the
    count is 0.
    """
    n, r = spec.n, spec.r
    surj = [1] + [0] * n  # surj[l] = Surj(s, l), from s = 0
    chains = [0] * (n + 1)
    for s in range(1, n + 1):
        surj = [0] + [l * (surj[l - 1] + surj[l]) for l in range(1, n + 1)]
        for l in range(1, s + 1):
            chains[l] += comb(n, s) * r**s * surj[l]
    return sum(chains[l] * comb(n - 1, l - 1) for l in range(1, n + 1))


def _check_oracle(spec: ArrangementSpec) -> None:
    """Refuse the rank oracle before any work: first by its generator count,
    the only bound on the presentation the oracle builds, then by the width
    of its top degree.

    The generator count reaches the guard capped, so a huge spec costs a
    few products; one that passes has (1+r)^n <= 10^18, so n <= 37, and its
    width costs a few more.  Each generator's n-th power is a top-degree
    chain monomial, so the width is never below the generator count.
    """
    check_oracle_size(spec.num_subsets_upto(COUNT_CAP))
    check_oracle_width(top_monomial_count(spec))


class _ChainMonomials:
    """Degree-graded monomials in the generators whose support is a chain.

    A monomial is a sorted tuple of generator indices.  Its multipliers are
    the generators comparable to every factor; those of mu + (g,) are the
    multipliers of mu that are comparable to g, so each degree's lists are
    filtered from the degree below, once per monomial.
    """

    def __init__(self, generators: Sequence[DecoratedSubset]):
        self.generators = tuple(generators)
        # a <= b exactly when a is a restriction of b: walk each generator's
        # nonempty restrictions instead of testing every pair
        index = {d.items: x for x, d in enumerate(self.generators)}
        sets: list[set[int]] = [set() for _ in self.generators]
        for y, b in enumerate(self.generators):
            for size in range(1, len(b.items) + 1):
                for items in itertools.combinations(b.items, size):
                    x = index[items]
                    sets[x].add(y)
                    sets[y].add(x)
        self.comparable = [frozenset(s) for s in sets]
        self._by_degree: dict[int, list[tuple[int, ...]]] = {0: [()]}
        self._multipliers: dict[int, list[Sequence[int]]] = {0: [range(len(self.generators))]}

    def _extensions(self, k: int) -> Iterator[tuple[tuple[int, ...], Sequence[int], int]]:
        """(mu, multipliers of mu, g) for each degree-(k+1) monomial mu + (g,),
        in lexicographic order: g runs over mu's multipliers from mu[-1] on."""
        for mono, mults in zip(self.degree(k), self.multipliers(k)):
            start = bisect_left(mults, mono[-1]) if mono else 0
            for g in mults[start:]:
                yield mono, mults, g

    def degree(self, k: int) -> list[tuple[int, ...]]:
        """The degree-k chain monomials as sorted index tuples, lexicographically."""
        if k not in self._by_degree:
            self._by_degree[k] = [mono + (g,) for mono, _, g in self._extensions(k - 1)]
        return self._by_degree[k]

    def multipliers(self, k: int) -> list[Sequence[int]]:
        """The multipliers of each degree-k monomial, in increasing order,
        aligned with ``degree(k)``; kept until ``forget_multipliers(k)``."""
        if k not in self._multipliers:
            comparable = self.comparable
            self._multipliers[k] = [
                list(filter(comparable[g].__contains__, mults))
                for _, mults, g in self._extensions(k - 1)
            ]
        return self._multipliers[k]

    def forget_multipliers(self, k: int) -> None:
        self._multipliers.pop(k, None)

    def columns(self, k: int) -> dict[tuple[int, ...], int]:
        """Column of each degree-k chain monomial, in reverse lexicographic order.

        The eliminator pivots on a row's lowest column, which is then the
        lexicographically last monomial of the row.
        """
        last = len(self.degree(k)) - 1
        return {mono: last - pos for pos, mono in enumerate(self.degree(k))}


def _relation_rows(
    monomials: _ChainMonomials,
    relations: Sequence[LinearRelation],
    k: int,
    lower_pivots: dict[int, int],
) -> list[list[dict[int, int]]]:
    """The rows (relation) x (degree k-1 chain monomial), one block per relation.

    Block j holds the rows of relation j, shortest first (stable over the
    degree-(k-1) monomials in order).  Products whose support is not a chain
    are dropped: they die under the quadratic relations.  The row (j, mu) is
    skipped when ``lower_pivots`` (degree-(k-1) pivot column -> relation
    index, from :func:`_relation_space`) says mu's column became a pivot
    while a relation before j was fed: that row is redundant (F5 criterion).
    Each monomial's rows are built from its multipliers through a generator
    -> (relation index, coefficient) index, so no relation is scanned for
    generators the monomial cannot take.

    The product mu * g with g >= mu[-1] is the next degree-k monomial in
    lexicographic order, so its column is a running count; one with
    g < mu[-1] sorts before mu * mu[-1] and is looked up, with g inserted
    at ``bisect_right(mu, g)``.
    """
    columns = monomials.columns(k)
    by_generator: list[list[tuple[int, int]]] = [[] for _ in monomials.generators]
    for index, rel in enumerate(relations):
        for g, c in rel.coeffs:
            by_generator[g].append((index, c))
    blocks: list[list[dict[int, int]]] = [[] for _ in relations]
    lower = monomials.degree(k - 1)
    last = len(lower) - 1
    fresh = len(columns)  # one past the column of the last new product
    for pos, (mono, mults) in enumerate(zip(lower, monomials.multipliers(k - 1))):
        # rows of relations past the pivot's creator are redundant
        keep = lower_pivots.get(last - pos, len(relations))
        split = bisect_left(mults, mono[-1]) if mono else 0
        mono_rows: dict[int, dict[int, int]] = {}
        for at, g in enumerate(mults):
            if at < split:
                i = bisect_right(mono, g)
                col = columns[mono[:i] + (g,) + mono[i:]]
            else:
                fresh -= 1
                col = fresh
            for index, c in by_generator[g]:
                if index > keep:
                    break
                row = mono_rows.get(index)
                if row is None:
                    mono_rows[index] = {col: c}
                else:
                    row[col] = c
        for index, row in mono_rows.items():
            blocks[index].append(row)
    for block in blocks:
        block.sort(key=len)
    return blocks


def _relation_space(
    monomials: _ChainMonomials,
    relations: Sequence[LinearRelation],
    k: int,
    lower_pivots: dict[int, int],
    top: int,
) -> tuple[SparseEliminator, dict[int, int]]:
    """The degree-k relation space over the chain-monomial basis.

    Returns the eliminator and the map from each of its pivot columns to
    the relation whose block created it, which the next degree passes back
    as ``lower_pivots``.  Callers pass the n(r-1) reduced relations: every
    emitted relation is a linear combination of them, and multiplying by a
    monomial is linear, so the products span the same space as those of all
    emitted relations.

    The rows are fed relation-major, block by block from
    :func:`_relation_rows`, which skips (j, mu) when mu is the lead (the
    eliminator's pivot, its lowest column) of some g = sum_{i<j} h_i L_i
    in degree k-1.  The span is unchanged: L_j g = sum_{i<j} L_i (h_i L_j),
    so L_j mu is a combination of rows of earlier relations and of rows
    (j, mu') with mu' past mu among g's other monomials; induction on
    (relation, monomial) finishes.  The argument holds in the quotient by
    the incomparable products and for any column order, but it needs the
    relation-major feed: a pivot created in block i is a combination of
    rows of relations <= i only.

    Columns are numbered by :meth:`_ChainMonomials.columns` and each block
    is fed shortest first; both choices keep the pivot rows sparse and
    neither changes the span, so the rank and the membership tests stay
    exact.  Nearly every pivot row then has lead 1, which the eliminator
    subtracts in place with no gcd.  Every row goes through
    ``SparseEliminator.add``, which takes it over: the blocks are spent.

    Once the rows exist, degree k's multiplier lists are made from degree
    k-1's, unless k is ``top``, and degree k-1's are dropped, all before the
    elimination.
    """
    blocks = _relation_rows(monomials, relations, k, lower_pivots)
    if k < top:
        monomials.multipliers(k)
    monomials.forget_multipliers(k - 1)
    elim = SparseEliminator()
    creators: list[int] = []  # relation index of each pivot, in insertion order
    for index, block in enumerate(blocks):
        for row in block:
            elim.add(row)
        creators.extend([index] * (elim.rank - len(creators)))
    return elim, dict(zip(elim.pivots, creators))


def _relation_spaces(
    spec: ArrangementSpec, top: int, pres: ChowPresentation | None = None
) -> tuple[_ChainMonomials, list[int], SparseEliminator]:
    """The chain monomials, the ranks of degrees 1..top and the degree-top space.

    One loop over the degrees carries the pivot -> relation map from each
    degree to the next; only one eliminator is alive at a time.  ``pres``
    is ``presentation(spec)`` when the caller has it.
    """
    _check_oracle(spec)  # before any enumeration
    if pres is None:
        pres = presentation(spec)
    monomials = _ChainMonomials(pres.generators)
    relations = pres.reduced_linear_relations()
    ranks: list[int] = []
    elim, pivots = SparseEliminator(), {}
    for k in range(1, top + 1):
        del elim  # free degree k-1 before degree k is built
        elim, pivots = _relation_space(monomials, relations, k, pivots, top)
        ranks.append(elim.rank)
    return monomials, ranks, elim


def betti_oracle(
    spec: ArrangementSpec, *, _presentation: ChowPresentation | None = None
) -> GradedDims:
    """Graded ranks by exact elimination, independent of the closed form.

    ``_presentation`` lets a caller that already built ``presentation(spec)``
    (the ``chow`` command) hand it over instead of building it again.
    """
    monomials, ranks, _ = _relation_spaces(spec, spec.n, _presentation)
    dims = [1] + [len(monomials.degree(k)) - rank for k, rank in enumerate(ranks, 1)]
    return GradedDims(tuple(dims))


class DegreeReducer:
    """Membership tests against the degree-k relation space.

    Used to cross-check the product-vanishing predicate: a degree-k monomial
    maps to zero in the quotient iff its support is not a chain or its basis
    vector lies in the span of the relation rows.
    """

    def __init__(self, spec: ArrangementSpec, k: int):
        self.spec = spec
        self.k = k
        self.monomials, _, self._elim = _relation_spaces(spec, k)
        self._columns = self.monomials.columns(k)
        self._generator_index = {d: i for i, d in enumerate(self.monomials.generators)}

    def monomial_is_zero(self, gens: Sequence[DecoratedSubset]) -> bool:
        if len(gens) != self.k:
            raise ValueError(f"expected a degree-{self.k} monomial")
        mono = tuple(sorted(self._generator_index[d] for d in gens))
        for x, y in itertools.combinations(mono, 2):
            if y not in self.monomials.comparable[x]:
                return True
        return self._elim.is_in_span({self._columns[mono]: 1})
