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
It builds and expands only the n(r-1) reduced relations (i, 0, b), by the
presentation's writer; they span the same degree-1 space as all emitted
relations, so their products span the same degree-k space.  Columns number
each degree's monomials in colex order: by largest generator first, then
by the colex order of the rest.  Each pivot sits on its row's colex-first
chain monomial.

Rows are fed relation-major (every row of reduced relation 0, then of
relation 1, ...), in the colex order of mu within a relation, and the row
L_j * mu is skipped when mu became a degree-(k-1) pivot while a relation
before j was fed (Faugere's F5 criterion).  Such a mu is the lead (the
eliminator's pivot) of some g = sum_{i<j} h_i L_i, and
L_j g = sum_{i<j} L_i (h_i L_j), so L_j mu is a combination of rows of
earlier relations and rows L_j mu' with mu' past mu among g's other
monomials; induction on (relation, monomial) shows the skipped rows add
nothing to the span.  The argument holds in the quotient by the
incomparable products and for any column order, but it needs the
relation-major feed: a pivot created while relation i is fed is a
combination of rows of relations <= i only.  What the criterion skips
depends on the column order.  Under colex columns no fed row reduces to
zero at any of 13 specs, (2..6, 2), (2..5, 3), (2..4, 4) and (2, 5); the
tests count them up to (3,4).  This is measured, not proved.  Row
order, column order and the skipped rows change the fill of the pivot
rows, never the rank: the elimination is exact integer arithmetic
throughout.  With this order all but a few pivot rows have lead 1 (8 of
6,177 at (2,4), 10 of 79,793 at (4,4)), so a row is updated in place
against it with no gcd; only a step against another lead scales the row
and divides it by its content.  A new pivot of lead +-1 has content 1 and
needs no content pass: all but 8 of the 6,177 at (2,4).

The top set T of mu's chain repeats rows too.  Every multiplier of mu is
comparable to T, so one that holds a factor i of T decorates it by T(i):
with S = sum x_d * mu over the multipliers d that hold i, the row
(i, 0, b) * mu is +S when T(i) = 0, -S when T(i) = b, and empty otherwise.
When T(i) = 0 the rows of (i, 0, b) for b >= 2 repeat the row of
(i, 0, 1), fed before them, and are dropped.  They would reduce to zero,
so the F5 induction, the pivots and the relation that creates each pivot
are as before.  At r = 2 there is no such row.

A monomial's multipliers (the generators comparable to all its factors)
are filtered from those of the monomial one degree below.  They give the
next degree's monomials, mu + (g,) for g >= mu[-1], with no sort: they
are counted by their largest generator g, and each g's run of columns is
filled by walking degree k-1 in its colex order.  Degree k-1 is walked
once.  The walk gives the columns of mu's rows: mu * g with g >= mu[-1]
is a new monomial, which takes the next column of g's run and enters
degree k's list, and one with g < mu[-1] is (mu less mu[-1], with g) *
mu[-1], made earlier in the walk and found by its key, the product of
one prime per factor.  Below the top, each new monomial takes mu's
multipliers along, and once the rows exist a plain loop over degree k
filters them by its largest generator's comparable set and counts degree
k+1's monomials by largest generator (filtered between the rows, they
raised the cold peak at (2,5) from 88 to 91 MiB).  One loop runs over
the degrees, and pass k holds the lists of degrees k-1 and k only: it
frees the eliminator of degree k-1, builds degree k's monomials, rows
and (below the top) multipliers, drops degree k-1's lists and only then
eliminates.  The oracle is refused before any work by its generator
count and by the width of its top degree
(:func:`top_monomial_count`).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from math import comb, factorial, isqrt
from typing import Sequence

from .guards import COUNT_CAP, check_oracle_size, check_oracle_width
from .lattice import (
    ArrangementSpec,
    Chain,
    DecoratedSubset,
    enumerate_chains,
    enumerate_decorated_subsets,
    jump_type,
    validate_subset,
)
from .linalg import SparseEliminator


Relations = dict[tuple[int, int, int], tuple[tuple[int, int], ...]]


def _linear_relations(
    spec: ArrangementSpec, generators: Sequence[DecoratedSubset], residues: Sequence[int]
) -> Relations:
    """The relations (i, a, b) with a < b and a in ``residues`` (increasing),
    keyed and ordered by i, then a, then b: the relation is the sum of the
    generators decorating i by a minus those decorating i by b, each value
    its (generator index, +-1) pairs in increasing generator order.

    One pass over the generators fills them all, in increasing generator
    order: a generator decorating i by c enters (i, c, b) with +1 for each
    b > c and (i, a, c) with -1 for each a < c.
    """
    every = tuple(range(spec.r))  # one int object per residue, shared by the keys
    coeffs: dict[tuple[int, int, int], list[tuple[int, int]]] = {
        (i, a, b): [] for i in range(1, spec.n + 1) for a in residues for b in every[a + 1:]
    }
    for x, d in enumerate(generators):
        for i, c in d.items:
            if c in residues:
                for b in range(c + 1, spec.r):
                    coeffs[i, c, b].append((x, 1))
            for a in residues[: bisect_left(residues, c)]:
                coeffs[i, a, c].append((x, -1))
    return {key: tuple(c) for key, c in coeffs.items()}


def presentation(spec: ArrangementSpec) -> tuple[tuple[DecoratedSubset, ...], Relations]:
    """Generators in the global order and the emitted linear relations, the
    map of :func:`_linear_relations` over every residue.

    Emits one relation per (i, a, b) with a < b, n*r*(r-1)/2 in all.  The
    n*(r-1) reduced relations, those with a = 0, are a maximal independent
    subset: each (i, 0, b) holds {i:b}, which no relation before it does,
    and (i, a, b) = (i, 0, b) - (i, 0, a); ``check`` confirms both,
    coefficient by coefficient, in one pass over the map.  The rank oracle
    builds only the reduced relations, with the same writer.
    """
    generators = tuple(enumerate_decorated_subsets(spec))
    return generators, _linear_relations(spec, generators, range(spec.r))


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


def betti_closed_form(spec: ArrangementSpec) -> tuple[int, ...]:
    """Graded ranks b_0, ..., b_n via the first-jump recurrence of the
    jump-type sum.

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
    return tuple(dims)


def jump_census(spec: ArrangementSpec) -> dict[tuple[int, ...], int]:
    """Chain counts by jump type (its parts), over every nonempty chain."""
    census: dict[tuple[int, ...], int] = {}
    for chain in enumerate_chains(spec, spec.n):
        if chain.length == 0:
            continue
        parts = jump_type(chain)
        census[parts] = census.get(parts, 0) + 1
    return census


def expected_jump_count(spec: ArrangementSpec, parts: tuple[int, ...]) -> int:
    """multinomial(n; j_1, ..., j_l) * r^|j| ordered tuples of disjoint sets."""
    return _multinomial(spec.n, parts) * spec.r ** sum(parts)


def _chain_counts(spec: ArrangementSpec) -> list[int]:
    """Nonempty chains by length: entry l is chains_l, and entry 0 is 0.

    A chain of length l is a decorated top set of size s with an ordered
    partition of it into l jumps, so chains_l = sum_s C(n, s) * r^s *
    Surj(s, l), where Surj(s, l) = l * (Surj(s-1, l-1) + Surj(s-1, l))
    counts the surjections of an s-set onto an l-set.
    """
    n, r = spec.n, spec.r
    surj = [1] + [0] * n  # surj[l] = Surj(s, l), from s = 0
    chains = [0] * (n + 1)
    for s in range(1, n + 1):
        surj = [0] + [l * (surj[l - 1] + surj[l]) for l in range(1, n + 1)]
        for l in range(1, s + 1):
            chains[l] += comb(n, s) * r**s * surj[l]
    return chains


def nonempty_chain_count(spec: ArrangementSpec) -> int:
    """The chains of ``_chain_counts`` over every length."""
    return sum(_chain_counts(spec))


# ---------------------------------------------------------------------------
# Rank oracle
# ---------------------------------------------------------------------------


def top_monomial_count(spec: ArrangementSpec) -> int:
    """The number of degree-n chain monomials, the oracle's widest degree.

    sum_l chains_l * C(n-1, l-1) over the chains of ``_chain_counts``: a
    degree-n monomial on a chain of l distinct generators takes each of
    them at least once.  At n = 0 the oracle builds no degree and the count
    is 0.
    """
    return sum(c * comb(spec.n - 1, l - 1) for l, c in enumerate(_chain_counts(spec)) if l)


def _check_oracle(spec: ArrangementSpec) -> None:
    """Refuse the rank oracle before any work: first by its generator count,
    which bounds the generators and the n(r-1) <= count relations it
    builds, then by the width of its top degree.

    The generator count reaches the guard capped, so a huge spec costs a
    few products; one that passes has (1+r)^n <= 10^18, so n <= 37, and its
    width costs a few more.  Each generator's n-th power is a top-degree
    chain monomial, so the width is never below the generator count.
    """
    check_oracle_size(spec.num_subsets_upto(COUNT_CAP))
    check_oracle_width(top_monomial_count(spec))


def _comparable_sets(generators: Sequence[DecoratedSubset]) -> list[frozenset[int]]:
    """The indices of the generators comparable to each generator, itself included.

    a <= b exactly when a is a restriction of b: walk each generator's
    nonempty restrictions instead of testing every pair.
    """
    index = {d.items: x for x, d in enumerate(generators)}
    sets: list[set[int]] = [set() for _ in generators]
    for y, b in enumerate(generators):
        for size in range(1, len(b.items) + 1):
            for items in itertools.combinations(b.items, size):
                x = index[items]
                sets[x].add(y)
                sets[y].add(x)
    return [frozenset(s) for s in sets]


def _primes(count: int) -> list[int]:
    """The first ``count`` primes: a sieve of Eratosthenes doubles its
    bound until it holds that many."""
    bound = 16
    while True:
        sieve = bytearray([1]) * bound
        sieve[:2] = bytes(2)
        for x in range(2, isqrt(bound - 1) + 1):
            if sieve[x]:
                sieve[x * x :: x] = bytes(len(range(x * x, bound, x)))
        primes = list(itertools.compress(range(bound), sieve))
        if len(primes) >= count:
            return primes[:count]
        bound *= 2


def _relation_rows(
    relations: Relations,
    by_generator: Sequence[Sequence[tuple[int, int]]],
    repeats: Sequence[Sequence[int]],
    comparable: Sequence[frozenset[int]],
    lower: Sequence[tuple[int, ...]],
    multipliers: Sequence[Sequence[int]],
    starts: Sequence[int],
    lower_pivots: dict[int, int],
    primes: Sequence[int],
    extend: bool,
) -> tuple[list[list[dict[int, int]]], list[tuple[int, ...]], list[Sequence[int]], list[int]]:
    """Degree k in one walk of degree k-1: its rows (relation) x (degree k-1
    chain monomial), one block per relation, its chain monomials in colex
    order and, when ``extend``, their multipliers and degree k+1's starts.

    ``lower`` holds the chain monomials of degree k-1 in colex order, each
    numbered by its position, and ``multipliers`` the multipliers of each;
    entry g of ``starts`` is the column of the first degree-k monomial
    whose largest generator is g, and the last entry is their number.
    ``by_generator`` maps each generator to its (relation index,
    coefficient) pairs in relation order, and ``repeats`` maps each
    generator to the relations whose rows repeat that of (i, 0, 1) on a
    monomial it tops.

    Block j holds the rows of relation j, in the order of ``lower``.
    Products whose support is not a chain are dropped: they die under the
    quadratic relations.  The row (j, mu) is skipped when ``lower_pivots``
    (degree-(k-1) pivot column -> creating relation) says mu's column
    became a pivot while a relation before j was fed, and the rows of
    ``repeats[mu[-1]]`` are dropped (see the module docstring for both).

    A product is keyed by the product of its factors' ``primes``, one per
    generator, so mu * g is mu's key times g's prime.  With g >= mu[-1] it
    is a new monomial: it takes the next column of g's run and enters the
    key map and the monomial list; with g < mu[-1] it is (mu less mu[-1],
    with g) * mu[-1], whose first factor comes before mu in colex order, so
    its column is already in the map.  A new monomial's multipliers are
    mu's, filtered by ``comparable[g]`` once the rows exist (see the module
    docstring); without ``extend`` (the top degree) none is made, and the
    next degree's starts are all 0.
    """
    columns: dict[int, int] = {}  # key -> column of the products made so far
    blocks: list[list[dict[int, int]]] = [[] for _ in relations]
    upper: list[tuple[int, ...]] = [()] * starts[-1]
    upper_multipliers: list[Sequence[int]] = [()] * starts[-1] if extend else []
    counts = [0] * (len(starts) - 1)  # next degree's monomials by largest generator
    free = list(starts)
    for pos, (mono, mults) in enumerate(zip(lower, multipliers)):
        # rows of relations past the pivot's creator are redundant
        keep = lower_pivots.get(pos, len(relations))
        split = bisect_left(mults, mono[-1]) if mono else 0
        key = 1
        for x in mono:
            key *= primes[x]
        mono_rows: dict[int, dict[int, int]] = {}
        for at, g in enumerate(mults):
            if at < split:
                col = columns[key * primes[g]]
            else:
                col = columns[key * primes[g]] = free[g]
                free[g] += 1
                upper[col] = mono + (g,)
                if extend:
                    upper_multipliers[col] = mults
            for index, c in by_generator[g]:
                if index > keep:
                    break
                row = mono_rows.get(index)
                if row is None:
                    mono_rows[index] = {col: c}
                else:
                    row[col] = c
        for index in repeats[mono[-1]] if mono else ():
            mono_rows.pop(index, None)
        for index, row in mono_rows.items():
            blocks[index].append(row)
    if extend:  # each product holds mu's multipliers: filter them once the rows exist
        for col, (mono, mults) in enumerate(zip(upper, upper_multipliers)):
            g = mono[-1]
            mults = upper_multipliers[col] = list(filter(comparable[g].__contains__, mults))
            for h in mults[bisect_left(mults, g):]:
                counts[h] += 1
    return blocks, upper, upper_multipliers, list(itertools.accumulate(counts, initial=0))


def _eliminate(blocks: list[list[dict[int, int]]]) -> tuple[SparseEliminator, dict[int, int]]:
    """Feed the blocks in order, each row through ``SparseEliminator.add``,
    which takes it over; the eliminator and the map from each pivot column
    to the index of the block that created it.

    A function of its own, so that no loop name keeps the last block's rows
    alive into the next degree.
    """
    elim = SparseEliminator()
    add = elim.add
    creators: list[int] = []  # block index of each pivot, in insertion order
    for index, block in enumerate(blocks):
        for row in block:
            add(row)
        creators.extend([index] * (elim.rank - len(creators)))
    return elim, dict(zip(elim.pivots, creators))


def _relation_spaces(
    spec: ArrangementSpec, top: int
) -> tuple[list[frozenset[int]], list[tuple[int, ...]], list[int], list[int], SparseEliminator]:
    """The relation spaces of degrees 1..top, one degree at a time.

    Returns the comparable sets of :func:`_comparable_sets`, the degree-top
    chain monomials in colex order (a monomial's column is its position),
    the width (monomial count) and
    the rank of each degree 1..top, and the degree-top eliminator.  The
    relations are the n(r-1) reduced ones, from the presentation's writer.

    Pass k builds degree k's monomials, rows and (below ``top``)
    multipliers and next starts from degree k-1's, in the one walk of
    :func:`_relation_rows`, and feeds its rows block by block,
    relation-major, through :func:`_eliminate`.  The map from each pivot
    column to the relation whose block created it goes to the next pass as
    ``lower_pivots``.
    """
    _check_oracle(spec)  # before any enumeration
    generators = tuple(enumerate_decorated_subsets(spec))
    comparable = _comparable_sets(generators)
    relations = _linear_relations(spec, generators, (0,))
    by_generator: list[list[tuple[int, int]]] = [[] for _ in generators]
    by_factor: dict[int, list[int]] = {}  # factor i -> the relations (i, 0, b >= 2)
    for index, ((i, _, b), coeffs) in enumerate(relations.items()):
        for g, c in coeffs:
            by_generator[g].append((index, c))
        if b >= 2:
            by_factor.setdefault(i, []).append(index)
    repeats = [
        [index for i, c in d.items if c == 0 for index in by_factor.get(i, ())]
        for d in generators
    ]
    primes = _primes(len(generators))
    lower: list[tuple[int, ...]] = [()]
    multipliers: list[Sequence[int]] = [range(len(generators))]
    starts = list(range(len(generators) + 1))  # one degree-1 monomial per generator
    widths: list[int] = []
    ranks: list[int] = []
    elim, pivots = SparseEliminator(), {}
    for k in range(1, top + 1):
        del elim  # free degree k-1 before degree k's rows are built
        # degree k-1's lists go before the elimination
        blocks, lower, multipliers, starts = _relation_rows(
            relations, by_generator, repeats, comparable, lower, multipliers, starts, pivots,
            primes, k < top,
        )
        elim, pivots = _eliminate(blocks)
        del blocks  # spent: the eliminator holds the rows it kept
        widths.append(len(lower))
        ranks.append(elim.rank)
    return comparable, lower, widths, ranks, elim


def betti_oracle(spec: ArrangementSpec) -> tuple[int, ...]:
    """Graded ranks b_0, ..., b_n by exact elimination, independent of the
    closed form."""
    _, _, widths, ranks, _ = _relation_spaces(spec, spec.n)
    return (1, *(width - rank for width, rank in zip(widths, ranks)))


class DegreeReducer:
    """Membership tests against the degree-k relation space.

    Used to cross-check the product-vanishing predicate: a degree-k monomial
    maps to zero in the quotient iff its support is not a chain or its basis
    vector lies in the span of the relation rows.
    """

    def __init__(self, spec: ArrangementSpec, k: int):
        self.spec = spec
        self.k = k
        self._comparable, top, _, _, self._elim = _relation_spaces(spec, k)
        self._columns = {mono: col for col, mono in enumerate(top)}
        self._generator_index = {d: i for i, d in enumerate(enumerate_decorated_subsets(spec))}

    def monomial_is_zero(self, gens: Sequence[DecoratedSubset]) -> bool:
        if len(gens) != self.k:
            raise ValueError(f"expected a degree-{self.k} monomial")
        index = self._generator_index
        for d in gens:
            if d not in index:
                validate_subset(d, self.spec)
                raise ValueError(f"{d.text()} is not a generator")
        mono = tuple(sorted(index[d] for d in gens))
        for x, y in itertools.combinations(mono, 2):
            if y not in self._comparable[x]:
                return True
        return self._elim.is_in_span({self._columns[mono]: 1})
