"""Decorated subsets, chains, and the intersection poset they encode.

The geometric setup is a product of n projective lines, each carrying the r
points cut out by the r-th roots of unity.  Pulling those point arrangements
back along the n projections gives a product arrangement of n*r hypersurfaces,
and every nonempty intersection of them is determined by a *decorated subset*
(I, a): the set I of factors that are pinned down, together with a residue
a(i) mod r recording which root each factor is pinned to.  Two hypersurfaces
on the same factor never meet, which is why a factor carries at most one
residue.

Flags of such intersections are *decorated chains*: strictly increasing
subsets I_1 < I_2 < ... < I_l with a single decoration on the largest one
(inner sets inherit it by restriction).  Chains simultaneously index the
cones of the associated fan, the boundary strata of the compactified moduli
space, and the nested sets of the maximal building set.

Everything here is pure combinatorics over exact integers; all values are
immutable and all functions are side-effect free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Iterator


@dataclass(frozen=True)
class ArrangementSpec:
    """Size parameters: r points per line (r >= 2), n line factors (n >= 0)."""

    r: int
    n: int

    def __post_init__(self) -> None:
        if self.r < 2:
            # r = 1 is a genuinely different object (its fan is not the r=1
            # member of this family), so it is rejected rather than guessed at.
            raise ValueError(f"r must be at least 2, got {self.r}")
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")

    @property
    def num_subsets(self) -> int:
        """Number of nonempty decorated subsets, (1+r)^n - 1."""
        return (1 + self.r) ** self.n - 1

    @property
    def num_maximal_chains(self) -> int:
        """Number of full flags with decoration, n! * r^n."""
        return factorial(self.n) * self.r ** self.n

    @property
    def ambient_dim(self) -> int:
        """Dimension n*(r-1) of the ambient lattice of the fan."""
        return self.n * (self.r - 1)


@dataclass(frozen=True)
class DecoratedSubset:
    """A subset of [n] with a residue mod r attached to each element.

    Stored as a sorted tuple of (index, residue) pairs.  The empty tuple is
    allowed and plays the role of the bottom element of the poset; all
    enumeration and fan machinery works with nonempty subsets only.
    """

    items: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        idx = [i for i, _ in self.items]
        if idx != sorted(set(idx)):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        if any(i < 1 for i in idx):
            raise ValueError(f"indices must be >= 1, got {idx}")

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]] | dict[int, int]) -> "DecoratedSubset":
        if isinstance(pairs, dict):
            pairs = pairs.items()
        return cls(tuple(sorted(pairs)))

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.items)

    @property
    def decoration(self) -> dict[int, int]:
        return dict(self.items)

    @property
    def size(self) -> int:
        return len(self.items)

    def residue(self, i: int) -> int:
        for j, a in self.items:
            if j == i:
                return a
        raise KeyError(i)

    def restrict(self, indices: Iterable[int]) -> "DecoratedSubset":
        wanted = set(indices)
        return DecoratedSubset(tuple(p for p in self.items if p[0] in wanted))

    def sort_key(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Global deterministic order: by size, then lexicographic on pairs."""
        return (len(self.items), self.items)

    def text(self) -> str:
        """Canonical text form, e.g. ``{1:0,3:2}``."""
        return "{" + ",".join(f"{i}:{a}" for i, a in self.items) + "}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text()


def parse_subset(text: str, spec: ArrangementSpec | None = None) -> DecoratedSubset:
    """Parse the canonical ``{i:a,j:b}`` form; validates against spec if given."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"malformed decorated subset {text!r}")
    inner = text[1:-1].strip()
    pairs = []
    if inner:
        for part in inner.split(","):
            i_str, _, a_str = part.partition(":")
            pairs.append((int(i_str), int(a_str)))
    d = DecoratedSubset.of(pairs)
    if spec is not None:
        validate_subset(d, spec)
    return d


def validate_subset(d: DecoratedSubset, spec: ArrangementSpec) -> None:
    for i, a in d.items:
        if not 1 <= i <= spec.n:
            raise ValueError(f"index {i} outside [1, {spec.n}] in {d.text()}")
        if not 0 <= a < spec.r:
            raise ValueError(f"residue {a} outside Z_{spec.r} in {d.text()}")


@dataclass(frozen=True)
class Chain:
    """A strictly increasing flag of subsets with a decoration on the largest.

    ``sets`` holds sorted index tuples I_1 < ... < I_l; ``decoration`` holds
    the (index, residue) pairs of the largest set.  Length 0 is the empty
    chain, which labels the zero cone and the open moduli stratum.
    """

    sets: tuple[tuple[int, ...], ...]
    decoration: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prev: frozenset[int] = frozenset()
        for s in self.sets:
            if tuple(sorted(s)) != s:
                raise ValueError(f"set {s} not sorted")
            cur = frozenset(s)
            if not (prev < cur):
                raise ValueError(f"flag not strictly increasing at {s}")
            prev = cur
        deco_keys = tuple(i for i, _ in self.decoration)
        top = self.sets[-1] if self.sets else ()
        if deco_keys != top:
            raise ValueError(
                f"decoration keys {deco_keys} must equal the largest set {top}"
            )

    @classmethod
    def empty(cls) -> "Chain":
        return cls((), ())

    @classmethod
    def of(cls, sets: Iterable[Iterable[int]], decoration: dict[int, int]) -> "Chain":
        sets_t = tuple(tuple(sorted(s)) for s in sets)
        deco = tuple(sorted(decoration.items()))
        return cls(sets_t, deco)

    @classmethod
    def from_prefixes(cls, prefixes: Iterable[DecoratedSubset]) -> "Chain":
        """Assemble a chain from its decorated prefixes (checked for nesting)."""
        ordered = sorted(set(prefixes), key=DecoratedSubset.sort_key)
        for a, b in zip(ordered, ordered[1:]):
            if not leq(a, b):
                raise ValueError(f"{a.text()} and {b.text()} do not nest")
        if not ordered:
            return cls.empty()
        top = ordered[-1]
        return cls(tuple(d.indices for d in ordered), top.items)

    @property
    def length(self) -> int:
        return len(self.sets)

    @property
    def top(self) -> DecoratedSubset:
        return DecoratedSubset(self.decoration)

    def level(self, j: int) -> DecoratedSubset:
        """The decorated prefix (I_j, a|I_j), 1-based."""
        deco = dict(self.decoration)
        return DecoratedSubset(tuple((i, deco[i]) for i in self.sets[j - 1]))

    def prefixes(self) -> tuple[DecoratedSubset, ...]:
        return tuple(self.level(j) for j in range(1, self.length + 1))

    def is_maximal(self, spec: ArrangementSpec) -> bool:
        return self.length == spec.n and (not self.sets or len(self.sets[-1]) == spec.n)

    def sort_key(self):
        return (self.length, self.sets, self.decoration)

    def text(self) -> str:
        """Canonical text form: prefixes separated by ``<``; empty chain is ``{}``."""
        if not self.sets:
            return "{}"
        return "<".join(p.text() for p in self.prefixes())

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text()


def parse_chain(text: str, spec: ArrangementSpec | None = None) -> Chain:
    text = text.strip()
    if text in ("", "{}"):
        return Chain.empty()
    prefixes = [parse_subset(part, spec) for part in text.split("<")]
    return Chain.from_prefixes(prefixes)


@dataclass(frozen=True)
class JumpType:
    """Composition of successive set-size increments along a chain."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p < 1 for p in self.parts):
            raise ValueError(f"jump-type parts must be >= 1, got {self.parts}")

    @property
    def total(self) -> int:
        return sum(self.parts)


def jump_type(chain: Chain) -> JumpType:
    sizes = [len(s) for s in chain.sets]
    return JumpType(tuple(b - a for a, b in zip([0] + sizes, sizes)))


# ---------------------------------------------------------------------------
# Poset operations
# ---------------------------------------------------------------------------


def leq(a: DecoratedSubset, b: DecoratedSubset) -> bool:
    """Partial order: containment of supports with agreeing residues."""
    deco_b = dict(b.items)
    return all(deco_b.get(i) == x for i, x in a.items)


def comparable(a: DecoratedSubset, b: DecoratedSubset) -> bool:
    return leq(a, b) or leq(b, a)


def join(a: DecoratedSubset, b: DecoratedSubset) -> DecoratedSubset | None:
    """Least upper bound, or None when the residues clash on a shared index.

    A clash means the corresponding geometric intersection is empty, so the
    poset is only a partial join semilattice; no artificial top is adjoined.
    """
    merged = dict(a.items)
    for i, x in b.items:
        if merged.setdefault(i, x) != x:
            return None
    return DecoratedSubset.of(merged)


def enumerate_decorated_subsets(spec: ArrangementSpec) -> list[DecoratedSubset]:
    """All nonempty decorated subsets in the global deterministic order.

    Order is by support size, then lexicographic on the sorted (index,
    residue) pairs; fan rays, Chow generators and JSON exports all reuse it.
    """
    out: list[DecoratedSubset] = []
    for size in range(1, spec.n + 1):
        for idx in itertools.combinations(range(1, spec.n + 1), size):
            for deco in itertools.product(range(spec.r), repeat=size):
                out.append(DecoratedSubset(tuple(zip(idx, deco))))
    out.sort(key=DecoratedSubset.sort_key)
    return out


def _proper_subsets(s: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Nonempty proper subsets of s, by size then lexicographically."""
    for size in range(1, len(s)):
        yield from itertools.combinations(s, size)


def _subflags(top: tuple[int, ...], k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Ascending flags of k nonempty sets strictly below ``top``."""
    if k == 0:
        yield ()
        return
    for s in _proper_subsets(top):
        if len(s) < k:
            continue
        for flag in _subflags(s, k - 1):
            yield flag + (s,)


def enumerate_chains(spec: ArrangementSpec, max_length: int) -> Iterator[Chain]:
    """All chains of length <= max_length, in a fixed deterministic order.

    The stream is re-created from scratch on every call; there is no shared
    cursor, so concurrent consumers are safe.
    """
    if not 0 <= max_length <= spec.n:
        raise ValueError(f"max_length must be within [0, {spec.n}], got {max_length}")
    yield Chain.empty()
    for length in range(1, max_length + 1):
        for size in range(length, spec.n + 1):
            for top in itertools.combinations(range(1, spec.n + 1), size):
                for flag in _subflags(top, length - 1):
                    for deco in itertools.product(range(spec.r), repeat=size):
                        yield Chain(flag + (top,), tuple(zip(top, deco)))


def maximal_chains(spec: ArrangementSpec) -> list[Chain]:
    """Full flags on [n] with a decoration: n! * r^n of them."""
    out = []
    for perm in itertools.permutations(range(1, spec.n + 1)):
        flag = tuple(tuple(sorted(perm[: j + 1])) for j in range(spec.n))
        for deco in itertools.product(range(spec.r), repeat=spec.n):
            out.append(Chain(flag, tuple(zip(range(1, spec.n + 1), deco))))
    return out


def chain_intersect(a: Chain, b: Chain) -> Chain:
    """The chain labelling the intersection of the two labelled cones.

    The cones are simplicial with one generator per decorated prefix, and in
    a fan the intersection of two cones is a common face, hence spanned by
    exactly the generators the two cones share.  Generators determine their
    prefixes, so the intersection chain consists of the decorated prefixes
    common to both chains.
    """
    b_prefixes = set(b.prefixes())
    return Chain.from_prefixes([p for p in a.prefixes() if p in b_prefixes])


# ---------------------------------------------------------------------------
# Building sets and nested sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuildingSet:
    """A set of decorated subsets relative to which nestedness is decided.

    Fans are built from the maximal building set only, whose nested sets are
    exactly the decorated chains.  The singletons serve as the per-factor
    building sets of the product fan that the stellar route starts from.
    """

    elements: frozenset[DecoratedSubset]
    spec: ArrangementSpec

    @classmethod
    def maximal(cls, spec: ArrangementSpec) -> "BuildingSet":
        # every lower interval of the full poset is Boolean, so the whole
        # poset is a building set
        return cls(frozenset(enumerate_decorated_subsets(spec)), spec)

    @classmethod
    def singletons(cls, spec: ArrangementSpec) -> "BuildingSet":
        els = frozenset(
            DecoratedSubset(((i, a),))
            for i in range(1, spec.n + 1)
            for a in range(spec.r)
        )
        return cls(els, spec)

    def sorted_elements(self) -> list[DecoratedSubset]:
        return sorted(self.elements, key=DecoratedSubset.sort_key)

    @property
    def is_maximal(self) -> bool:
        return len(self.elements) == self.spec.num_subsets


def _antichains(elements: list[DecoratedSubset]) -> Iterator[tuple[DecoratedSubset, ...]]:
    """All subsets of size >= 2 whose elements are pairwise incomparable.

    Pairs come out before their extensions, so callers that reject on the
    first offending antichain exit quickly.
    """

    def extend(prefix: tuple[DecoratedSubset, ...], start: int) -> Iterator[tuple]:
        for k in range(start, len(elements)):
            cand = elements[k]
            if any(comparable(cand, e) for e in prefix):
                continue
            grown = prefix + (cand,)
            if len(grown) >= 2:
                yield grown
            yield from extend(grown, k + 1)

    yield from extend((), 0)


def is_nested(s: Iterable[DecoratedSubset], g: BuildingSet) -> bool:
    """Nestedness of s relative to g: no antichain of s joins into g.

    An antichain whose join does not exist (empty geometric intersection) is
    treated as not nested; for the maximal building set the criterion then
    collapses to "s is totally ordered".
    """
    s_list = sorted(set(s), key=DecoratedSubset.sort_key)
    stray = [d for d in s_list if d not in g.elements]
    if stray:
        raise ValueError(f"{stray[0].text()} is not in the building set")
    for anti in _antichains(s_list):
        j: DecoratedSubset | None = anti[0]
        for d in anti[1:]:
            j = join(j, d)
            if j is None:
                break
        if j is None or j in g.elements:
            return False
    return True
