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
space, and the nested sets of the maximal building set, the only building set
used here.  A set of decorated subsets is a chain exactly when, sorted by
size, each is below the next, so one neighbour test decides nestedness.
Chains come in one order, ``Chain.sort_key`` (by length, index sets, then
decoration): the enumerators yield them in it, with no sort.

Everything here is pure combinatorics over exact integers; all values are
immutable and all functions are side-effect free.

The package's records are plain classes on two private bases.  ``_Frozen``
gives the ``repr`` and refuses assignment; ``_Value`` adds the value rule: a
record equals a record of its own class with equal fields and hashes as its
field tuple.  Decorated subsets and chains write those two methods by hand,
because the fan, the check suites and point location compare and hash them
thousands of times per command and the generated methods cost more per call.
"""

from __future__ import annotations

import itertools
import operator
from math import factorial
from typing import Iterable, Iterator, Sequence


class _Frozen:
    """An immutable record: ``__init__`` sets each field through
    ``object.__setattr__``, and assignment and deletion raise AttributeError
    (a ``cached_property`` writes to the instance ``__dict__`` directly).
    The ``repr`` lists ``_fields`` as ``name=value`` pairs: the constructor's
    parameters in order, or what a class's docstring says it shows."""

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Value(_Frozen):
    """An immutable value: equal to a record of its own class with equal
    fields, and hashed as its field tuple.  Each subclass gets both methods,
    built over its ``_fields``, unless it defines its own."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        key = operator.attrgetter(*cls._fields)
        if "__eq__" not in cls.__dict__:

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return key(self) == key(other)
                return NotImplemented

            cls.__eq__ = __eq__
        if "__hash__" not in cls.__dict__:
            if len(cls._fields) == 1:  # attrgetter of one name returns the bare value

                def __hash__(self) -> int:
                    return hash((key(self),))

            else:

                def __hash__(self) -> int:
                    return hash(key(self))

            cls.__hash__ = __hash__


def _product_upto(factors: Iterable[int], cap: int) -> int:
    """The product of factors (each >= 1) when it is at most cap, else cap + 1."""
    out = 1
    for f in factors:
        out *= f
        if out > cap:
            return cap + 1
    return out


class ArrangementSpec(_Value):
    """Size parameters: r points per line (r >= 2), n line factors (n >= 0)."""

    _fields = ("r", "n")

    def __init__(self, r: int, n: int) -> None:
        if r < 2:
            # r = 1 is a genuinely different object (its fan is not the r=1
            # member of this family), so it is rejected rather than guessed at.
            raise ValueError(f"r must be at least 2, got {r}")
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)

    @property
    def num_subsets(self) -> int:
        """Number of nonempty decorated subsets, (1+r)^n - 1."""
        return (1 + self.r) ** self.n - 1

    @property
    def num_maximal_chains(self) -> int:
        """Number of full flags with decoration, n! * r^n."""
        return factorial(self.n) * self.r ** self.n

    def num_subsets_upto(self, cap: int) -> int:
        """``num_subsets`` when it is at most cap, else cap + 1.

        Stops multiplying once the partial product passes cap, so a huge
        spec (any n: ``range`` takes it) costs a few products, not the full count.
        """
        return _product_upto((1 + self.r for _ in range(self.n)), cap + 1) - 1

    def num_maximal_chains_upto(self, cap: int) -> int:
        """``num_maximal_chains`` when it is at most cap, else cap + 1."""
        return _product_upto((i * self.r for i in range(1, self.n + 1)), cap)

    @property
    def ambient_dim(self) -> int:
        """Dimension n*(r-1) of the ambient lattice of the fan."""
        return self.n * (self.r - 1)


class DecoratedSubset(_Value):
    """A subset of [n] with a residue mod r attached to each element.

    Stored as a sorted tuple of (index, residue) pairs.  The empty tuple is
    allowed and plays the role of the bottom element of the poset; all
    enumeration and fan machinery works with nonempty subsets only.
    """

    _fields = ("items",)

    def __init__(self, items: tuple[tuple[int, int], ...]) -> None:
        idx = [i for i, _ in items]
        if idx != sorted(set(idx)):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        if any(i < 1 for i in idx):
            raise ValueError(f"indices must be >= 1, got {idx}")
        object.__setattr__(self, "items", items)
        # hashed once, as the field tuple (items,): subsets key the ray
        # table and enter every chain's hash
        object.__setattr__(self, "_hash", hash((items,)))

    # hand-written, as in Chain: a verify pass compares subsets about 13,000
    # times, and the ``_Value`` methods cost 1.5-2x as much per call
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.items == other.items
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def _trusted(cls, items: tuple[tuple[int, int], ...]) -> "DecoratedSubset":
        """The subset of pairs already known to have strictly increasing
        indices >= 1, without the check (as ``Chain._trusted``)."""
        d = object.__new__(cls)
        object.__setattr__(d, "items", items)
        object.__setattr__(d, "_hash", hash((items,)))
        return d

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]] | dict[int, int]) -> "DecoratedSubset":
        if isinstance(pairs, dict):
            pairs = pairs.items()
        return cls(tuple(sorted(pairs)))

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.items)

    @property
    def size(self) -> int:
        return len(self.items)

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


class Chain(_Value):
    """A strictly increasing flag of decorated subsets.

    ``prefixes`` holds the decorated prefixes (I_1, a|I_1) < ... < (I_l, a),
    innermost first: the supports strictly grow and each inner decoration is
    the restriction of the largest one.  Length 0 is the empty chain, which
    labels the zero cone and the open moduli stratum.
    """

    _fields = ("prefixes",)

    def __init__(self, prefixes: tuple[DecoratedSubset, ...]) -> None:
        # the bottom element heads every chain, so an empty prefix is refused
        unnested = _first_unnested_pair((_BOTTOM, *prefixes))
        if unnested is not None:
            a, b = unnested
            raise ValueError(f"{a.text()} and {b.text()} do not nest")
        object.__setattr__(self, "prefixes", prefixes)

    # hand-written, as in DecoratedSubset: a verify pass compares chains
    # about 3,600 times and hashes them about 7,800 times
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.prefixes == other.prefixes
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.prefixes,))

    @classmethod
    def empty(cls) -> "Chain":
        return cls(())

    @classmethod
    def _trusted(cls, prefixes: tuple[DecoratedSubset, ...]) -> "Chain":
        """The chain of prefixes already known to nest, without the check."""
        chain = object.__new__(cls)
        object.__setattr__(chain, "prefixes", prefixes)
        return chain

    @classmethod
    def of(cls, sets: Iterable[Iterable[int]], decoration: dict[int, int]) -> "Chain":
        """The chain of index sets with the decoration of the largest one.

        No command calls it; the tests write their chains with it and check
        the validating route against the trusted one.
        """
        sets_t = [tuple(sorted(s)) for s in sets]
        top = sets_t[-1] if sets_t else ()
        deco_keys = tuple(sorted(decoration))
        if deco_keys != top:
            raise ValueError(
                f"decoration keys {deco_keys} must equal the largest set {top}"
            )
        try:
            return cls(tuple(DecoratedSubset(tuple((i, decoration[i]) for i in s)) for s in sets_t))
        except KeyError as exc:
            raise ValueError(f"index {exc} is outside the largest set {top}") from None

    @classmethod
    def from_prefixes(cls, prefixes: Iterable[DecoratedSubset]) -> "Chain":
        """Assemble a chain from its decorated prefixes, in any order."""
        return cls(tuple(sorted(set(prefixes), key=DecoratedSubset.sort_key)))

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        """The sorted index tuples I_1 < ... < I_l."""
        return tuple(d.indices for d in self.prefixes)

    @property
    def decoration(self) -> tuple[tuple[int, int], ...]:
        """The (index, residue) pairs of the largest set."""
        return self.prefixes[-1].items if self.prefixes else ()

    @property
    def length(self) -> int:
        return len(self.prefixes)

    def is_maximal(self, spec: ArrangementSpec) -> bool:
        return self.length == spec.n and (not self.prefixes or self.prefixes[-1].size == spec.n)

    def sort_key(self):
        """The one chain order: by length, index sets, then decoration."""
        return (self.length, self.sets, self.decoration)

    def text(self) -> str:
        """Canonical text form: prefixes separated by ``<``; empty chain is ``{}``."""
        if not self.prefixes:
            return "{}"
        return "<".join(p.text() for p in self.prefixes)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text()


def parse_chain(text: str, spec: ArrangementSpec | None = None) -> Chain:
    text = text.strip()
    if text in ("", "{}"):
        return Chain.empty()
    prefixes = [parse_subset(part, spec) for part in text.split("<")]
    return Chain.from_prefixes(prefixes)


def jump_type(chain: Chain) -> tuple[int, ...]:
    """The chain's jump type: the composition of its successive set-size
    increments, each part >= 1 because the prefixes strictly nest."""
    sizes = [d.size for d in chain.prefixes]
    return tuple(b - a for a, b in zip([0] + sizes, sizes))


# ---------------------------------------------------------------------------
# Poset operations
# ---------------------------------------------------------------------------


def leq(a: DecoratedSubset, b: DecoratedSubset) -> bool:
    """Partial order: containment of supports with agreeing residues, that
    is, of the sets of (index, residue) pairs."""
    return set(a.items).issubset(b.items)


def comparable(a: DecoratedSubset, b: DecoratedSubset) -> bool:
    return leq(a, b) or leq(b, a)


_BOTTOM = DecoratedSubset(())


def _first_unnested_pair(
    ordered: Sequence[DecoratedSubset],
) -> tuple[DecoratedSubset, DecoratedSubset] | None:
    """The first neighbours (a, b) with a not strictly below b, or None for
    a chain.

    ``ordered`` holds decorated subsets sorted by ``sort_key``.  The
    neighbour test decides chain-ness: ``leq`` is transitive, and two
    distinct subsets of the same size are incomparable.
    """
    for a, b in zip(ordered, ordered[1:]):
        if not (a.size < b.size and leq(a, b)):
            return a, b
    return None


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


def _subset_table(spec: ArrangementSpec) -> dict[tuple[tuple[int, int], ...], DecoratedSubset]:
    """Every nonempty decorated subset, keyed by its ``items``: the one
    object per subset that the chains built over this table share."""
    return {d.items: d for d in enumerate_decorated_subsets(spec)}


def _chains_of_length(spec: ArrangementSpec, table: dict, length: int) -> Iterator[Chain]:
    """The chains of exactly ``length`` prefixes, in ``Chain.sort_key``
    order, their prefixes the table's objects.

    Each flag of index sets grows outward, every next set taken in
    lexicographic order from the subsets of [n] that strictly contain the
    last one and leave room for the sets still to come, so the flags come
    out in lexicographic order.  A flag's r^|top| chains follow, one per
    decoration of its top set in ``itertools.product`` order, each built
    without the per-chain check: restricting one decoration of the top set
    to nested index sets gives nested decorated prefixes.  The prefixes are
    the table's objects, keyed by their ``items``.  The empty flag gives
    the empty chain.
    """
    n = spec.n
    subsets = sorted(s for k in range(1, n + 1) for s in itertools.combinations(range(1, n + 1), k))

    def flags(flag: tuple[tuple[int, ...], ...], k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not k:
            yield flag
            return
        below = set(flag[-1]) if flag else set()
        for s in subsets:
            if len(below) < len(s) <= n - k + 1 and below.issubset(s):
                yield from flags(flag + (s,), k - 1)

    for flag in flags((), length):
        top = flag[-1] if flag else ()
        # each set's indices, paired with their positions in top
        positions = [[(i, top.index(i)) for i in s] for s in flag]
        yield from [
            Chain._trusted(
                tuple([table[tuple([(i, deco[k]) for i, k in pos])] for pos in positions])
            )
            for deco in itertools.product(range(spec.r), repeat=len(top))
        ]


def enumerate_chains(spec: ArrangementSpec, max_length: int) -> Iterator[Chain]:
    """All chains of length <= max_length, in ``Chain.sort_key`` order:
    shortest first, each length one ``_chains_of_length`` pass.

    The stream is re-created from scratch on every call; there is no shared
    cursor, so concurrent consumers are safe.  The chains of one call share
    their decorated subsets: every pass reads one ``_subset_table``, so
    equal prefixes are the same object.  No chain is checked for nesting:
    each flag of index sets nests as it is grown, the prefixes of a chain
    are one decoration of its top set restricted to the flag's sets, and
    restrictions to nested sets nest.
    """
    if not 0 <= max_length <= spec.n:
        raise ValueError(f"max_length must be within [0, {spec.n}], got {max_length}")
    table = _subset_table(spec)
    for length in range(max_length + 1):
        yield from _chains_of_length(spec, table, length)


def maximal_chains(spec: ArrangementSpec) -> list[Chain]:
    """Full flags on [n] with a decoration, n! * r^n of them, in
    ``Chain.sort_key`` order: the length-n pass of ``enumerate_chains``."""
    return list(_chains_of_length(spec, _subset_table(spec), spec.n))


def chain_intersect(a: Chain, b: Chain) -> Chain:
    """The chain labelling the intersection of the two labelled cones.

    The cones are simplicial with one generator per decorated prefix, and in
    a fan the intersection of two cones is a common face, hence spanned by
    exactly the generators the two cones share.  Generators determine their
    prefixes, so the intersection chain consists of the decorated prefixes
    common to both chains.  They are a subsequence of a's prefixes, in a's
    order, so they nest and are not checked again.
    """
    b_prefixes = set(b.prefixes)
    return Chain._trusted(tuple([p for p in a.prefixes if p in b_prefixes]))


# ---------------------------------------------------------------------------
# The maximal building set and its nested sets
# ---------------------------------------------------------------------------


class BuildingSet(_Value):
    """A set of decorated subsets relative to which nestedness is decided.

    Fans are built from the maximal building set only, whose nested sets are
    exactly the decorated chains.
    """

    _fields = ("elements", "spec")

    def __init__(self, elements: frozenset[DecoratedSubset], spec: ArrangementSpec) -> None:
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "spec", spec)

    @classmethod
    def maximal(cls, spec: ArrangementSpec) -> "BuildingSet":
        # every lower interval of the full poset is Boolean, so the whole
        # poset is a building set
        return cls(frozenset(enumerate_decorated_subsets(spec)), spec)

    @property
    def is_maximal(self) -> bool:
        return len(self.elements) == self.spec.num_subsets


def is_nested(s: Iterable[DecoratedSubset], g: BuildingSet) -> bool:
    """Nestedness of s relative to the maximal building set g.

    For the maximal building set the nested sets are exactly the chains:
    the labels, sorted by ``sort_key`` with repeats dropped, pass the
    neighbour test of ``_first_unnested_pair``.
    """
    if not g.is_maximal:
        raise ValueError("nestedness is decided for the maximal building set only")
    s_list = list(s)
    stray = [d for d in s_list if d not in g.elements]
    if stray:
        raise ValueError(f"{min(stray, key=DecoratedSubset.sort_key).text()} is not in the building set")
    return _first_unnested_pair(sorted(set(s_list), key=DecoratedSubset.sort_key)) is None
