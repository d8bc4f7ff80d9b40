"""Tropical curves with cyclic symmetry, in reduced orbit coordinates.

A tropical curve here is a pinwheel metric graph: a central vertex with r
isometric spokes, carrying one marked orbit per index i.  Because lengths
are symmetric under the rotation, the whole curve is determined by, for each
orbit, the distance L_i from the center and the spoke index of the orbit's
representative point; the center itself is encoded separately from spoke 0
so that "sits on the central vertex" is not conflated with "sits on spoke 0
at distance zero".

The embedding L_i, l_i -> sum L_i e_i^(l_i) identifies the set of curves
with the support of the fan, and grouping the positive lengths by decreasing
value reads off the combinatorial type (a chain).  Ties are exact rational
equalities; there is no epsilon anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .fan import support_decomposition, support_point
from .lattice import ArrangementSpec, Chain, DecoratedSubset, _Value
from .linalg import _integer_field, parse_rational

CENTER = None  # spoke value for orbits on the central vertex


class TropicalCurve(_Value):
    """Reduced coordinates: per orbit, a spoke (or CENTER) and a distance."""

    _fields = ("spokes", "lengths")

    def __init__(self, spokes: tuple[int | None, ...], lengths: tuple[Fraction, ...]) -> None:
        if len(spokes) != len(lengths):
            raise ValueError("spokes and lengths must have equal length")
        for k, (s, length) in enumerate(zip(spokes, lengths)):
            # a Fraction has the sign of its numerator
            sign = length.numerator if type(length) is Fraction else length
            if sign < 0:
                raise ValueError(f"negative length {length} for orbit {k + 1}")
            if (sign == 0) != (s is CENTER):
                raise ValueError(
                    f"orbit {k + 1}: zero length exactly when on the center"
                )
        object.__setattr__(self, "spokes", spokes)
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def _trusted(
        cls, spokes: tuple[int | None, ...], lengths: tuple[Fraction, ...]
    ) -> "TropicalCurve":
        """The curve of fields already known to be valid, without the check."""
        curve = object.__new__(cls)
        object.__setattr__(curve, "spokes", spokes)
        object.__setattr__(curve, "lengths", lengths)
        return curve

    # hand-written, as in DecoratedSubset and Chain: a length recovered from
    # a point is a new object, so the generated tuple comparison would run
    # ``Fraction.__eq__`` on it; equal spokes give equally many lengths
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.spokes != other.spokes:
            return False
        for x, y in zip(self.lengths, other.lengths):
            if type(x) is Fraction and type(y) is Fraction:
                if x.numerator != y.numerator or x.denominator != y.denominator:
                    return False
            elif x != y:
                return False
        return True

    def __hash__(self) -> int:
        return hash((self.spokes, self.lengths))

    @classmethod
    def of(
        cls, spokes: Sequence[int | None], lengths: Sequence
    ) -> "TropicalCurve":
        return cls(tuple(spokes), tuple(Fraction(x) for x in lengths))

    def scaled(self, factor) -> "TropicalCurve":
        """The curve with every length times a positive factor: a length
        keeps its sign, so the curve stays valid and is not checked again."""
        f = Fraction(factor)
        if f <= 0:
            raise ValueError("scaling factor must be positive")
        return TropicalCurve._trusted(self.spokes, tuple(f * x for x in self.lengths))


def validate_curve(curve: TropicalCurve, spec: ArrangementSpec) -> None:
    if len(curve.spokes) != spec.n:
        raise ValueError(f"curve has {len(curve.spokes)} orbits, expected {spec.n}")
    for k, s in enumerate(curve.spokes):
        if s is not CENTER and not 0 <= s < spec.r:
            raise ValueError(f"orbit {k + 1}: spoke {s} outside Z_{spec.r}")


def embed(curve: TropicalCurve, spec: ArrangementSpec) -> tuple[Fraction, ...]:
    """Ambient coordinates sum_{L_i > 0} L_i e_i^(l_i), each length placed
    in its orbit's block (``fan.support_point``); an orbit on the center
    (spoke ``CENTER``, which is None) leaves its block zero."""
    validate_curve(curve, spec)
    return support_point(spec, zip(curve.lengths, curve.spokes))


def combinatorial_type(curve: TropicalCurve, spec: ArrangementSpec) -> Chain:
    """The chain of the stratum whose cone interior contains the embedding.

    Decorate each orbit i off the center (of positive length) by -l_i mod r;
    for each distinct length v, in decreasing order, the prefix keeps the
    orbits of length >= v.  These restrictions nest, and each keeps the
    curve's orbits in increasing order, so neither is checked.
    The distinct lengths are found by sorting integer keys with the lengths'
    order (``_length_keys``) and comparing neighbours.
    """
    validate_curve(curve, spec)
    lengths = curve.lengths
    top = [(i, (-s) % spec.r) for i, s in enumerate(curve.spokes, start=1) if s is not CENTER]
    keys = _length_keys([lengths[i - 1] for i, _ in top])
    levels = sorted(keys, reverse=True)
    prefixes = [
        DecoratedSubset._trusted(tuple([p for p, key in zip(top, keys) if key >= v]))
        for k, v in enumerate(levels)
        if k + 1 == len(levels) or levels[k + 1] != v
    ]
    return Chain._trusted(tuple(prefixes))


def _length_keys(lengths: list) -> list:
    """Keys in the order of the lengths and equal exactly when they are:
    ``Fraction`` and ``int`` lengths times their common denominator, each
    numerator and denominator read once, so no ``Fraction`` is compared or
    hashed; any other lengths are their own keys.  Written here, not shared
    with ``linalg.scaled_point``: the scan that ``check`` compares this
    route with clears its points through that."""
    if not all(type(x) is Fraction or type(x) is int for x in lengths):
        return lengths
    dens = [x.denominator for x in lengths]
    common = lcm(*dens)
    return [x.numerator * (common // d) for x, d in zip(lengths, dens)]


def curve_from_point(
    point: Sequence, spec: ArrangementSpec
) -> TropicalCurve | None:
    """Inverse of the embedding, or None outside the fan's support.

    The support decomposition gives one spoke and one length per orbit, the
    length positive on a spoke and 0 on the center, so the curve is built
    without the check."""
    decomp = support_decomposition(point, spec)
    if decomp is None:
        return None
    spokes = tuple(a for _, a in decomp)
    lengths = tuple(x for x, _ in decomp)
    return TropicalCurve._trusted(spokes, lengths)


def parse_curve(text: str, spec: ArrangementSpec) -> TropicalCurve:
    """Parse ``i:spoke:length`` triples, e.g. ``1:0:2,2:2:1`` or ``1:c:0``.

    Every orbit index not mentioned sits on the center; spoke ``c`` means
    the center and requires length zero.  Lengths are integers, ``p/q``
    fractions or plain decimals (``linalg.parse_rational``).
    An orbit index may appear at most once.  The orbit index and the spoke
    are read by ``linalg._integer_field``, which refuses ``0_1`` and ``١``.
    """
    spokes: list[int | None] = [CENTER] * spec.n
    lengths: list[Fraction] = [Fraction(0)] * spec.n
    seen: set[int] = set()
    text = text.strip()
    if text:
        for part in text.split(","):
            fields = part.strip().split(":")
            if len(fields) != 3:
                raise ValueError(f"malformed curve component {part!r}")
            i = _integer_field(fields[0], "orbit index")
            if not 1 <= i <= spec.n:
                raise ValueError(f"orbit index {i} outside [1, {spec.n}]")
            if i in seen:
                raise ValueError(f"orbit index {i} given more than once")
            seen.add(i)
            if fields[1] == "c":
                spoke: int | None = CENTER
            else:
                spoke = _integer_field(fields[1], "spoke")
            spokes[i - 1] = spoke
            lengths[i - 1] = parse_rational(fields[2])
    curve = TropicalCurve(tuple(spokes), tuple(lengths))
    validate_curve(curve, spec)
    return curve


def render_pinwheel(curve: TropicalCurve, spec: ArrangementSpec) -> str:
    """Plain-text sketch of the pinwheel dual graph of the curve's type.

    One line per flag level, outermost first, naming the orbits that sit at
    that distance and the spoke carrying each representative; a final line
    lists the orbits on the central vertex.  No command prints it; the
    tropical walkthrough demo does.
    """
    chain = combinatorial_type(curve, spec)
    lines = [f"pinwheel with {spec.r} spokes, flag length {chain.length}"]
    prev: tuple[int, ...] = ()
    for j in range(1, chain.length + 1):
        level = chain.sets[j - 1]
        fresh = [i for i in level if i not in prev]
        dist = next(
            curve.lengths[i - 1] for i in fresh
        )
        marks = ", ".join(
            f"orbit {i} (representative on spoke {curve.spokes[i - 1]})"
            for i in fresh
        )
        lines.append(f"  level {j} at distance {dist}: {marks}")
        prev = level
    central = [i for i in range(1, spec.n + 1) if curve.spokes[i - 1] is CENTER]
    if central:
        lines.append("  center: orbits " + ", ".join(str(i) for i in central))
    else:
        lines.append("  center: no light orbits")
    return "\n".join(lines)
