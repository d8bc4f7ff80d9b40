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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .fan import basis_image, support_decomposition
from .lattice import ArrangementSpec, Chain
from .linalg import combine

CENTER = None  # spoke value for orbits on the central vertex


@dataclass(frozen=True)
class TropicalCurve:
    """Reduced coordinates: per orbit, a spoke (or CENTER) and a distance."""

    spokes: tuple[int | None, ...]
    lengths: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.spokes) != len(self.lengths):
            raise ValueError("spokes and lengths must have equal length")
        for k, (s, length) in enumerate(zip(self.spokes, self.lengths)):
            if length < 0:
                raise ValueError(f"negative length {length} for orbit {k + 1}")
            if (length == 0) != (s is CENTER):
                raise ValueError(
                    f"orbit {k + 1}: zero length exactly when on the center"
                )

    @classmethod
    def of(
        cls, spokes: Sequence[int | None], lengths: Sequence
    ) -> "TropicalCurve":
        return cls(tuple(spokes), tuple(Fraction(x) for x in lengths))

    @classmethod
    def trivial(cls, spec: ArrangementSpec) -> "TropicalCurve":
        return cls((CENTER,) * spec.n, (Fraction(0),) * spec.n)

    def scaled(self, factor) -> "TropicalCurve":
        f = Fraction(factor)
        if f <= 0:
            raise ValueError("scaling factor must be positive")
        return TropicalCurve(self.spokes, tuple(f * x for x in self.lengths))


def validate_curve(curve: TropicalCurve, spec: ArrangementSpec) -> None:
    if len(curve.spokes) != spec.n:
        raise ValueError(f"curve has {len(curve.spokes)} orbits, expected {spec.n}")
    for k, s in enumerate(curve.spokes):
        if s is not CENTER and not 0 <= s < spec.r:
            raise ValueError(f"orbit {k + 1}: spoke {s} outside Z_{spec.r}")


def embed(curve: TropicalCurve, spec: ArrangementSpec) -> tuple[Fraction, ...]:
    """Ambient coordinates sum_{L_i > 0} L_i e_i^(l_i)."""
    validate_curve(curve, spec)
    # an orbit on the center has length 0, so its stand-in direction 0 drops out
    images = [basis_image(spec, i, s or 0) for i, s in enumerate(curve.spokes, start=1)]
    return combine(curve.lengths, images, spec.ambient_dim, Fraction(0))


def combinatorial_type(curve: TropicalCurve, spec: ArrangementSpec) -> Chain:
    """The chain of the stratum whose cone interior contains the embedding.

    Sort the positive lengths in decreasing order, group exact ties into the
    successive sets of the flag, and decorate index i by -l_i mod r.
    """
    validate_curve(curve, spec)
    positive = [
        (length, i)
        for i, length in enumerate(curve.lengths, start=1)
        if length > 0
    ]
    values = sorted({length for length, _ in positive}, reverse=True)
    sets = []
    current: set[int] = set()
    for v in values:
        current |= {i for length, i in positive if length == v}
        sets.append(tuple(sorted(current)))
    decoration = {
        i: (-s) % spec.r
        for i, s in enumerate(curve.spokes, start=1)
        if s is not CENTER
    }
    return Chain.of(sets, decoration)


def curve_from_point(
    point: Sequence, spec: ArrangementSpec
) -> TropicalCurve | None:
    """Inverse of the embedding, or None outside the fan's support."""
    decomp = support_decomposition(point, spec)
    if decomp is None:
        return None
    spokes = tuple(a for _, a in decomp)
    lengths = tuple(x for x, _ in decomp)
    return TropicalCurve(spokes, lengths)


def parse_curve(text: str, spec: ArrangementSpec) -> TropicalCurve:
    """Parse ``i:spoke:length`` triples, e.g. ``1:0:2,2:2:1`` or ``1:c:0``.

    Every orbit index not mentioned sits on the center; spoke ``c`` means
    the center and requires length zero.  Lengths may be ``p/q`` fractions.
    """
    spokes: list[int | None] = [CENTER] * spec.n
    lengths: list[Fraction] = [Fraction(0)] * spec.n
    text = text.strip()
    if text:
        for part in text.split(","):
            fields = part.strip().split(":")
            if len(fields) != 3:
                raise ValueError(f"malformed curve component {part!r}")
            i = int(fields[0])
            if not 1 <= i <= spec.n:
                raise ValueError(f"orbit index {i} outside [1, {spec.n}]")
            if fields[1] == "c":
                spoke: int | None = CENTER
            else:
                spoke = int(fields[1])
            try:
                length = Fraction(fields[2])
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in curve component {part!r}") from None
            spokes[i - 1] = spoke
            lengths[i - 1] = length
    curve = TropicalCurve(tuple(spokes), tuple(lengths))
    validate_curve(curve, spec)
    return curve


def format_curve(curve: TropicalCurve) -> str:
    parts = []
    for i, (s, length) in enumerate(zip(curve.spokes, curve.lengths), start=1):
        spoke = "c" if s is CENTER else str(s)
        parts.append(f"{i}:{spoke}:{length}")
    return ",".join(parts)


def render_pinwheel(curve: TropicalCurve, spec: ArrangementSpec) -> str:
    """Plain-text sketch of the pinwheel dual graph of the curve's type.

    One line per flag level, outermost first, naming the orbits that sit at
    that distance and the spoke carrying each representative; a final line
    lists the orbits on the central vertex.
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
