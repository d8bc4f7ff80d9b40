"""Deterministic sampling for the self-check suites and tests.

The generator is a 64-bit linear congruential recurrence, fixed here so any
implementation can reproduce the exact sample streams:

    state_{k+1} = (6364136223846793005 * state_k + 1442695040888963407) mod 2^64

with state_0 = seed (default 0).  Draws use the high bits: an integer below
m is ((state >> 16) % m) taken after advancing the state once.  All derived
samples (rationals, ambient points, curves) are defined purely in terms of
that draw, in the order written below.  A support point takes all its
draws first, direction then length per factor, and is then placed from
them (``fan.support_point``), so placing it draws nothing.

Each generator builds every sampled rational once: the ``Fraction`` of a
drawn ``(numerator, denominator)`` pair is kept on the generator, and a
later equal draw returns that same object.  The cache holds at most one
entry per distinct pair drawn (a few hundred for the suites' bounds) and
lives as long as the generator; the draws, the values and their type are
those of a fresh ``Fraction(num, den)``.
"""

from __future__ import annotations

from fractions import Fraction

from .fan import support_point
from .lattice import ArrangementSpec
from .tropical import CENTER, TropicalCurve

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    def __init__(self, seed: int = 0):
        self.state = seed & _MASK
        self._fractions: dict[tuple[int, int], Fraction] = {}

    def below(self, m: int) -> int:
        """Uniform-ish integer in [0, m)."""
        if m <= 0:
            raise ValueError("m must be positive")
        # every sampled value draws through here: advance, then read the high bits
        self.state = state = (_MULT * self.state + _INC) & _MASK
        return (state >> 16) % m

    def _fraction(self, num: int, den: int) -> Fraction:
        """``Fraction(num, den)``, built once per generator for each pair."""
        x = self._fractions.get((num, den))
        if x is None:
            x = self._fractions[num, den] = Fraction(num, den)
        return x

    def fraction(self, max_abs: int, max_den: int = 4) -> Fraction:
        """Rational in [-max_abs, max_abs]: denominator first, then numerator."""
        den = 1 + self.below(max_den)
        num = self.below(2 * max_abs * den + 1) - max_abs * den
        return self._fraction(num, den)


def sample_ambient_point(rng: Lcg, spec: ArrangementSpec, max_abs: int = 8) -> tuple[Fraction, ...]:
    """A point of the ambient lattice space with small rational coordinates."""
    return tuple([rng.fraction(max_abs) for _ in range(spec.ambient_dim)])


def sample_support_point(rng: Lcg, spec: ArrangementSpec, max_abs: int = 4) -> tuple[Fraction, ...]:
    """A point of the fan's support: per factor, a direction and a length."""
    # per factor, direction then length; direction r means "length zero"
    draws = [(rng.below(spec.r + 1), rng._fraction(rng.below(4 * max_abs), 4)) for _ in range(spec.n)]
    return support_point(spec, [(x, a if a < spec.r else None) for a, x in draws])


def sample_mixed_points(
    rng: Lcg, spec: ArrangementSpec, count: int, max_abs: int = 6
) -> list[tuple[Fraction, ...]]:
    """Alternating ambient-box and on-support samples.

    Box samples exercise the generic rejection paths; support samples land on
    the fan so membership predicates see true cases as well.
    """
    out = []
    for k in range(count):
        if k % 2 == 0:
            out.append(sample_ambient_point(rng, spec, max_abs))
        else:
            out.append(sample_support_point(rng, spec, max_abs))
    return out


def sample_curve(rng: Lcg, spec: ArrangementSpec, max_abs: int = 6) -> TropicalCurve:
    """A random curve: each orbit is on the center or on a spoke at a
    positive rational distance."""
    spokes: list[int | None] = []
    lengths: list[Fraction] = []
    for _ in range(spec.n):
        direction = rng.below(spec.r + 1)
        if direction == spec.r:
            spokes.append(CENTER)
            lengths.append(rng._fraction(0, 1))
        else:
            spokes.append(direction)
            den = 1 + rng.below(4)
            num = 1 + rng.below(max_abs * den)
            lengths.append(rng._fraction(num, den))
    # valid as drawn: a zero length exactly on the center, else a positive one
    return TropicalCurve._trusted(tuple(spokes), tuple(lengths))
