"""The sample streams behind ``check`` and the tests: pinned byte for byte.

The digests are the sha256 of ``repr`` of each stream, recorded before the
sampled rationals were built once per value; any change to a draw, a value
or a type fails here.
"""

import hashlib
from fractions import Fraction

import pytest

from cyclic_wonderful.lattice import ArrangementSpec
from cyclic_wonderful.sampling import Lcg, sample_curve, sample_mixed_points
from cyclic_wonderful.tropical import TropicalCurve, validate_curve

STREAMS = {
    (3, 2, 5): "15a76c9502b88473e96bfe13595ef5d7f8a681963dbdc02996fa1146765f1bee",
    (3, 2, 11): "e0d42fb6f204104ec6a46a2a99e2c21d1863fb884a950dd44b46f8aeb1e7ff47",
    (2, 3, 5): "d80c6abd14f2b91bc6245a48d9c60f58dcb8faca91fc075457a039da5caa2ed5",
    (2, 3, 11): "562060e9ba1f1bf16150beb2aa21cc53cfff695178e60956fc55abce9861cac6",
    (4, 3, 5): "ad29055ed442d96330c39df40e11d4180c12c5bdb9b7e96f77cd273761b072f9",
    (4, 3, 11): "3935f5ae096f06a73b31ebb202afbbba650d662e6cdc0bd28c64003ac148430a",
}


def stream(r, n, seed):
    """Mixed points at the default bound and at the normal suite's, then
    curves, all from one generator."""
    spec = ArrangementSpec(r, n)
    rng = Lcg(seed)
    points = sample_mixed_points(rng, spec, 300)
    points += sample_mixed_points(rng, spec, 100, max_abs=spec.n + 2)
    curves = [sample_curve(rng, spec) for _ in range(200)]
    return points, curves


@pytest.mark.parametrize("r,n,seed", sorted(STREAMS), ids=[f"{r}-{n}-seed{s}" for r, n, s in sorted(STREAMS)])
def test_sample_streams_are_pinned(r, n, seed):
    points, curves = stream(r, n, seed)
    assert hashlib.sha256(repr((points, curves)).encode()).hexdigest() == STREAMS[r, n, seed]
    entries = [x for p in points for x in p] + [x for c in curves for x in c.lengths]
    assert all(type(x) is Fraction for x in entries)


def test_a_generator_builds_each_drawn_rational_once():
    rng = Lcg(4)
    # one denominator, so equal values are equal draws: one object each
    draws = [rng.fraction(3, max_den=1) for _ in range(500)]
    assert len({id(x) for x in draws}) == len(set(draws)) == 7
    curves = [sample_curve(rng, ArrangementSpec(3, 3)) for _ in range(100)]
    zeros = [x for c in curves for x in c.lengths if x == 0]
    assert zeros and len({id(x) for x in zeros}) == 1
    # the cache is the generator's own: a fresh generator builds its own
    assert Lcg(4).fraction(3) is not Lcg(4).fraction(3)


@pytest.mark.parametrize("r,n,seed", [(3, 2, 5), (2, 3, 11), (4, 3, 5), (7, 1, 0)])
def test_sampled_and_scaled_curves_skip_the_check_and_pass_it(monkeypatch, r, n, seed):
    spec = ArrangementSpec(r, n)
    rng = Lcg(seed)

    def refuse(self, spokes, lengths):
        raise AssertionError("a curve built by the program was checked")

    # a sampled curve and its multiples are valid by construction, so
    # neither is built through the validating constructor
    with monkeypatch.context() as m:
        m.setattr(TropicalCurve, "__init__", refuse)
        curves = [sample_curve(rng, spec) for _ in range(300)]
        built = [(c, c.scaled(3), c.scaled(Fraction(2, 7))) for c in curves]
    # and each equals the curve the validating constructor builds
    for trio in built:
        for curve in trio:
            validate_curve(curve, spec)
            assert TropicalCurve(curve.spokes, curve.lengths) == curve
            assert all(type(x) is Fraction for x in curve.lengths)
    # the factor is still checked
    for factor in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="positive"):
            curves[0].scaled(factor)
