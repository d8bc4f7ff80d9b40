"""Curves in reduced coordinates, the embedding, and its inverse."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fan import basis_image
from test_linalg import combine

from cyclic_wonderful.fan import (
    build_fan,
    locate_point,
    support_decomposition,
    support_point,
)
from cyclic_wonderful.lattice import ArrangementSpec, BuildingSet, Chain, DecoratedSubset
from cyclic_wonderful.sampling import Lcg, sample_curve, sample_support_point
from cyclic_wonderful.tropical import (
    CENTER,
    TropicalCurve,
    combinatorial_type,
    curve_from_point,
    embed,
    parse_curve,
    render_pinwheel,
    validate_curve,
)


def chain(sets, deco):
    return Chain.of(sets, deco)


def all_center(spec):
    """The curve with every orbit on the central vertex."""
    return TropicalCurve.of([CENTER] * spec.n, [0] * spec.n)


# --- construction invariants -------------------------------------------------


def test_curve_requires_zero_length_exactly_on_center():
    with pytest.raises(ValueError):
        TropicalCurve.of([0], [0])  # spoke 0 with length 0
    with pytest.raises(ValueError):
        TropicalCurve.of([CENTER], [1])  # center with positive length
    with pytest.raises(ValueError):
        TropicalCurve.of([1], [-1])


def test_center_is_distinct_from_spoke_zero():
    on_spoke = TropicalCurve.of([0, CENTER], [2, 0])
    at_center = TropicalCurve.of([CENTER, CENTER], [0, 0])
    assert on_spoke != at_center


# --- embedding ---------------------------------------------------------------


def test_embed_trivial_curve_is_origin():
    spec = ArrangementSpec(3, 2)
    assert embed(all_center(spec), spec) == (0, 0, 0, 0)


def test_embed_mixed_directions():
    spec = ArrangementSpec(3, 2)
    curve = TropicalCurve.of([0, 2], [2, 1])
    assert embed(curve, spec) == (-2, -2, 0, 1)


def test_embed_r2_case():
    spec = ArrangementSpec(2, 2)
    curve = TropicalCurve.of([1, 0], [1, 3])
    assert embed(curve, spec) == (1, -3)


def test_embedding_lands_in_the_support():
    spec = ArrangementSpec(3, 3)
    rng = Lcg(7)
    for _ in range(100):
        curve = sample_curve(rng, spec)
        assert support_decomposition(embed(curve, spec), spec) is not None


# --- placement against the combine-based references -------------------------


def combine_embed(curve, spec):
    """The embedding as a sum over every orbit's basis image, the reference
    for the placed embedding."""
    validate_curve(curve, spec)
    # an orbit on the center has length 0, so its stand-in direction 0 drops out
    images = [basis_image(spec, i, s or 0) for i, s in enumerate(curve.spokes, start=1)]
    return combine(curve.lengths, images, spec.ambient_dim, Fraction(0))


def combine_support_point(rng, spec, max_abs=4):
    """The support sampler as a sum over every factor's basis image, the
    reference for the placed sampler: the same draws in the same order."""
    draws = [(rng.below(spec.r + 1), Fraction(rng.below(4 * max_abs), 4)) for _ in range(spec.n)]
    return combine(
        [x if a < spec.r else 0 for a, x in draws],
        [basis_image(spec, i, a) for i, (a, _) in enumerate(draws, start=1)],
        spec.ambient_dim,
        Fraction(0),
    )


specs = st.builds(ArrangementSpec, st.integers(2, 6), st.integers(0, 4))
seeds = st.integers(0, 2**64 - 1)


def all_fractions(point):
    return all(type(x) is Fraction for x in point)


@settings(max_examples=150, deadline=None)
@given(specs, seeds, st.integers(1, 6))
def test_support_sampler_places_the_reference_sum_in_the_same_draw_order(spec, seed, max_abs):
    rng, ref = Lcg(seed), Lcg(seed)
    for _ in range(5):
        point = sample_support_point(rng, spec, max_abs)
        assert point == combine_support_point(ref, spec, max_abs)
        assert rng.state == ref.state
        assert len(point) == spec.ambient_dim and all_fractions(point)


@settings(max_examples=150, deadline=None)
@given(specs, seeds)
def test_embed_places_the_reference_sum(spec, seed):
    rng = Lcg(seed)
    for _ in range(5):
        curve = sample_curve(rng, spec)
        point = embed(curve, spec)
        assert point == combine_embed(curve, spec)
        assert all_fractions(point)
        assert support_point(spec, support_decomposition(point, spec)) == point


@settings(max_examples=150, deadline=None)
@given(st.data(), specs)
def test_embed_of_int_lengths_gives_fraction_entries(data, spec):
    """A curve built with plain int lengths still embeds to Fractions, as
    ``combine``'s ``Fraction(0) + c * x`` made them."""
    spokes = data.draw(
        st.lists(st.one_of(st.none(), st.integers(0, spec.r - 1)), min_size=spec.n, max_size=spec.n)
    )
    lengths = tuple(0 if s is CENTER else data.draw(st.integers(1, 9)) for s in spokes)
    curve = TropicalCurve(tuple(spokes), lengths)
    point, expect = embed(curve, spec), combine_embed(curve, spec)
    assert point == expect
    assert all_fractions(point) and all_fractions(expect)


# --- combinatorial type ------------------------------------------------------


def test_type_of_trivial_curve():
    spec = ArrangementSpec(3, 3)
    assert combinatorial_type(all_center(spec), spec) == Chain.empty()


def test_type_groups_ties():
    spec = ArrangementSpec(3, 3)
    curve = TropicalCurve.of([1, 2, CENTER], [2, 2, 0])
    assert combinatorial_type(curve, spec) == chain([(1, 2)], {1: 2, 2: 1})


def test_type_strict_descents():
    spec = ArrangementSpec(2, 2)
    curve = TropicalCurve.of([0, 0], [3, 1])
    assert combinatorial_type(curve, spec) == chain([(1,), (1, 2)], {1: 0, 2: 0})


def reference_type(curve, spec):
    """The type through the validating ``Chain.of``: the positive lengths'
    orbits grouped by decreasing value into growing sets, index i decorated
    by -l_i mod r."""
    positive = [(length, i) for i, length in enumerate(curve.lengths, start=1) if length > 0]
    sets, current = [], set()
    for v in sorted({length for length, _ in positive}, reverse=True):
        current |= {i for length, i in positive if length == v}
        sets.append(tuple(sorted(current)))
    decoration = {
        i: (-s) % spec.r for i, s in enumerate(curve.spokes, start=1) if s is not CENTER
    }
    return Chain.of(sets, decoration)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.builds(ArrangementSpec, st.integers(2, 5), st.integers(0, 5)))
def test_type_is_the_validated_chain_of_grouped_lengths(data, spec):
    spokes = data.draw(
        st.lists(st.one_of(st.none(), st.integers(0, spec.r - 1)), min_size=spec.n, max_size=spec.n)
    )
    # few distinct lengths, so ties are common
    lengths = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)]
    curve = TropicalCurve(
        tuple(spokes),
        tuple(Fraction(0) if s is CENTER else data.draw(st.sampled_from(lengths)) for s in spokes),
    )
    got = combinatorial_type(curve, spec)
    assert got == reference_type(curve, spec)
    assert hash(got) == hash(reference_type(curve, spec))
    assert Chain(got.prefixes) == got  # the validating constructor accepts it


def test_type_of_every_all_center_curve_is_the_empty_chain():
    for r in range(2, 6):
        for n in range(6):
            spec = ArrangementSpec(r, n)
            curve = all_center(spec)
            assert combinatorial_type(curve, spec) == reference_type(curve, spec) == Chain.empty()


def test_type_is_scaling_invariant():
    spec = ArrangementSpec(3, 2)
    rng = Lcg(3)
    for _ in range(50):
        curve = sample_curve(rng, spec)
        for factor in (Fraction(1, 3), 2, Fraction(7, 2)):
            assert combinatorial_type(curve, spec) == combinatorial_type(
                curve.scaled(factor), spec
            )


# --- inverse -----------------------------------------------------------------


def test_curve_from_origin():
    spec = ArrangementSpec(3, 2)
    assert curve_from_point((0, 0, 0, 0), spec) == all_center(spec)


def test_curve_from_point_inverts_embed_example():
    spec = ArrangementSpec(3, 2)
    assert curve_from_point((-2, -2, 0, 1), spec) == TropicalCurve.of([0, 2], [2, 1])


def test_curve_from_point_outside_support():
    spec = ArrangementSpec(3, 2)
    assert curve_from_point((1, 1, 0, 0), spec) is None


@pytest.mark.parametrize("r,n", [(2, 3), (3, 2), (4, 3)])
def test_the_built_curve_and_prefixes_equal_the_validated_records(r, n):
    # curve_from_point and combinatorial_type build their records unchecked
    spec = ArrangementSpec(r, n)
    rng = Lcg(4)
    for _ in range(100):
        curve = curve_from_point(embed(sample_curve(rng, spec), spec), spec)
        checked = TropicalCurve(curve.spokes, curve.lengths)
        assert (curve, hash(curve)) == (checked, hash(checked))
        for d in combinatorial_type(curve, spec).prefixes:
            assert vars(d) == vars(DecoratedSubset(d.items))


def test_curves_compare_fraction_lengths_by_their_fields(monkeypatch):
    spec = ArrangementSpec(3, 3)
    rng = Lcg(8)
    curves = [sample_curve(rng, spec) for _ in range(200)]
    points = [embed(c, spec) for c in curves]

    def refuse(self, other):
        raise AssertionError("Fraction.__eq__ ran")

    monkeypatch.setattr(Fraction, "__eq__", refuse)
    assert all(curve_from_point(p, spec) == c for c, p in zip(curves, points))
    monkeypatch.undo()
    one = TropicalCurve.of([0, 1], [1, Fraction(1, 2)])
    assert one == TropicalCurve((0, 1), (Fraction(1), Fraction(2, 4)))
    assert one != TropicalCurve.of([0, 1], [1, Fraction(1, 3)])
    assert one != TropicalCurve.of([0, 2], [1, Fraction(1, 2)])
    assert one != TropicalCurve.of([0], [1])
    # other length types compare by ``==``, as before
    mixed = TropicalCurve((0, 1), (1, 0.5))
    assert mixed == one and hash(mixed) == hash(one)
    assert TropicalCurve((0, 1), (1, 0.25)) != one
    assert one != (one.spokes, one.lengths)


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (3, 3)])
def test_round_trip_and_fan_consistency(r, n):
    spec = ArrangementSpec(r, n)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    rng = Lcg(0)
    for _ in range(100):
        curve = sample_curve(rng, spec)
        point = embed(curve, spec)
        assert curve_from_point(point, spec) == curve
        assert combinatorial_type(curve, spec) == locate_point(fan, point)


# --- text forms --------------------------------------------------------------


def test_parse_curve():
    spec = ArrangementSpec(3, 2)
    assert parse_curve("1:0:2,2:2:1", spec) == TropicalCurve.of([0, 2], [2, 1])
    assert parse_curve("1:c:0", spec) == all_center(spec)
    assert parse_curve("2:1:5/2", spec) == TropicalCurve.of([CENTER, 1], [0, Fraction(5, 2)])


def test_parse_curve_rejects_bad_input():
    spec = ArrangementSpec(3, 2)
    with pytest.raises(ValueError):
        parse_curve("5:0:1", spec)
    with pytest.raises(ValueError):
        parse_curve("1:7:1", spec)
    with pytest.raises(ValueError):
        parse_curve("1:0", spec)
    with pytest.raises(ValueError, match="orbit index 1 given more than once"):
        parse_curve("1:0:1,1:1:2", spec)


def test_render_pinwheel_mentions_levels_and_center():
    spec = ArrangementSpec(3, 3)
    curve = TropicalCurve.of([1, 2, CENTER], [2, 1, 0])
    text = render_pinwheel(curve, spec)
    assert "3 spokes" in text
    assert "level 1" in text and "level 2" in text
    assert "center: orbits 3" in text
