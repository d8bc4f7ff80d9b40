"""Combinatorics tests: posets, joins, chains, nestedness."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_wonderful.lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    DecoratedSubset,
    JumpType,
    chain_intersect,
    enumerate_chains,
    enumerate_decorated_subsets,
    is_nested,
    join,
    jump_type,
    leq,
    maximal_chains,
    parse_chain,
    parse_subset,
)


def ds(*pairs):
    return DecoratedSubset.of(pairs)


def chain(sets, deco):
    return Chain.of(sets, deco)


# --- spec validation ---------------------------------------------------------


def test_spec_rejects_r_below_two():
    with pytest.raises(ValueError):
        ArrangementSpec(1, 3)
    with pytest.raises(ValueError):
        ArrangementSpec(2, -1)


def test_n_zero_is_the_trivial_case():
    spec = ArrangementSpec(2, 0)
    assert enumerate_decorated_subsets(spec) == []
    assert list(enumerate_chains(spec, 0)) == [Chain.empty()]


# --- enumeration -------------------------------------------------------------


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_subset_count_formula(r, n):
    subs = enumerate_decorated_subsets(ArrangementSpec(r, n))
    assert len(subs) == (1 + r) ** n - 1
    assert len(set(subs)) == len(subs)
    # the enumeration comes out in the documented global order
    assert [d.sort_key() for d in subs] == sorted(d.sort_key() for d in subs)


def test_enumeration_r2_n1_explicit():
    subs = enumerate_decorated_subsets(ArrangementSpec(2, 1))
    assert subs == [ds((1, 0)), ds((1, 1))]


def test_enumeration_counts_cross_checked_by_brute_force():
    # independent count: decorate each factor with one of r residues or skip it
    for r, n in [(2, 2), (3, 2)]:
        brute = sum(
            1
            for combo in itertools.product(range(r + 1), repeat=n)
            if any(c < r for c in combo)
        )
        assert len(enumerate_decorated_subsets(ArrangementSpec(r, n))) == brute


# --- partial order and joins -------------------------------------------------


def test_leq_examples():
    assert leq(ds((1, 0)), ds((1, 0), (2, 1)))
    assert not leq(ds((1, 0)), ds((1, 1)))
    assert not leq(ds((1, 0), (2, 1)), ds((1, 0)))


def test_join_examples():
    assert join(ds((1, 0)), ds((2, 1))) == ds((1, 0), (2, 1))
    assert join(ds((1, 0)), ds((1, 1))) is None
    assert join(ds((1, 0)), ds((1, 0), (2, 1))) == ds((1, 0), (2, 1))


subset_strategy = st.dictionaries(
    st.integers(1, 3), st.integers(0, 2), min_size=0, max_size=3
).map(DecoratedSubset.of)


@settings(max_examples=200, deadline=None)
@given(subset_strategy, subset_strategy, subset_strategy)
def test_leq_is_a_partial_order(a, b, c):
    assert leq(a, a)
    if leq(a, b) and leq(b, a):
        assert a == b
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


@settings(max_examples=200, deadline=None)
@given(subset_strategy, subset_strategy, subset_strategy)
def test_join_is_the_least_upper_bound(a, b, c):
    j = join(a, b)
    if j is None:
        # no common upper bound can exist either
        assert not (leq(a, c) and leq(b, c))
    else:
        assert leq(a, j) and leq(b, j)
        if leq(a, c) and leq(b, c):
            assert leq(j, c)


# --- chains ------------------------------------------------------------------


def test_chain_validation():
    with pytest.raises(ValueError):
        Chain.of([(1,), (1,)], {1: 0})  # not strictly increasing
    with pytest.raises(ValueError):
        Chain.of([(1,)], {2: 0})  # decoration keys must match the top set


def test_chain_text_round_trip():
    c = chain([(3,), (2, 3, 4)], {2: 1, 3: 0, 4: 2})
    assert c.text() == "{3:0}<{2:1,3:0,4:2}"
    assert parse_chain(c.text()) == c
    assert parse_chain("{}") == Chain.empty()
    assert Chain.empty().text() == "{}"


def test_subset_text_round_trip():
    d = ds((1, 0), (3, 2))
    assert d.text() == "{1:0,3:2}"
    assert parse_subset(d.text()) == d


def test_chain_prefixes():
    c = chain([(2,), (1, 2)], {1: 1, 2: 0})
    assert c.prefixes() == (ds((2, 0)), ds((1, 1), (2, 0)))


# --- chain intersection ------------------------------------------------------


def cone_membership(vector, generators):
    """Independent oracle: exact nonnegative solve against the generators."""
    from cyclic_wonderful.linalg import solve_columns

    if not generators:
        return all(x == 0 for x in vector)
    sol = solve_columns(generators, vector)
    return sol is not None and all(c >= 0 for c in sol)


def cones_intersect_correctly(a, b, spec):
    """Double inclusion of cone(a) /\\ cone(b) against the computed chain."""
    from cyclic_wonderful.fan import ray_vector

    result = chain_intersect(a, b)
    gens_a = [ray_vector(p, spec) for p in a.prefixes()]
    gens_b = [ray_vector(p, spec) for p in b.prefixes()]
    gens_r = [ray_vector(p, spec) for p in result.prefixes()]
    # every generator of the result is in both cones
    if not all(
        cone_membership(g, gens_a) and cone_membership(g, gens_b) for g in gens_r
    ):
        return False
    # every generator of one cone lying in the other lies in the result
    for g in gens_a:
        if cone_membership(g, gens_b) and not cone_membership(g, gens_r):
            return False
    for g in gens_b:
        if cone_membership(g, gens_a) and not cone_membership(g, gens_r):
            return False
    return True


def test_chain_intersect_conflicting_decorations_give_the_zero_cone():
    # the two rays point in different directions, so the cones meet only at 0
    a = chain([(1, 2)], {1: 0, 2: 1})
    b = chain([(1, 2)], {1: 0, 2: 0})
    spec = ArrangementSpec(2, 2)
    result = chain_intersect(a, b)
    assert result == Chain.empty()
    assert cones_intersect_correctly(a, b, spec)


def test_chain_intersect_idempotent_example():
    a = chain([(2,), (1, 2)], {1: 1, 2: 0})
    assert chain_intersect(a, a) == a


def test_chain_intersect_disjoint_supports():
    a = chain([(1,)], {1: 0})
    b = chain([(2,)], {2: 1})
    assert chain_intersect(a, b) == Chain.empty()


def test_chain_intersect_shared_prefix():
    a = chain([(1,), (1, 2)], {1: 0, 2: 0})
    b = chain([(1,), (1, 2)], {1: 0, 2: 1})
    assert chain_intersect(a, b) == chain([(1,)], {1: 0})


def test_chain_intersect_algebraic_laws():
    spec = ArrangementSpec(2, 2)
    chains = list(enumerate_chains(spec, 2))
    for a, b in itertools.product(chains, repeat=2):
        assert chain_intersect(a, b) == chain_intersect(b, a)
        assert chain_intersect(a, a) == a
    for a, b, c in itertools.islice(itertools.product(chains, repeat=3), 0, None, 7):
        assert chain_intersect(chain_intersect(a, b), c) == chain_intersect(
            a, chain_intersect(b, c)
        )


# --- chain enumeration and jump types ---------------------------------------


@pytest.mark.parametrize(
    "r,n,expected", [(2, 2, 8), (3, 2, 18), (2, 3, 48), (4, 2, 32)]
)
def test_maximal_chain_count(r, n, expected):
    spec = ArrangementSpec(r, n)
    full = [
        c
        for c in enumerate_chains(spec, n)
        if c.length == n and c.sets and len(c.sets[-1]) == n
    ]
    assert len(full) == expected == spec.num_maximal_chains
    assert sorted(full, key=Chain.sort_key) == sorted(
        maximal_chains(spec), key=Chain.sort_key
    )


def test_enumerate_chains_is_deterministic():
    spec = ArrangementSpec(3, 2)
    assert list(enumerate_chains(spec, 2)) == list(enumerate_chains(spec, 2))


def test_enumerate_chains_length_zero():
    assert list(enumerate_chains(ArrangementSpec(4, 3), 0)) == [Chain.empty()]


def test_jump_type_examples():
    c = chain([(3,), (2, 3, 4)], {2: 1, 3: 0, 4: 2})
    assert jump_type(c) == JumpType((1, 2))
    assert jump_type(Chain.empty()) == JumpType(())
    assert jump_type(chain([(1, 2)], {1: 0, 2: 0})) == JumpType((2,))


# --- nested sets -------------------------------------------------------------


def test_nested_examples_for_the_maximal_building_set():
    spec = ArrangementSpec(2, 2)
    g = BuildingSet.maximal(spec)
    assert is_nested({ds((1, 0)), ds((1, 0), (2, 1))}, g)
    assert not is_nested({ds((1, 0)), ds((2, 0))}, g)  # join exists and is in g
    assert not is_nested({ds((1, 0)), ds((1, 1))}, g)  # join is absent


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2)])
def test_maximal_nested_means_totally_ordered(r, n):
    spec = ArrangementSpec(r, n)
    g = BuildingSet.maximal(spec)
    elements = g.sorted_elements()
    for size in range(len(elements) + 1):
        for combo in itertools.combinations(elements, size):
            totally_ordered = all(
                leq(a, b) or leq(b, a) for a, b in itertools.combinations(combo, 2)
            )
            assert is_nested(combo, g) == totally_ordered


def test_product_nestedness_factor_by_factor():
    # for the union of the per-factor singleton building sets, a set is nested
    # exactly when each factor contributes at most one element
    spec = ArrangementSpec(2, 2)
    g = BuildingSet.singletons(spec)
    for size in range(len(g.elements) + 1):
        for combo in itertools.combinations(g.sorted_elements(), size):
            per_factor_ok = all(
                len([d for d in combo if d.indices == (i,)]) <= 1
                for i in (1, 2)
            )
            assert is_nested(combo, g) == per_factor_ok


def test_is_nested_rejects_elements_outside_the_building_set():
    spec = ArrangementSpec(2, 2)
    g = BuildingSet.singletons(spec)
    with pytest.raises(ValueError):
        is_nested({ds((1, 0), (2, 0))}, g)

