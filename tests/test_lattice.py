"""Combinatorics tests: posets, chains, nestedness."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_wonderful.chow import nonempty_chain_count
from cyclic_wonderful.fan import build_fan
from cyclic_wonderful.lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    DecoratedSubset,
    chain_intersect,
    enumerate_chains,
    enumerate_decorated_subsets,
    is_nested,
    jump_type,
    leq,
    maximal_chains,
    orbit_representatives,
    parse_chain,
    parse_subset,
    symmetry_generators,
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


# --- partial order ----------------------------------------------------------


def test_leq_examples():
    assert leq(ds((1, 0)), ds((1, 0), (2, 1)))
    assert not leq(ds((1, 0)), ds((1, 1)))
    assert not leq(ds((1, 0), (2, 1)), ds((1, 0)))


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


# --- chains ------------------------------------------------------------------


def test_chain_validation():
    with pytest.raises(ValueError):
        Chain.of([(1,), (1,)], {1: 0})  # not strictly increasing
    with pytest.raises(ValueError):
        Chain.of([(1,)], {2: 0})  # decoration keys must match the top set
    with pytest.raises(ValueError, match="outside the largest set"):
        Chain.of([(3,), (1, 2)], {1: 0, 2: 0})


@pytest.mark.parametrize(
    "prefixes",
    [
        [ds()],  # the bottom element is no prefix
        [ds((1, 0)), ds((1, 0))],  # sizes must grow strictly
        [ds((1, 0)), ds((1, 1), (2, 0))],  # residues clash
        [ds((1, 0), (2, 0)), ds((1, 0))],  # innermost first
    ],
)
def test_chain_checks_every_pair_of_neighbours(prefixes):
    with pytest.raises(ValueError, match="do not nest"):
        Chain(tuple(prefixes))


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
    # int() reads these as {10:0}, {1:0} and, from Arabic-Indic digits, {1:0}
    for text in ("{1_0:0}", "{1:0_0}", "{\u0661:\u0660}"):
        with pytest.raises(ValueError, match="is not an integer"):
            parse_subset(text)


def test_chain_prefixes():
    c = chain([(2,), (1, 2)], {1: 1, 2: 0})
    assert c.prefixes == (ds((2, 0)), ds((1, 1), (2, 0)))


def test_chain_rejects_an_index_below_one():
    with pytest.raises(ValueError, match=">= 1"):
        Chain((DecoratedSubset(((0, 1),)),))
    with pytest.raises(ValueError, match=">= 1"):
        Chain.of([(0,), (0, 2)], {0: 1, 2: 0})


def test_from_prefixes_keeps_the_subsets_it_was_given():
    given = [ds((1, 1), (2, 0)), ds((2, 0))]
    c = Chain.from_prefixes(given)
    assert c.prefixes == (ds((2, 0)), ds((1, 1), (2, 0)))
    assert c.prefixes[0] is given[1] and c.prefixes[1] is given[0]


_SMALL_CHAINS = [
    c
    for r, n in [(2, 1), (3, 2), (2, 3), (4, 3)]
    for c in enumerate_chains(ArrangementSpec(r, n), n)
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SMALL_CHAINS))
def test_prefixes_equal_fresh_subsets_and_rebuild_the_chain(c):
    deco = dict(c.decoration)
    fresh = tuple(DecoratedSubset.of({i: deco[i] for i in s}) for s in c.sets)
    assert c.prefixes == fresh
    assert Chain.from_prefixes(c.prefixes) == c
    rebuilt = Chain.from_prefixes(reversed(fresh))
    assert rebuilt == c and rebuilt.prefixes == fresh


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
    gens_a = [ray_vector(p, spec) for p in a.prefixes]
    gens_b = [ray_vector(p, spec) for p in b.prefixes]
    gens_r = [ray_vector(p, spec) for p in result.prefixes]
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


def _reference_chain(table, flag, deco):
    """The chain of the flag with each set decorated by restricting deco,
    through the validating constructor."""
    return Chain(tuple(table[tuple((i, deco[i]) for i in s)] for s in flag))


def _reference_chains_of_length(spec, table, length):
    """``_chains_of_length`` as every chain of ``length`` prefixes over the
    table's subsets, each through the validating constructor, sorted by
    ``Chain.sort_key``.  A chain is its top subset with ``length - 1``
    proper subsets of the top's indices below it; the picks that do not
    nest are refused by the constructor and skipped."""
    if length == 0:
        return [Chain(())]
    chains = []
    for top in table.values():
        proper = [s for k in range(1, top.size) for s in itertools.combinations(top.indices, k)]
        for inner in itertools.combinations(proper, length - 1):
            try:
                chains.append(_reference_chain(table, (*inner, top.indices), dict(top.items)))
            except ValueError:
                continue
    return sorted(chains, key=Chain.sort_key)


def _reference_enumerate_chains(spec, max_length):
    """``enumerate_chains`` as the reference passes, shortest first."""
    table = {d.items: d for d in enumerate_decorated_subsets(spec)}
    for length in range(max_length + 1):
        yield from _reference_chains_of_length(spec, table, length)


def _reference_maximal_chains(spec):
    """``maximal_chains`` as one validated chain per (full flag, decoration)."""
    table = {d.items: d for d in enumerate_decorated_subsets(spec)}
    out = []
    for perm in itertools.permutations(range(1, spec.n + 1)):
        flag = tuple(tuple(sorted(perm[: j + 1])) for j in range(spec.n))
        for deco in itertools.product(range(spec.r), repeat=spec.n):
            out.append(_reference_chain(table, flag, dict(zip(range(1, spec.n + 1), deco))))
    return out


_ENUMERATED_SPECS = [(2, 1), (3, 2), (2, 3), (4, 3), (2, 4), (3, 3), (3, 0)]


@pytest.mark.parametrize("r,n", _ENUMERATED_SPECS)
def test_enumerated_chains_nest_and_come_in_the_reference_order(r, n):
    spec = ArrangementSpec(r, n)
    chains = list(enumerate_chains(spec, n))
    full = maximal_chains(spec)
    assert len(chains) == nonempty_chain_count(spec) + 1
    assert len(full) == spec.num_maximal_chains
    # each chain passes the full neighbour check of the public constructor
    for c in chains + full:
        assert Chain(c.prefixes) == c
    assert chains == list(_reference_enumerate_chains(spec, n))
    assert full == _reference_maximal_chains(spec)
    # equal prefixes are one object: one per decorated subset
    assert len({id(d) for c in chains for d in c.prefixes}) == spec.num_subsets


def _strictly_increasing(keys):
    return all(a < b for a, b in zip(keys, keys[1:]))


_ORDER_SPECS = [*itertools.product(range(2, 6), range(5)), (2, 5)]


@pytest.mark.parametrize("r,n", _ORDER_SPECS)
def test_maximal_chains_come_in_the_chain_sort_order(r, n):
    # the normal complex lists its cells in this order without sorting
    keys = [c.sort_key() for c in maximal_chains(ArrangementSpec(r, n))]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


@pytest.mark.parametrize("r,n", _ORDER_SPECS)
def test_every_chain_producer_yields_the_chain_sort_order(r, n):
    spec = ArrangementSpec(r, n)
    by_length = {}
    for c in enumerate_chains(spec, n):
        by_length.setdefault(c.length, []).append(c)
    assert sorted(by_length) == list(range(n + 1))
    for chains in by_length.values():
        assert _strictly_increasing([c.sort_key() for c in chains])
    # maximal_chains is the length-n pass of the same enumeration
    assert maximal_chains(spec) == by_length[n]
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert _strictly_increasing([Chain(cone.label).sort_key() for cone in fan.maximal_cones])
    assert _strictly_increasing([c.sort_key() for c in fan.chains])


@pytest.mark.parametrize("r,n", [(3, 3), (4, 3), (2, 4)])
def test_build_fan_keeps_the_reference_insertion_order(monkeypatch, r, n):
    spec = ArrangementSpec(r, n)
    g = BuildingSet.maximal(spec)
    fan = build_fan(spec, g)
    chains = fan.chains  # the faces are enumerated on this read, before the patch
    monkeypatch.setattr("cyclic_wonderful.fan._chains_of_length", _reference_chains_of_length)
    reference = build_fan(spec, g)
    # fan_to_dict sorts, so the golden digests do not see these orders
    assert chains == reference.chains
    assert list(fan.rays) == list(reference.rays)
    assert fan.maximal_cones == reference.maximal_cones


def test_jump_type_examples():
    c = chain([(3,), (2, 3, 4)], {2: 1, 3: 0, 4: 2})
    assert jump_type(c) == (1, 2)
    assert jump_type(Chain.empty()) == ()
    assert jump_type(chain([(1, 2)], {1: 0, 2: 0})) == (2,)


# --- nested sets -------------------------------------------------------------


def test_nested_examples_for_the_maximal_building_set():
    spec = ArrangementSpec(2, 2)
    g = BuildingSet.maximal(spec)
    assert is_nested({ds((1, 0)), ds((1, 0), (2, 1))}, g)
    assert not is_nested({ds((1, 0)), ds((2, 0))}, g)  # disjoint supports
    assert not is_nested({ds((1, 0)), ds((1, 1))}, g)  # residues clash


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2)])
def test_maximal_nested_means_totally_ordered(r, n):
    spec = ArrangementSpec(r, n)
    g = BuildingSet.maximal(spec)
    elements = enumerate_decorated_subsets(spec)
    for size in range(len(elements) + 1):
        for combo in itertools.combinations(elements, size):
            totally_ordered = all(
                leq(a, b) or leq(b, a) for a, b in itertools.combinations(combo, 2)
            )
            assert is_nested(combo, g) == totally_ordered


def test_is_nested_rejects_elements_outside_the_building_set():
    g = BuildingSet.maximal(ArrangementSpec(2, 1))
    with pytest.raises(ValueError, match="not in the building set"):
        is_nested({ds((1, 0), (2, 0))}, g)
    # the stray label named is the first in sort order, however they come
    with pytest.raises(ValueError, match=r"\{1:0,2:0\} is not"):
        is_nested([ds((1, 0), (2, 0), (3, 0)), ds((1, 0)), ds((1, 0), (2, 0))], g)


@pytest.mark.parametrize("r,n", [(2, 3), (3, 2)])
def test_is_nested_answers_as_the_sorted_distinct_labels(r, n):
    spec = ArrangementSpec(r, n)
    g = BuildingSet.maximal(spec)
    chains = list(enumerate_chains(spec, n))
    assert all(is_nested(chain.prefixes, g) for chain in chains)
    # any order and any repeats give the answer of the sorted distinct labels
    rnd = random.Random(n)
    elements = enumerate_decorated_subsets(spec)
    for chain in chains[::3]:
        labels = list(chain.prefixes) * 2
        rnd.shuffle(labels)
        assert is_nested(labels, g)
        extra = labels + [rnd.choice(elements)]
        assert is_nested(extra, g) == is_nested(sorted(set(extra), key=DecoratedSubset.sort_key), g)


def test_is_nested_rejects_a_non_maximal_building_set():
    spec = ArrangementSpec(2, 2)
    pairs = BuildingSet(frozenset(ds((1, a), (2, b)) for a in (0, 1) for b in (0, 1)), spec)
    with pytest.raises(ValueError, match="maximal building set only"):
        is_nested({ds((1, 0), (2, 0))}, pairs)



# --- the symmetry group ------------------------------------------------------


@pytest.mark.parametrize("r,n", [(2, 0), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_the_generators_carry_the_representatives_onto_every_chain_once(r, n):
    spec = ArrangementSpec(r, n)
    representatives = orbit_representatives(spec)
    assert len(representatives) == 2**n
    assert representatives == sorted(representatives, key=Chain.sort_key)
    generators = symmetry_generators(spec)
    assert len(generators) == n
    chains = set(enumerate_chains(spec, n))
    reached = set()
    for start in representatives:
        # the orbit of each representative, closed under the generators
        orbit, frontier = {start}, [start]
        while frontier:
            c = frontier.pop()
            for g in generators:
                image = g.chain(c)
                assert Chain(image.prefixes) == image  # the image nests
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        assert {jump_type(c) for c in orbit} == {jump_type(start)}
        assert not orbit & reached
        reached |= orbit
    assert reached == chains
