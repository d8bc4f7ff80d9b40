"""Presentation, graded ranks (both routes), strata products, jump census."""

import itertools
from math import comb, factorial

import pytest
from test_linalg import ReferenceEliminator, independent_row_indices

from cyclic_wonderful.chow import (
    ChowPresentation,
    DegreeReducer,
    GradedDims,
    LinearRelation,
    _ChainMonomials,
    _relation_rows,
    _relation_space,
    _relation_spaces,
    betti_closed_form,
    betti_oracle,
    expected_jump_count,
    jump_census,
    nonempty_chain_count,
    presentation,
    product_support,
    top_monomial_count,
)
from cyclic_wonderful.guards import FeasibilityError
from cyclic_wonderful.lattice import (
    ArrangementSpec,
    Chain,
    DecoratedSubset,
    JumpType,
    comparable,
    enumerate_chains,
    jump_type,
)
from cyclic_wonderful.linalg import SparseEliminator
from cyclic_wonderful.selfcheck import suite_chow


def ds(*pairs):
    return DecoratedSubset.of(pairs)


# --- presentation ------------------------------------------------------------


def test_presentation_r2_n1():
    pres = presentation(ArrangementSpec(2, 1))
    assert pres.generators == (ds((1, 0)), ds((1, 1)))
    assert len(pres.linear_relations) == 1
    rel = pres.linear_relations[0]
    assert dict(rel.coeffs) == {0: 1, 1: -1}  # identifies the two generators
    assert not comparable(ds((1, 0)), ds((1, 1)))
    assert betti_oracle(ArrangementSpec(2, 1)) == GradedDims((1, 1))


def test_presentation_r3_n1():
    spec = ArrangementSpec(3, 1)
    pres = presentation(spec)
    assert len(pres.generators) == 3
    # the relations identify all three generators pairwise
    assert len(pres.linear_relations) == 3
    assert len(pres.reduced_indices) == 2
    for a, b in itertools.combinations(pres.generators, 2):
        assert not comparable(a, b)
    assert betti_oracle(spec) == GradedDims((1, 1))


def test_presentation_r2_n2_counts():
    spec = ArrangementSpec(2, 2)
    pres = presentation(spec)
    assert len(pres.generators) == 8
    # n r (r-1) / 2 emitted, n (r-1) after reduction
    assert len(pres.linear_relations) == 2
    assert len(pres.reduced_indices) == 2
    incomparable = [
        (a, b)
        for a, b in itertools.combinations(pres.generators, 2)
        if not comparable(a, b)
    ]
    assert len(incomparable) == 20  # 28 pairs, 8 of them comparable


@pytest.mark.parametrize(
    "r,n", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]
)
def test_emitted_and_reduced_relation_counts(r, n):
    pres = presentation(ArrangementSpec(r, n))
    assert len(pres.linear_relations) == n * r * (r - 1) // 2
    assert len(pres.reduced_indices) == n * (r - 1)


@pytest.mark.parametrize("r", range(2, 8))
@pytest.mark.parametrize("n", range(4))
def test_reduced_relations_are_the_rows_a_greedy_elimination_keeps(r, n):
    # the closed form (i, 0, b) against the elimination in emission order
    pres = presentation(ArrangementSpec(r, n))
    greedy = independent_row_indices(rel.as_dict() for rel in pres.linear_relations)
    assert list(pres.reduced_indices) == greedy
    assert all(pres.linear_relations[k].a == 0 for k in greedy)


def test_presentation_at_n1_runs_no_elimination(monkeypatch):
    # the greedy choice took about r^3 / 6 reduction steps at n = 1 and did
    # not finish at r = 1000, which the guards admit
    def refuse(*args):
        raise AssertionError("presentation ran an elimination")

    monkeypatch.setattr(SparseEliminator, "add", refuse)
    pres = presentation(ArrangementSpec(1000, 1))
    assert len(pres.linear_relations) == 1000 * 999 // 2
    assert pres.reduced_indices == tuple(range(999))


def test_check_fails_reduced_relations_the_elimination_does_not_keep(monkeypatch):
    def swapped(spec):
        pres = presentation(spec)
        last = len(pres.linear_relations) - 1  # (n, r-2, r-1), a dependent one
        indices = (*pres.reduced_indices[:-1], last)
        return ChowPresentation(spec, pres.generators, pres.linear_relations, indices)

    monkeypatch.setattr("cyclic_wonderful.chow.presentation", swapped)
    results = {c.name: c for c in suite_chow(ArrangementSpec(3, 2))}
    assert results["reduced relation count n (r-1)"].status == "FAIL"


def test_check_fails_a_relation_that_is_not_the_difference_of_reduced_ones(monkeypatch):
    def flipped(spec):
        pres = presentation(spec)
        relations = list(pres.linear_relations)
        k = next(k for k, rel in enumerate(relations) if rel.a > 0)  # (1, 1, 2)
        rel = relations[k]
        (x, c), *rest = rel.coeffs
        relations[k] = LinearRelation(rel.i, rel.a, rel.b, ((x, -c), *rest))
        return ChowPresentation(spec, pres.generators, tuple(relations), pres.reduced_indices)

    monkeypatch.setattr("cyclic_wonderful.chow.presentation", flipped)
    results = {c.name: c for c in suite_chow(ArrangementSpec(3, 2))}
    assert results["reduced relation count n (r-1)"].status == "FAIL"


def test_check_certifies_the_reduced_relations_at_n1_without_an_elimination(monkeypatch):
    # the line's elimination took about r^3 / 6 steps at n = 1; it is now
    # one pass over the emitted coefficients
    def refuse(*args):
        raise AssertionError("the check ran an elimination")

    # the rank oracle has its own line and eliminates; this one must not
    monkeypatch.setattr(
        "cyclic_wonderful.chow.betti_oracle", lambda spec, **kwargs: betti_closed_form(spec)
    )
    monkeypatch.setattr(SparseEliminator, "add", refuse)
    results = {c.name: c for c in suite_chow(ArrangementSpec(200, 1))}
    line = results["reduced relation count n (r-1)"]
    assert (line.status, line.detail) == ("PASS", "199 independent of 19900 emitted")


def test_presentation_generator_count():
    spec = ArrangementSpec(3, 2)
    assert len(presentation(spec).generators) == spec.num_subsets


@pytest.mark.parametrize("r,n", [(2, 1), (5, 1), (2, 3), (4, 2), (3, 3), (5, 2), (2, 4)])
def test_presentation_relations_equal_a_scan_per_relation(r, n):
    # the reference scans every generator once per relation (i, a, b)
    pres = presentation(ArrangementSpec(r, n))
    expected = []
    for i in range(1, n + 1):
        for a, b in itertools.combinations(range(r), 2):
            coeffs = []
            for x, d in enumerate(pres.generators):
                deco = dict(d.items)
                if deco.get(i) == a:
                    coeffs.append((x, 1))
                elif deco.get(i) == b:
                    coeffs.append((x, -1))
            expected.append((i, a, b, tuple(coeffs)))
    assert [(rel.i, rel.a, rel.b, rel.coeffs) for rel in pres.linear_relations] == expected


# --- product support ---------------------------------------------------------


def test_product_support_comparable_pair():
    result = product_support([ds((1, 0)), ds((1, 0), (2, 1))])
    assert result == Chain.of([(1,), (1, 2)], {1: 0, 2: 1})


def test_product_support_vanishing_cases():
    assert product_support([ds((1, 0)), ds((1, 1))]) is None
    assert product_support([ds((1, 0)), ds((2, 0))]) is None


def test_product_support_deduplicates():
    assert product_support([ds((1, 0)), ds((1, 0))]) == Chain.of([(1,)], {1: 0})


def test_product_support_rejects_empty_input():
    with pytest.raises(ValueError):
        product_support([])


# --- graded ranks ------------------------------------------------------------


GRID = [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)]


@pytest.mark.parametrize("r,n", GRID)
def test_closed_form_equals_oracle(r, n):
    spec = ArrangementSpec(r, n)
    assert betti_closed_form(spec) == betti_oracle(spec)


def test_specific_rank_vectors():
    assert betti_closed_form(ArrangementSpec(2, 2)).dims == (1, 6, 1)
    assert betti_closed_form(ArrangementSpec(3, 2)).dims == (1, 11, 1)
    assert betti_closed_form(ArrangementSpec(2, 3)).dims == (1, 23, 23, 1)


# every (r, n) with 2 <= r <= 6 and 0 <= n <= 5, exhaustively, and large n
CLOSED_FORM_GRID = [(r, n) for r in range(2, 7) for n in range(6)] + [(3, 40), (5, 25)]


@pytest.mark.parametrize("r,n", CLOSED_FORM_GRID)
def test_rank_one_piece_formula(r, n):
    spec = ArrangementSpec(r, n)
    dims = betti_closed_form(spec).dims
    if n >= 1:
        assert dims[1] == (1 + r) ** n - 1 - n * (r - 1)


@pytest.mark.parametrize("r,n", CLOSED_FORM_GRID)
def test_closed_form_is_palindromic(r, n):
    # Poincare duality of the smooth compact space
    dims = betti_closed_form(ArrangementSpec(r, n)).dims
    assert len(dims) == n + 1 and dims[0] == dims[n] == 1
    assert dims == dims[::-1]


def test_r2_total_rank_counts_maximal_cones_and_is_palindromic():
    for n in range(1, 61):
        spec = ArrangementSpec(2, n)
        dims = betti_closed_form(spec).dims
        assert sum(dims) == factorial(n) * 2**n == spec.num_maximal_chains
        assert dims == dims[::-1]


def compositions_min2(total_max):
    """Compositions with all parts >= 2 and sum <= total_max, the empty one too."""
    found, frontier = [], [()]
    while frontier:
        found.extend(frontier)
        frontier = [c + (p,) for c in frontier for p in range(2, total_max - sum(c) + 1)]
    return found


def composition_sum_ranks(r, n):
    """The jump-type sum one composition j at a time: multinomial(n; j) r^|j|
    times prod_i (t + ... + t^(j_i - 1)) times (1 + t)^(n - |j|)."""
    dims = [0] * (n + 1)
    for j in compositions_min2(n):
        rest = n - sum(j)
        weight = factorial(n) // factorial(rest) * r ** sum(j)
        for part in j:
            weight //= factorial(part)
        for mu in itertools.product(*(range(1, part) for part in j)):
            for e in range(rest + 1):
                dims[sum(mu) + e] += weight * comb(rest, e)
    return tuple(dims)


@pytest.mark.parametrize("r,n", [(r, n) for r in range(2, 6) for n in range(11)])
def test_closed_form_recurrence_equals_the_composition_sum(r, n):
    assert betti_closed_form(ArrangementSpec(r, n)).dims == composition_sum_ranks(r, n)


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (4, 2), (4, 3), (2, 4)])
def test_oracle_ranks_are_palindromic(r, n):
    dims = betti_oracle(ArrangementSpec(r, n)).dims
    assert dims == dims[::-1]


def expanded_rows(monomials, relations, k):
    """Every (relation) x (degree k-1 chain monomial) row over the degree-k
    chain monomials, with no row skipped: the reference for the oracle."""
    columns = monomials.columns(k)
    for rel in relations:
        for mono in monomials.degree(k - 1):
            row = {}
            for g, coeff in rel.coeffs:
                col = columns.get(tuple(sorted(mono + (g,))))
                if col is not None:
                    row[col] = row.get(col, 0) + coeff
            yield row


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_relation_space_rank_matches_dense_rank_of_all_emitted_relations(r, n):
    # the oracle expands only the reduced relations, numbers columns in
    # reverse lexicographic order, feeds its rows relation-major and skips
    # the rows the F5 criterion proves redundant; none of that may change
    # the span of (every emitted relation) x (chain monomial), built densely
    spec = ArrangementSpec(r, n)
    pres = presentation(spec)
    gens = pres.generators
    for k in range(1, n + 1):
        monomials, _, elim = _relation_spaces(spec, k)
        basis = [
            mono
            for mono in itertools.combinations_with_replacement(range(len(gens)), k)
            if all(comparable(gens[x], gens[y]) for x, y in itertools.combinations(mono, 2))
        ]
        assert monomials.degree(k) == basis
        # every row of every emitted relation, ranked by the cross-multiplied
        # reference (a Fraction RREF takes 10 s at (3, 3), degree 3)
        reference = ReferenceEliminator()
        for row in expanded_rows(monomials, pres.linear_relations, k):
            assert elim.is_in_span(row)
            reference.add(row)
        assert elim.rank == reference.rank


@pytest.mark.parametrize("r,n", [(2, 2), (2, 3), (2, 4)])
def test_every_fed_row_raises_the_rank_at_r2(monkeypatch, r, n):
    # at r = 2 the F5 criterion skips every row that would reduce to zero
    fed = []
    add = SparseEliminator.add

    def recording_add(self, row):
        fed.append(add(self, row))
        return fed[-1]

    monkeypatch.setattr(SparseEliminator, "add", recording_add)
    spec = ArrangementSpec(r, n)
    assert betti_oracle(spec) == betti_closed_form(spec)
    assert fed and all(fed)


@pytest.mark.parametrize("r,n,rows", [(3, 3, 1117), (4, 3, 2737), (2, 4, 6177)])
def test_every_oracle_row_is_fed_through_add(monkeypatch, r, n, rows):
    # add is the oracle's only feed path: the benchmark's add counters and
    # the r = 2 test above see every row through it
    spec = ArrangementSpec(r, n)
    pres = presentation(spec)
    calls = []
    add = SparseEliminator.add

    def counting_add(self, row):
        calls.append(len(row))
        return add(self, row)

    monkeypatch.setattr(SparseEliminator, "add", counting_add)
    assert betti_oracle(spec, _presentation=pres) == betti_closed_form(spec)
    assert len(calls) == rows


def reference_multipliers(monomials, mono):
    """The generators comparable to every factor of mono, by set intersection."""
    if not mono:
        return range(len(monomials.generators))
    return sorted(frozenset.intersection(*(monomials.comparable[x] for x in mono)))


def reference_relation_rows(monomials, relations, k, lower_pivots):
    """The oracle's blocks as they were built before each monomial's
    multipliers were filtered from the degree below: every product's column
    is looked up by its sorted tuple."""
    columns = monomials.columns(k)
    by_generator = [[] for _ in monomials.generators]
    for index, rel in enumerate(relations):
        for g, c in rel.coeffs:
            by_generator[g].append((index, c))
    blocks = [[] for _ in relations]
    lower = monomials.degree(k - 1)
    last = len(lower) - 1
    for pos, mono in enumerate(lower):
        keep = lower_pivots.get(last - pos, len(relations))
        mono_rows = {}
        for g in reference_multipliers(monomials, mono):
            col = columns[tuple(sorted(mono + (g,)))]
            for index, c in by_generator[g]:
                if index > keep:
                    break
                mono_rows.setdefault(index, {})[col] = c
        for index, row in mono_rows.items():
            blocks[index].append(row)
    for block in blocks:
        block.sort(key=len)
    return blocks


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (2, 4)])
def test_relation_rows_equal_the_sorted_product_rows(r, n):
    spec = ArrangementSpec(r, n)
    pres = presentation(spec)
    monomials = _ChainMonomials(pres.generators)
    relations = pres.reduced_linear_relations()
    pivots = {}
    for k in range(1, n + 1):
        for mono, mults in zip(monomials.degree(k - 1), monomials.multipliers(k - 1)):
            assert list(mults) == list(reference_multipliers(monomials, mono))
        blocks = _relation_rows(monomials, relations, k, pivots)
        assert blocks == reference_relation_rows(monomials, relations, k, pivots)
        _, pivots = _relation_space(monomials, relations, k, pivots, n)


@pytest.mark.parametrize("r,n", [(3, 3), (4, 3), (2, 4)])
def test_oracle_rows_give_the_cross_multiplied_pivots(r, n):
    spec = ArrangementSpec(r, n)
    pres = presentation(spec)
    monomials = _ChainMonomials(pres.generators)
    relations = pres.reduced_linear_relations()
    pivots = {}
    for k in range(1, n + 1):
        elim, reference = SparseEliminator(), ReferenceEliminator()
        for block in _relation_rows(monomials, relations, k, pivots):
            for row in block:
                # add takes its row over: the reference gets its own copy
                assert elim.add(dict(row)) == reference.add(row)
        assert elim.pivots == reference.pivots
        oracle, pivots = _relation_space(monomials, relations, k, pivots, n)
        assert oracle.pivots == elim.pivots
        assert set(pivots) == set(elim.pivots)


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4)])
def test_comparable_sets_list_every_comparable_generator(r, n):
    monomials = _ChainMonomials(presentation(ArrangementSpec(r, n)).generators)
    gens = monomials.generators
    assert monomials.comparable == [
        frozenset(y for y, b in enumerate(gens) if comparable(a, b)) for a in gens
    ]


@pytest.mark.parametrize(
    "r,n,width", [(2, 1, 2), (2, 2, 16), (3, 3, 657), (4, 3, 1468), (2, 4, 4160), (3, 4, 18561)]
)
def test_top_monomial_count_matches_the_enumeration(r, n, width):
    spec = ArrangementSpec(r, n)
    monomials = _ChainMonomials(presentation(spec).generators)
    assert len(monomials.degree(n)) == top_monomial_count(spec) == width


def test_top_monomial_count_at_the_guard():
    assert top_monomial_count(ArrangementSpec(2, 0)) == 0
    assert top_monomial_count(ArrangementSpec(4, 4)) == 54_960
    assert top_monomial_count(ArrangementSpec(2, 5)) == 102_002
    assert top_monomial_count(ArrangementSpec(2, 6)) == 3_055_248


def test_oracle_guard():
    with pytest.raises(FeasibilityError, match="generators"):
        betti_oracle(ArrangementSpec(9, 5))
    # 728 generators pass; the top degree's width does not
    with pytest.raises(FeasibilityError, match="3055248 top-degree chain monomials"):
        betti_oracle(ArrangementSpec(2, 6))


def test_betti_n0():
    spec = ArrangementSpec(3, 0)
    assert betti_closed_form(spec).dims == (1,)
    assert betti_oracle(spec).dims == (1,)


# --- jump census -------------------------------------------------------------


def test_jump_census_examples():
    census22 = jump_census(ArrangementSpec(2, 2))
    assert census22[JumpType((2,))] == 4
    assert census22[JumpType((1, 1))] == 8
    census32 = jump_census(ArrangementSpec(3, 2))
    assert census32[JumpType((2,))] == 9


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
def test_jump_census_matches_multinomials_and_totals(r, n):
    spec = ArrangementSpec(r, n)
    census = jump_census(spec)
    for jt, count in census.items():
        assert count == expected_jump_count(spec, jt)
    nonempty = sum(1 for c in enumerate_chains(spec, n) if c.length > 0)
    assert sum(census.values()) == nonempty


@pytest.mark.parametrize(
    "r,n", [(2, 0), (2, 1), (3, 2), (2, 3), (4, 3), (2, 4), (3, 4)]
)
def test_nonempty_chain_count_matches_the_enumeration(r, n):
    spec = ArrangementSpec(r, n)
    count = sum(1 for c in enumerate_chains(spec, n) if c.length > 0)
    assert nonempty_chain_count(spec) == count


def test_check_fails_an_enumerator_that_drops_a_jump_type(monkeypatch):
    def without_single_steps(spec, max_length):
        for c in enumerate_chains(spec, max_length):
            if jump_type(c) != JumpType((1, 1)):
                yield c

    # suite_chow reads the chains only through chow.jump_census
    monkeypatch.setattr("cyclic_wonderful.chow.enumerate_chains", without_single_steps)
    results = {c.name: c for c in suite_chow(ArrangementSpec(2, 2))}
    assert results["jump census matches multinomial counts"].status == "FAIL"


# --- products against the oracle's reduction ---------------------------------


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2)])
def test_degree_two_vanishing_matches_rank_reduction(r, n):
    spec = ArrangementSpec(r, n)
    reducer = DegreeReducer(spec, 2)
    gens = presentation(spec).generators
    for a, b in itertools.combinations_with_replacement(gens, 2):
        assert (product_support([a, b]) is None) == reducer.monomial_is_zero([a, b])


@pytest.mark.parametrize("r,n", [(3, 2), (2, 3), (4, 2)])
def test_degree_two_reducer_matches_the_unpruned_rows(r, n):
    spec = ArrangementSpec(r, n)
    reducer = DegreeReducer(spec, 2)
    monomials = reducer.monomials
    unpruned = SparseEliminator()
    for row in expanded_rows(monomials, presentation(spec).reduced_linear_relations(), 2):
        unpruned.add(row)
    columns = monomials.columns(2)
    for mono in monomials.degree(2):
        gens = [monomials.generators[x] for x in mono]
        assert reducer.monomial_is_zero(gens) == unpruned.is_in_span({columns[mono]: 1})
