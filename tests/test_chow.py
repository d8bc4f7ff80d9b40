"""Presentation, graded ranks (both routes), strata products, jump census."""

import functools
import itertools
from math import comb, factorial
from types import SimpleNamespace

import pytest
from test_linalg import ReferenceEliminator, independent_row_indices

from cyclic_wonderful.chow import (
    DegreeReducer,
    _relation_rows,
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
    enumerate_chains,
    jump_type,
    leq,
)
from cyclic_wonderful.linalg import SparseEliminator
from cyclic_wonderful.selfcheck import suite_chow


def ds(*pairs):
    return DecoratedSubset.of(pairs)


def reduced_relations(pres):
    """The presentation's reduced relations, those with a = 0, in emission order."""
    _, relations = pres
    return {key: coeffs for key, coeffs in relations.items() if key[1] == 0}


@functools.cache
def reference_comparable(r, n):
    """The generators comparable to each generator, by a test of every pair."""
    gens, _ = presentation(ArrangementSpec(r, n))
    return tuple(frozenset(y for y, b in enumerate(gens) if leq(a, b) or leq(b, a)) for a in gens)


@functools.cache
def reference_monomials(r, n, k):
    """The degree-k chain monomials by brute force: every sorted tuple of k
    generator indices whose factors are pairwise comparable, in
    lexicographic order."""
    comp = reference_comparable(r, n)
    return tuple(
        mono
        for mono in itertools.combinations_with_replacement(range(len(comp)), k)
        if all(y in comp[x] for x, y in itertools.combinations(mono, 2))
    )


def record_degrees(monkeypatch, spec, top):
    """Run the oracle's degree loop up to ``top`` and record each call of
    the row builder: its arguments and a copy of its blocks (the
    eliminator takes the rows over).  Returns the loop's result and the
    calls, one per degree."""
    calls = []

    def recording(relations, by_generator, repeats, lower, multipliers, upper, lower_pivots):
        blocks = _relation_rows(
            relations, by_generator, repeats, lower, multipliers, upper, lower_pivots
        )
        calls.append(
            SimpleNamespace(
                relations=list(relations.items()),
                lower=tuple(lower),
                multipliers=[list(m) for m in multipliers],
                upper=tuple(upper),
                lower_pivots=lower_pivots,
                blocks=[[dict(row) for row in block] for block in blocks],
            )
        )
        return blocks

    monkeypatch.setattr("cyclic_wonderful.chow._relation_rows", recording)
    return _relation_spaces(spec, top), calls


def relation_major_creators(blocks):
    """Feed the blocks in order, as the oracle does: the map from each pivot
    to the block that created it."""
    elim, creators = SparseEliminator(), []
    for index, block in enumerate(blocks):
        for row in block:
            elim.add(row)
        creators.extend([index] * (elim.rank - len(creators)))
    return dict(zip(elim.pivots, creators))


# --- presentation ------------------------------------------------------------


def test_presentation_r2_n1():
    generators, relations = presentation(ArrangementSpec(2, 1))
    assert generators == (ds((1, 0)), ds((1, 1)))
    assert relations == {(1, 0, 1): ((0, 1), (1, -1))}  # identifies the two generators
    a, b = ds((1, 0)), ds((1, 1))
    assert not (leq(a, b) or leq(b, a))
    assert betti_oracle(ArrangementSpec(2, 1)) == (1, 1)


def test_presentation_r3_n1():
    spec = ArrangementSpec(3, 1)
    pres = presentation(spec)
    generators, relations = pres
    assert len(generators) == 3
    # the relations identify all three generators pairwise
    assert len(relations) == 3
    assert len(reduced_relations(pres)) == 2
    for a, b in itertools.combinations(generators, 2):
        assert not (leq(a, b) or leq(b, a))
    assert betti_oracle(spec) == (1, 1)


def test_presentation_r2_n2_counts():
    spec = ArrangementSpec(2, 2)
    pres = presentation(spec)
    generators, relations = pres
    assert len(generators) == 8
    # n r (r-1) / 2 emitted, n (r-1) after reduction
    assert len(relations) == 2
    assert len(reduced_relations(pres)) == 2
    incomparable = [
        (a, b)
        for a, b in itertools.combinations(generators, 2)
        if not (leq(a, b) or leq(b, a))
    ]
    assert len(incomparable) == 20  # 28 pairs, 8 of them comparable


@pytest.mark.parametrize(
    "r,n", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]
)
def test_emitted_and_reduced_relation_counts(r, n):
    pres = presentation(ArrangementSpec(r, n))
    _, relations = pres
    assert len(relations) == n * r * (r - 1) // 2
    assert len(reduced_relations(pres)) == n * (r - 1)


@pytest.mark.parametrize("r", range(2, 8))
@pytest.mark.parametrize("n", range(4))
def test_reduced_relations_are_the_rows_a_greedy_elimination_keeps(r, n):
    # the closed form (i, 0, b) against the elimination in emission order
    _, relations = presentation(ArrangementSpec(r, n))
    greedy = independent_row_indices(dict(coeffs) for coeffs in relations.values())
    assert greedy == [k for k, (_, a, _) in enumerate(relations) if a == 0]


def test_presentation_at_n1_runs_no_elimination(monkeypatch):
    # the greedy choice took about r^3 / 6 reduction steps at n = 1 and did
    # not finish at r = 1000, which the guards admit
    def refuse(*args):
        raise AssertionError("presentation ran an elimination")

    monkeypatch.setattr(SparseEliminator, "add", refuse)
    _, relations = presentation(ArrangementSpec(1000, 1))
    assert len(relations) == 1000 * 999 // 2
    assert [k for k, (_, a, _) in enumerate(relations) if a == 0] == list(range(999))


def test_check_fails_reduced_relations_the_elimination_does_not_keep(monkeypatch):
    # an elimination fed (1, 1, 2) before (1, 0, 2) keeps (1, 1, 2) and
    # drops the reduced (1, 0, 2)
    def swapped(spec):
        generators, relations = presentation(spec)
        keys = list(relations)
        k = keys.index((1, 1, 2))
        assert keys[k - 1] == (1, 0, 2)
        keys[k - 1], keys[k] = keys[k], keys[k - 1]
        return generators, {key: relations[key] for key in keys}

    monkeypatch.setattr("cyclic_wonderful.chow.presentation", swapped)
    results = {c.name: c for c in suite_chow(ArrangementSpec(3, 2))}
    assert results["reduced relation count n (r-1)"].status == "FAIL"


def test_check_fails_a_relation_that_is_not_the_difference_of_reduced_ones(monkeypatch):
    def flipped(spec):
        generators, relations = presentation(spec)
        (x, c), *rest = relations[1, 1, 2]
        return generators, {**relations, (1, 1, 2): ((x, -c), *rest)}

    monkeypatch.setattr("cyclic_wonderful.chow.presentation", flipped)
    results = {c.name: c for c in suite_chow(ArrangementSpec(3, 2))}
    assert results["reduced relation count n (r-1)"].status == "FAIL"


def test_check_certifies_the_reduced_relations_at_n1_without_an_elimination(monkeypatch):
    # the line's elimination took about r^3 / 6 steps at n = 1; it is now
    # one pass over the emitted coefficients
    def refuse(*args):
        raise AssertionError("the check ran an elimination")

    # the rank oracle has its own line and eliminates; this one must not
    monkeypatch.setattr("cyclic_wonderful.chow.betti_oracle", betti_closed_form)
    monkeypatch.setattr(SparseEliminator, "add", refuse)
    results = {c.name: c for c in suite_chow(ArrangementSpec(200, 1))}
    line = results["reduced relation count n (r-1)"]
    assert (line.status, line.detail) == ("PASS", "199 independent of 19900 emitted")


@pytest.mark.parametrize("r,n", [(2, 1), (3, 2), (4, 3), (2, 4), (7, 1), (1000, 1)])
def test_oracle_relations_are_the_presentations_reduced_relations(monkeypatch, r, n):
    # the oracle writes its own relations; they are the presentation's
    # reduced ones in order, coefficient for coefficient, so its rows,
    # pivots and ranks are those of the presentation's reduced relations
    spec = ArrangementSpec(r, n)
    _, calls = record_degrees(monkeypatch, spec, 1)
    assert [call.relations for call in calls] == [
        list(reduced_relations(presentation(spec)).items())
    ]


def test_presentation_generator_count():
    spec = ArrangementSpec(3, 2)
    generators, _ = presentation(spec)
    assert len(generators) == spec.num_subsets


@pytest.mark.parametrize("r,n", [(2, 1), (5, 1), (2, 3), (4, 2), (3, 3), (5, 2), (2, 4)])
def test_presentation_relations_equal_a_scan_per_relation(r, n):
    # the reference scans every generator once per relation (i, a, b)
    generators, relations = presentation(ArrangementSpec(r, n))
    expected = []
    for i in range(1, n + 1):
        for a, b in itertools.combinations(range(r), 2):
            coeffs = []
            for x, d in enumerate(generators):
                deco = dict(d.items)
                if deco.get(i) == a:
                    coeffs.append((x, 1))
                elif deco.get(i) == b:
                    coeffs.append((x, -1))
            expected.append(((i, a, b), tuple(coeffs)))
    assert list(relations.items()) == expected


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
    assert betti_closed_form(ArrangementSpec(2, 2)) == (1, 6, 1)
    assert betti_closed_form(ArrangementSpec(3, 2)) == (1, 11, 1)
    assert betti_closed_form(ArrangementSpec(2, 3)) == (1, 23, 23, 1)


# every (r, n) with 2 <= r <= 6 and 0 <= n <= 5, exhaustively, and large n
CLOSED_FORM_GRID = [(r, n) for r in range(2, 7) for n in range(6)] + [(3, 40), (5, 25)]


@pytest.mark.parametrize("r,n", CLOSED_FORM_GRID)
def test_rank_one_piece_formula(r, n):
    spec = ArrangementSpec(r, n)
    dims = betti_closed_form(spec)
    if n >= 1:
        assert dims[1] == (1 + r) ** n - 1 - n * (r - 1)


@pytest.mark.parametrize("r,n", CLOSED_FORM_GRID)
def test_closed_form_is_palindromic(r, n):
    # Poincare duality of the smooth compact space
    dims = betti_closed_form(ArrangementSpec(r, n))
    assert len(dims) == n + 1 and dims[0] == dims[n] == 1
    assert dims == dims[::-1]


def test_r2_total_rank_counts_maximal_cones_and_is_palindromic():
    for n in range(1, 61):
        spec = ArrangementSpec(2, n)
        dims = betti_closed_form(spec)
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
    assert betti_closed_form(ArrangementSpec(r, n)) == composition_sum_ranks(r, n)


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (4, 2), (4, 3), (2, 4)])
def test_oracle_ranks_are_palindromic(r, n):
    dims = betti_oracle(ArrangementSpec(r, n))
    assert len(dims) == n + 1 and dims[0] == dims[n] == 1
    assert dims == dims[::-1]


def reverse_columns(upper):
    """The oracle's column of each monomial: reverse lexicographic order."""
    last = len(upper) - 1
    return {mono: last - pos for pos, mono in enumerate(upper)}


def expanded_rows(relations, lower, upper):
    """Every (relation) x (monomial of ``lower``) row over the monomials of
    ``upper``, the chain monomials one degree up, with no row skipped: the
    reference for the oracle.  ``relations`` holds each relation's
    (generator, coefficient) pairs."""
    columns = reverse_columns(upper)
    for pairs in relations:
        for mono in lower:
            row = {}
            for g, coeff in pairs:
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
    _, relations = presentation(spec)
    for k in range(1, n + 1):
        _, top, _, _, elim = _relation_spaces(spec, k)
        basis = reference_monomials(r, n, k)
        assert tuple(top) == basis
        # every row of every emitted relation, ranked by the cross-multiplied
        # reference (a Fraction RREF takes 10 s at (3, 3), degree 3)
        reference = ReferenceEliminator()
        lower = reference_monomials(r, n, k - 1)
        for row in expanded_rows(relations.values(), lower, basis):
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


@pytest.mark.parametrize("r,n,rows", [(3, 3, 931), (4, 3, 2125), (2, 4, 6177)])
def test_every_oracle_row_is_fed_through_add(monkeypatch, r, n, rows):
    # add is the oracle's only feed path: the benchmark's add counters and
    # the r = 2 test above see every row through it
    spec = ArrangementSpec(r, n)
    calls = []
    add = SparseEliminator.add

    def counting_add(self, row):
        calls.append(len(row))
        return add(self, row)

    monkeypatch.setattr(SparseEliminator, "add", counting_add)
    assert betti_oracle(spec) == betti_closed_form(spec)
    assert len(calls) == rows


def reference_multipliers(comp, mono):
    """The generators comparable to every factor of mono, by set intersection."""
    if not mono:
        return list(range(len(comp)))
    return sorted(frozenset.intersection(*(comp[x] for x in mono)))


def reference_relation_rows(r, n, relations, k, lower_pivots):
    """The oracle's degree-k blocks as they were built before each
    monomial's multipliers were filtered from the degree below: every
    product's column is looked up by its sorted tuple.  The row of
    (i, 0, b), b >= 2, is left out when the monomial's top set decorates i
    by 0."""
    gens, _ = presentation(ArrangementSpec(r, n))
    comp = reference_comparable(r, n)
    columns = reverse_columns(reference_monomials(r, n, k))
    keys = list(relations)
    by_generator = [[] for _ in gens]
    for index, pairs in enumerate(relations.values()):
        for g, c in pairs:
            by_generator[g].append((index, c))
    blocks = [[] for _ in relations]
    lower = reference_monomials(r, n, k - 1)
    last = len(lower) - 1
    for pos, mono in enumerate(lower):
        keep = lower_pivots.get(last - pos, len(relations))
        mono_rows = {}
        for g in reference_multipliers(comp, mono):
            col = columns[tuple(sorted(mono + (g,)))]
            for index, c in by_generator[g]:
                if index > keep:
                    break
                mono_rows.setdefault(index, {})[col] = c
        top = dict(gens[mono[-1]].items) if mono else {}
        for index, row in mono_rows.items():
            i, _, b = keys[index]
            if b < 2 or top.get(i) != 0:
                blocks[index].append(row)
    for block in blocks:
        block.sort(key=len)
    return blocks


def full_feed_creators(r, n, relations, k):
    """Each pivot of the degree-k space and the relation whose rows create
    it, with every (relation) x (degree k-1 chain monomial) row fed,
    relation-major, none skipped."""
    lower, upper = reference_monomials(r, n, k - 1), reference_monomials(r, n, k)
    return relation_major_creators(
        [list(expanded_rows([pairs], lower, upper)) for pairs in relations.values()]
    )


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 4)])
def test_skipped_rows_keep_the_pivots_their_creators_and_the_ranks(monkeypatch, r, n):
    # neither the F5 criterion nor the rows the top set repeats may move a
    # pivot, its creating relation or a rank; each degree's creators are
    # what the loop hands the next degree, and the top degree's are those
    # of its fed rows
    spec = ArrangementSpec(r, n)
    relations = reduced_relations(presentation(spec))
    (_, _, widths, ranks, elim), calls = record_degrees(monkeypatch, spec, n)
    reference = {}
    for k, call in enumerate(calls, 1):
        assert call.lower_pivots == reference
        reference = full_feed_creators(r, n, relations, k)
        assert ranks[k - 1] == len(reference)
    assert relation_major_creators(calls[-1].blocks) == reference
    assert set(elim.pivots) == set(reference)


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (2, 4)])
def test_relation_rows_equal_the_sorted_product_rows(monkeypatch, r, n):
    spec = ArrangementSpec(r, n)
    relations = reduced_relations(presentation(spec))
    _, calls = record_degrees(monkeypatch, spec, n)
    assert len(calls) == n
    comp = reference_comparable(r, n)
    for k, call in enumerate(calls, 1):
        assert call.lower == reference_monomials(r, n, k - 1)
        assert call.upper == reference_monomials(r, n, k)
        assert call.multipliers == [reference_multipliers(comp, mono) for mono in call.lower]
        assert call.blocks == reference_relation_rows(r, n, relations, k, call.lower_pivots)


@pytest.mark.parametrize("r,n", [(3, 3), (4, 3), (2, 4)])
def test_oracle_rows_give_the_cross_multiplied_pivots(monkeypatch, r, n):
    spec = ArrangementSpec(r, n)
    (_, _, _, ranks, oracle), calls = record_degrees(monkeypatch, spec, n)
    for k, call in enumerate(calls, 1):
        elim, reference = SparseEliminator(), ReferenceEliminator()
        for block in call.blocks:
            for row in block:
                # add takes its row over: the reference gets its own copy
                assert elim.add(dict(row)) == reference.add(row)
        assert elim.pivots == reference.pivots
        assert elim.rank == ranks[k - 1]
        if k < n:
            assert set(calls[k].lower_pivots) == set(elim.pivots)
    assert oracle.pivots == elim.pivots


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4)])
def test_comparable_sets_list_every_comparable_generator(r, n):
    comp, *_ = _relation_spaces(ArrangementSpec(r, n), 1)
    assert comp == list(reference_comparable(r, n))


@pytest.mark.parametrize(
    "r,n,width", [(2, 1, 2), (2, 2, 16), (3, 3, 657), (4, 3, 1468), (2, 4, 4160), (3, 4, 18561)]
)
def test_top_monomial_count_matches_the_enumeration(r, n, width):
    spec = ArrangementSpec(r, n)
    _, top, widths, _, _ = _relation_spaces(spec, n)
    assert len(top) == widths[-1] == top_monomial_count(spec) == width


# (3, 4) is left out: its brute force walks C(258, 4) = 183M tuples
@pytest.mark.parametrize(
    "r,n", [(2, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 4)]
)
def test_oracle_widths_equal_the_brute_force_counts(r, n):
    _, _, widths, _, _ = _relation_spaces(ArrangementSpec(r, n), n)
    assert widths == [len(reference_monomials(r, n, k)) for k in range(1, n + 1)]


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
    assert betti_closed_form(spec) == (1,)
    assert betti_oracle(spec) == (1,)


# --- jump census -------------------------------------------------------------


def test_jump_census_examples():
    census22 = jump_census(ArrangementSpec(2, 2))
    assert census22[(2,)] == 4
    assert census22[(1, 1)] == 8
    census32 = jump_census(ArrangementSpec(3, 2))
    assert census32[(2,)] == 9


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
def test_jump_census_matches_multinomials_and_totals(r, n):
    spec = ArrangementSpec(r, n)
    census = jump_census(spec)
    for parts, count in census.items():
        assert parts and all(p >= 1 for p in parts) and sum(parts) <= n
        assert count == expected_jump_count(spec, parts)
    nonempty = sum(1 for c in enumerate_chains(spec, n) if c.length > 0)
    assert sum(census.values()) == nonempty


@pytest.mark.parametrize(
    "r,n", [(2, 0), (2, 1), (3, 2), (2, 3), (4, 3), (2, 4), (3, 4)]
)
def test_nonempty_chain_count_matches_the_enumeration(r, n):
    spec = ArrangementSpec(r, n)
    count = sum(1 for c in enumerate_chains(spec, n) if c.length > 0)
    assert nonempty_chain_count(spec) == count


def fubini_chain_count(r, n):
    """sum_{s=1..n} C(n, s) * r^s * Fub(s): a nonempty chain is a decorated
    top set of size s with an ordered set partition of it (the jumps), and
    Fub(s) = sum_{k=1..s} C(s, k) * Fub(s - k) counts those partitions by
    their first block."""
    fub = [1]
    for s in range(1, n + 1):
        fub.append(sum(comb(s, k) * fub[s - k] for k in range(1, s + 1)))
    return sum(comb(n, s) * r**s * fub[s] for s in range(1, n + 1))


@pytest.mark.parametrize("r", range(2, 9))
def test_nonempty_chain_count_is_the_fubini_sum(r):
    for n in range(13):
        assert nonempty_chain_count(ArrangementSpec(r, n)) == fubini_chain_count(r, n)


def test_check_fails_an_enumerator_that_drops_a_jump_type(monkeypatch):
    def without_single_steps(spec, max_length):
        for c in enumerate_chains(spec, max_length):
            if jump_type(c) != (1, 1):
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
    gens, _ = presentation(spec)
    for a, b in itertools.combinations_with_replacement(gens, 2):
        assert (product_support([a, b]) is None) == reducer.monomial_is_zero([a, b])


@pytest.mark.parametrize("r,n", [(3, 2), (2, 3), (4, 2)])
def test_degree_two_reducer_matches_the_unpruned_rows(r, n):
    spec = ArrangementSpec(r, n)
    reducer = DegreeReducer(spec, 2)
    pres = presentation(spec)
    generators, _ = pres
    lower, upper = reference_monomials(r, n, 1), reference_monomials(r, n, 2)
    unpruned = SparseEliminator()
    for row in expanded_rows(reduced_relations(pres).values(), lower, upper):
        unpruned.add(row)
    columns = reverse_columns(upper)
    for mono in upper:
        gens = [generators[x] for x in mono]
        assert reducer.monomial_is_zero(gens) == unpruned.is_in_span({columns[mono]: 1})


def test_degree_reducer_rejects_a_generator_outside_the_spec():
    reducer = DegreeReducer(ArrangementSpec(2, 2), 2)
    with pytest.raises(ValueError, match=r"index 3 outside \[1, 2\] in \{3:0\}"):
        reducer.monomial_is_zero([ds((1, 0)), ds((3, 0))])
    with pytest.raises(ValueError, match=r"residue 5 outside Z_2 in \{1:5\}"):
        reducer.monomial_is_zero([ds((1, 5)), ds((1, 0))])
    with pytest.raises(ValueError, match=r"\{\} is not a generator"):
        reducer.monomial_is_zero([ds(), ds((1, 0))])
