"""Property tests of the exact kernels, each against an independent route.

Dense ranks are compared with the count of nonzero Smith divisors (integer
Euclidean steps, no rational elimination); kernels and solutions are checked
by multiplying back exactly.  The sparse integer eliminator is compared with
the dense rational ``matrix_rank``.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_wonderful.linalg import (
    SparseEliminator,
    combine,
    dot,
    independent_row_indices,
    matrix_rank,
    nullspace,
    smith_divisors,
    solve_columns,
)

entries = st.integers(-3, 3)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))


def smith_rank(rows):
    return sum(1 for d in smith_divisors(rows) if d)


def apply(rows, v):
    return tuple(dot(row, v) for row in rows)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_is_the_number_of_nonzero_smith_divisors(rows):
    assert matrix_rank(rows) == smith_rank(rows)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_is_a_kernel_basis_of_the_right_size(rows):
    ncols = len(rows[0])
    basis = nullspace(rows)
    assert len(basis) == ncols - smith_rank(rows)
    for v in basis:
        assert len(v) == ncols
        assert all(x == 0 for x in apply(rows, v))
    # independent: the basis vectors, scaled to integers, have full rank
    scaled = [[x * lcm(*(y.denominator for y in v)) for x in v] for v in basis]
    assert smith_rank([[int(x) for x in v] for v in scaled]) == len(basis)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_solve_columns_reproduces_the_target_or_reports_a_rank_jump(cols, data):
    dim = len(cols[0])
    if data.draw(st.booleans(), label="target in the column span"):
        x = data.draw(st.lists(entries, min_size=len(cols), max_size=len(cols)))
        target = list(combine(x, cols, dim))
    else:
        target = data.draw(st.lists(entries, min_size=dim, max_size=dim))
    rank = smith_rank(cols)
    if rank < len(cols):
        with pytest.raises(ValueError, match="linearly dependent"):
            solve_columns(cols, target)
        return
    sol = solve_columns(cols, target)
    if sol is None:
        assert smith_rank(cols + [target]) == rank + 1
    else:
        assert smith_rank(cols + [target]) == rank
        assert combine(sol, cols, dim, Fraction(0)) == tuple(Fraction(t) for t in target)


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=4), st.data())
def test_dependent_columns_raise(cols, data):
    x = data.draw(st.lists(entries, min_size=len(cols), max_size=len(cols)))
    dependent = cols + [list(combine(x, cols, len(cols[0])))]
    target = data.draw(st.lists(entries, min_size=len(cols[0]), max_size=len(cols[0])))
    with pytest.raises(ValueError, match="linearly dependent"):
        solve_columns(dependent, target)


def test_combine_keeps_the_element_type_of_zero():
    ints = combine([1, 0, 2], [(1, 0), (5, 5), (0, -1)], 2)
    assert ints == (1, -2) and all(type(x) is int for x in ints)
    fracs = combine([Fraction(1, 2)], [(2, 0, 0)], 3, Fraction(0))
    assert fracs == (1, 0, 0) and all(type(x) is Fraction for x in fracs)


# --- the sparse integer eliminator ---------------------------------------------

# mostly zeros, like the relation rows of the rank oracle
sparse_entries = st.one_of(st.just(0), st.just(0), entries)


@st.composite
def sparse_matrices(draw, max_rows=8, max_cols=6):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    row = st.lists(sparse_entries, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m))


def as_sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def eliminator(rows):
    elim = SparseEliminator()
    for row in rows:
        elim.add(as_sparse(row))
    return elim


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_eliminator_rank_is_the_dense_rank_in_any_row_order(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert eliminator(rows).rank == matrix_rank(rows)
    assert eliminator(shuffled).rank == matrix_rank(rows)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(), st.data())
def test_in_span_exactly_when_the_dense_rank_stays(rows, data):
    ncols = len(rows[0])
    if data.draw(st.booleans(), label="row in the span"):
        x = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        row = list(combine(x, rows, ncols))
    else:
        row = data.draw(st.lists(sparse_entries, min_size=ncols, max_size=ncols))
    in_span = matrix_rank(rows + [row]) == matrix_rank(rows)
    assert eliminator(rows).is_in_span(as_sparse(row)) == in_span


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_independent_rows_are_the_dense_greedy_scan(rows):
    ranks = [matrix_rank(rows[:i]) for i in range(len(rows) + 1)]
    greedy = [i for i in range(len(rows)) if ranks[i + 1] > ranks[i]]
    assert independent_row_indices(as_sparse(row) for row in rows) == greedy
