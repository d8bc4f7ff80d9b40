"""Property tests of the exact kernels, each against an independent route.

Dense ranks (``matrix_rank``, one rational RREF, kept here as the tests'
rank reference) are compared with the count of ``lattice_pivots``
(integer Euclidean column steps, no rational elimination), whose product
at full row rank is compared with the gcd of the maximal minors, each
minor a determinant expanded by hand; kernels (``nullspace``,
read off the same RREF and kept here as the reference of the normal cells'
span rows) and solutions are checked by multiplying back exactly; ``combine``, the
sum of vectors that the package now places instead, is kept here too.  The sparse integer eliminator is
compared with the dense rank and, pivot for pivot, with the
cross-multiply-and-normalise eliminator that its in-place updates replaced;
the integer phase-1 simplex is compared with the ``Fraction`` simplex it
replaced.  Both replaced kernels are kept here as references.  The shared-row
index, and its one-member evaluator ``tests_hold``, are compared with the
member-by-member scan, and its batch registration, with each test folded
onto its row's sign, with a member-by-member registration.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_wonderful import linalg
from cyclic_wonderful.linalg import (
    SharedRowIndex,
    SparseEliminator,
    _lp_feasible_eq,
    extreme_points,
    in_convex_hull,
    integer_scaled,
    lattice_pivots,
    parse_rational,
    scaled_point,
    solve_columns,
)

entries = st.integers(-3, 3)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))


def dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def combine(coeffs, vectors, dim, zero=0):
    """sum_j coeffs[j] * vectors[j] in dimension dim, skipping zero terms,
    with each entry no term touches left ``zero`` (``Fraction(0)`` for a
    rational result): the summing reference of every vector the package
    places through ``fan.block_slot`` instead."""
    out = [zero] * dim
    for c, vec in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(vec):
                if x:
                    out[i] += c * x
    return tuple(out)


def pivot_rank(rows):
    return len(lattice_pivots(rows))


def matrix_rank(rows):
    """Rank over Q by dense rational elimination, the rank reference of the
    tests (``check`` counts ``lattice_pivots`` instead)."""
    return len(linalg._rref(rows, len(rows[0]) if rows else 0)[1])


def nullspace(rows):
    """Basis of the right kernel of the row matrix, one vector per non-pivot
    column of its RREF, in column order: the reference of the normal cells'
    closed-form span rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = linalg._rref(rows, ncols)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, col in zip(m, pivots):
            vec[col] = -row[fc]
        basis.append(tuple(vec))
    return basis


def independent_row_indices(rows):
    """Indices of a maximal independent subset of sparse rows, scanned in
    input order: the greedy elimination, fed one ``SparseEliminator``."""
    elim = SparseEliminator()
    return [i for i, row in enumerate(rows) if elim.add(row)]


def apply(rows, v):
    return tuple(dot(row, v) for row in rows)


def determinant(rows):
    """Laplace expansion along the first row: the minors' reference."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * determinant([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def maximal_minors_gcd(rows):
    """The gcd of every k x k minor of k rows, over all column subsets."""
    return gcd(
        *(
            determinant([[row[j] for j in cols] for row in rows])
            for cols in itertools.combinations(range(len(rows[0])), len(rows))
        )
    )


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_lattice_pivots_count_the_rank_and_multiply_to_the_minors_gcd(rows):
    pivots = lattice_pivots(rows)
    assert len(pivots) == matrix_rank(rows)
    assert all(p > 0 for p in pivots)
    if len(pivots) == len(rows):
        assert prod(pivots) == maximal_minors_gcd(rows)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_is_a_kernel_basis_of_the_right_size(rows):
    ncols = len(rows[0])
    basis = nullspace(rows)
    assert len(basis) == ncols - pivot_rank(rows)
    for v in basis:
        assert len(v) == ncols
        assert all(x == 0 for x in apply(rows, v))
    # independent: the basis vectors, scaled to integers, have full rank
    scaled = [[x * lcm(*(y.denominator for y in v)) for x in v] for v in basis]
    assert pivot_rank([[int(x) for x in v] for v in scaled]) == len(basis)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_solve_columns_reproduces_the_target_or_reports_a_rank_jump(cols, data):
    dim = len(cols[0])
    if data.draw(st.booleans(), label="target in the column span"):
        x = data.draw(st.lists(entries, min_size=len(cols), max_size=len(cols)))
        target = list(combine(x, cols, dim))
    else:
        target = data.draw(st.lists(entries, min_size=dim, max_size=dim))
    rank = pivot_rank(cols)
    if rank < len(cols):
        with pytest.raises(ValueError, match="linearly dependent"):
            solve_columns(cols, target)
        return
    sol = solve_columns(cols, target)
    if sol is None:
        assert pivot_rank(cols + [target]) == rank + 1
    else:
        assert pivot_rank(cols + [target]) == rank
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


class ReferenceEliminator(SparseEliminator):
    """Every step cross-multiplies, ``a * r - b * p`` over the union of both
    rows' columns, and divides the result by its content with a positive lead.

    ``add`` goes through this ``reduce``: ``SparseEliminator.add`` reduces
    its row in place without calling ``reduce``."""

    def add(self, row):
        r = self.reduce(row)
        if not r:
            return False
        self.pivots[min(r)] = r
        return True

    def reduce(self, row):
        r = {c: int(v) for c, v in row.items() if v}
        while r:
            c = min(r)
            p = self.pivots.get(c)
            if p is None:
                return normalized(r)
            a, b = p[c], r[c]
            new = {}
            for col in set(r) | set(p):
                v = a * r.get(col, 0) - b * p.get(col, 0)
                if v:
                    new[col] = v
            r = normalized(new) if new else new
        return {}


def normalized(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
    sign = -1 if row[min(row)] < 0 else 1
    return {c: sign * (v // g) for c, v in row.items()}


wide_entries = st.integers(-50, 50)


@st.composite
def wide_sparse_matrices(draw, max_rows=10, max_cols=7):
    """Mostly zeros, the rest up to 50 in size: pivot leads other than 1 occur."""
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    row = st.lists(st.one_of(st.just(0), st.just(0), wide_entries), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m))


def fed(elim, rows):
    for row in rows:
        elim.add(as_sparse(row))
    return elim


@settings(max_examples=300, deadline=None)
@given(wide_sparse_matrices())
def test_in_place_pivots_are_the_cross_multiplied_pivots(rows):
    assert fed(SparseEliminator(), rows).pivots == fed(ReferenceEliminator(), rows).pivots


@settings(max_examples=300, deadline=None)
@given(wide_sparse_matrices(), st.data())
def test_in_place_span_answers_are_the_cross_multiplied_answers(rows, data):
    ncols = len(rows[0])
    if data.draw(st.booleans(), label="row in the span"):
        x = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        row = list(combine(x, rows, ncols))
    else:
        row = data.draw(st.lists(wide_entries, min_size=ncols, max_size=ncols))
    got = fed(SparseEliminator(), rows).is_in_span(as_sparse(row))
    assert got == fed(ReferenceEliminator(), rows).is_in_span(as_sparse(row))


@settings(max_examples=200, deadline=None)
@given(wide_sparse_matrices(), st.data())
def test_membership_tests_leave_their_row_unchanged(rows, data):
    # add takes its row over; is_in_span and reduce work on a copy
    elim = fed(SparseEliminator(), rows)
    ncols = len(rows[0])
    row = as_sparse(data.draw(st.lists(wide_entries, min_size=ncols, max_size=ncols)))
    before = dict(row)
    elim.is_in_span(row)
    assert row == before
    elim.reduce(row)
    assert row == before


def test_a_pivot_of_lead_2_scales_the_row_and_divides_out_the_content():
    elim = SparseEliminator()
    assert elim.add({0: 2, 1: 1})
    # gcd(2, 3) = 1: 2 * (3, 5) - 3 * (2, 1) = (0, 7), content 7
    assert elim.add({0: 3, 1: 5})
    assert elim.pivots == {0: {0: 2, 1: 1}, 1: {1: 1}}
    # gcd(2, -4) = 2 leaves no scaling: (-4, 0, 6) + 2 * (2, 1, 0) = (0, 2, 6)
    assert elim.add({0: -4, 2: 6})
    assert elim.pivots[2] == {2: 1}


def test_a_row_of_content_1_and_negative_lead_is_negated_in_place():
    row = {0: -1, 2: 3}
    assert linalg._primitive(row, 0) is row
    assert row == {0: 1, 2: -3}
    # content 2 still gives a new row, and leaves the argument alone
    row = {0: -2, 1: 4}
    assert linalg._primitive(row, 0) == {0: 1, 1: -2}
    assert row == {0: -2, 1: 4}
    # a fed row of content 1 becomes the pivot itself
    elim = SparseEliminator()
    fed_row = {1: -1, 4: 2}
    assert elim.add(fed_row)
    assert elim.pivots[1] is fed_row and fed_row == {1: 1, 4: -2}


@pytest.mark.parametrize(
    "text,value",
    [("3", Fraction(3)), (" -3/2 ", Fraction(-3, 2)), ("0.25", Fraction(1, 4)), ("+.5", Fraction(1, 2))],
)
def test_parse_rational_reads_integers_fractions_and_plain_decimals(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1e3", "2.5E-1", "1/0", "x"])
def test_parse_rational_refuses_exponents_zero_denominators_and_junk(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1_000", "1_0/2", "0.5_0"])
def test_parse_rational_refuses_underscores_on_every_python(text):
    # Fraction reads digit-group underscores from Python 3.11 on and refuses
    # them before, so the grammar refuses them on every version
    with pytest.raises(ValueError, match="is not an integer, p/q or plain decimal"):
        parse_rational(text)


@pytest.mark.parametrize("text", ["١", "1/٢", "٠.5", "1\u2003"])
def test_parse_rational_refuses_non_ascii_text(text):
    # Fraction reads any Unicode decimal digit and strips Unicode spaces
    with pytest.raises(ValueError, match="is not an integer, p/q or plain decimal"):
        parse_rational(text)


# --- the integer phase-1 simplex and hull extremes ----------------------------


def reference_lp_feasible_eq(a, b):
    """Feasibility of {x >= 0 : A x = b} by a Fraction phase-1 simplex with
    Bland's rule: the rational tableau the integer kernel scales."""
    m = len(b)
    n = len(a[0]) if m else 0
    tab = []
    for i in range(m):
        row = [Fraction(v) for v in a[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        tab.append(row + art + [rhs])
    width = n + m
    obj = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            obj[j] -= tab[i][j]
    for i in range(m):
        obj[n + i] = Fraction(0)  # artificials carry cost 1; reduced cost is 0
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            break
        candidates = [
            (tab[i][width] / tab[i][enter], basis[i], i) for i in range(m) if tab[i][enter] > 0
        ]
        if not candidates:
            break
        _, _, leave = min(candidates)
        pv = tab[leave][enter]
        tab[leave] = [v / pv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * w for v, w in zip(obj, tab[leave])]
        basis[leave] = enter
    return obj[width] == 0


def reference_in_convex_hull(point, points):
    if not points:
        return False
    a = [[Fraction(p[i]) for p in points] for i in range(len(point))]
    a.append([Fraction(1)] * len(points))
    return reference_lp_feasible_eq(a, [Fraction(x) for x in point] + [Fraction(1)])


@st.composite
def lp_systems(draw):
    a = draw(matrices(max_rows=4, max_cols=6))
    if draw(st.booleans(), label="feasible by construction"):
        x = draw(st.lists(st.integers(0, 3), min_size=len(a[0]), max_size=len(a[0])))
        b = [sum(v * y for v, y in zip(row, x)) for row in a]
    else:
        b = draw(st.lists(st.integers(-6, 6), min_size=len(a), max_size=len(a)))
    return a, b


@settings(max_examples=400, deadline=None)
@given(lp_systems())
def test_integer_simplex_agrees_with_the_fraction_simplex(system):
    a, b = system
    assert _lp_feasible_eq(a, b) == reference_lp_feasible_eq(a, b)


def test_integer_simplex_on_known_systems():
    assert _lp_feasible_eq([[1, 1]], [2])
    assert not _lp_feasible_eq([[1, 1]], [-2])
    assert _lp_feasible_eq([[1, -1]], [-2])  # x = (0, 2)
    assert not _lp_feasible_eq([[1, 1], [1, 1]], [1, 2])
    assert _lp_feasible_eq([[2, 3], [1, 0]], [7, 2])  # x = (2, 1)


coordinates = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def point_sets(draw):
    """Rational points, some repeated and some on a line through two others."""
    d = draw(st.integers(1, 3))
    base = draw(st.lists(st.tuples(*[coordinates] * d), min_size=1, max_size=7))
    steps = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(-1)])
    extra = []
    for _ in range(draw(st.integers(0, 4))):
        p, q = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        t = draw(steps)  # t = 0 repeats p
        extra.append(tuple(x + t * (y - x) for x, y in zip(p, q)))
    return base + extra


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_extreme_points_are_the_points_the_reference_lp_finds_outside_the_rest(points):
    unique = sorted(set(points))
    expected = [p for p in unique if not reference_in_convex_hull(p, [q for q in unique if q != p])]
    assert extreme_points(points) == expected


@settings(max_examples=300, deadline=None)
@given(point_sets(), st.data())
def test_in_convex_hull_agrees_with_the_reference_lp(points, data):
    d = len(points[0])
    point = data.draw(st.tuples(*[coordinates] * d))
    assert in_convex_hull(point, points) == reference_in_convex_hull(point, points)


def test_hull_extremes_of_a_segment_with_interior_and_repeated_points():
    points = [(0, 0), (Fraction(1, 2), Fraction(1, 2)), (1, 1), (1, 1), (Fraction(1, 3), Fraction(1, 3))]
    assert extreme_points(points) == [(0, 0), (1, 1)]
    assert all(type(x) is Fraction for p in extreme_points(points) for x in p)


def test_hull_rejects_points_of_the_wrong_length():
    with pytest.raises(ValueError, match="length 1, expected 2"):
        in_convex_hull((0, 0), [(1,), (2,)])
    with pytest.raises(ValueError, match="length 2, expected 1"):
        in_convex_hull((0,), [(1, 5), (-1, 5)])
    with pytest.raises(ValueError, match="length"):
        extreme_points([(0,), (1, 2)])


# --- shared-row index ----------------------------------------------------------

_BOUND = st.one_of(st.none(), st.integers(-2, 2))
# a few fixed rows, so that members share rows under different bounds
_ROW = st.sampled_from([(), ((0, 1),), ((0, 1), (2, -1)), ((1, 2),)]) | st.lists(
    st.tuples(st.integers(0, 2), st.integers(-2, 2).filter(bool)), max_size=3
).map(lambda pairs: tuple(sorted(dict(pairs).items())))
_MEMBER = st.lists(st.tuples(_ROW, _BOUND, _BOUND), max_size=4)


def _test_holds(test, p, scale):
    row, lo, hi = test
    s = sum(a * p[i] for i, a in row)
    return (lo is None or lo * scale <= s) and (hi is None or s <= hi * scale)


def _negated(row):
    return tuple((i, -a) for i, a in row)


def _folded(test):
    """The test on the lexicographically smaller of its row and the row's
    negative: ``(-row, lo, hi)`` holds exactly when ``(row, -hi, -lo)`` does."""
    row, lo, hi = test
    if _negated(row) < row:
        return _negated(row), None if hi is None else -hi, None if lo is None else -lo
    return test


def _rows_one_by_one(members):
    """The index's row table as a plain registration builds it: one member
    at a time, each test folded onto its row's sign and the member's bit
    OR-ed into each mask it belongs to; a test's entry holds the members
    left alive when it fails."""
    rows = {}
    for k, member in enumerate(members):
        bit = 1 << k
        for test in member:
            row, lo, hi = _folded(test)
            entry = rows.setdefault(row, [0, {}])
            entry[0] |= bit
            entry[1][lo, hi] = entry[1].get((lo, hi), 0) | bit
    everyone = (1 << len(members)) - 1
    return tuple(
        (row, users, tuple((lo, hi, everyone ^ mask) for (lo, hi), mask in checks.items()))
        for row, (users, checks) in rows.items()
    )


def _scan(members, p, scale):
    return next(
        (k for k, m in enumerate(members) if all(_test_holds(t, p, scale) for t in m)), None
    )


_POINTS = st.lists(
    st.tuples(st.lists(st.integers(-3, 3), min_size=3, max_size=3), st.integers(1, 3)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(members=st.lists(_MEMBER, max_size=12), points=_POINTS)
def test_shared_row_index_finds_the_first_member_the_scan_finds(members, points):
    def holds(member, p, scale):
        return all(_test_holds(t, p, scale) for t in member)

    index = SharedRowIndex(members, lambda member: member)
    # construction registers every member in one batch: the same masks, and
    # the rows in the same order, as one member at a time
    assert index._rows == _rows_one_by_one(members)
    for p, scale in points:
        # (through the module: pytest would collect a bare `tests_hold`)
        assert [linalg.tests_hold(m, p, scale) for m in members] == [
            holds(m, p, scale) for m in members
        ]
        assert index.first(p, scale) == _scan(members, p, scale)


@settings(max_examples=150, deadline=None)
@given(members=st.lists(_MEMBER, max_size=12), points=_POINTS)
def test_holding_is_the_mask_of_the_members_that_hold_and_first_its_lowest_bit(members, points):
    index = SharedRowIndex(members, lambda member: member)
    for p, scale in points:
        mask = index.holding(p, scale)
        assert mask == sum(1 << k for k, m in enumerate(members) if linalg.tests_hold(m, p, scale))
        assert index.first(p, scale) == ((mask & -mask).bit_length() - 1 if mask else None)


# rows drawn with either sign, so members test one hyperplane from both sides
_SIGNED_ROW = st.tuples(
    st.sampled_from([((0, 1),), ((0, 2), (2, -1)), ((0, -1), (1, 1)), ((1, 2), (2, 3))]),
    st.booleans(),
).map(lambda pair: _negated(pair[0]) if pair[1] else pair[0])
_SIGNED_BOUND = st.one_of(st.none(), st.just(0), st.integers(-3, 3).filter(bool))


@settings(max_examples=200, deadline=None)
@given(
    members=st.lists(
        st.lists(st.tuples(_SIGNED_ROW, _SIGNED_BOUND, _SIGNED_BOUND), max_size=4), max_size=12
    ),
    points=_POINTS,
)
def test_a_row_and_its_negative_share_one_entry_and_locate_like_the_scan(members, points):
    index = SharedRowIndex(members, lambda member: member)
    hyperplanes = {_folded(test)[0] for member in members for test in member}
    assert sorted(row for row, _, _ in index._rows) == sorted(hyperplanes)
    for p, scale in points:
        assert index.first(p, scale) == _scan(members, p, scale)


def test_a_batch_wider_than_a_byte_registers_like_one_member_at_a_time():
    # each member bounds the sum of two coordinates from below; construction
    # registers the 20 in one batch that spans three bytes
    members = [[(((k % 3, 1), ((k + 1) % 3, 1)), k % 5 - 2, None)] for k in range(20)]
    index = SharedRowIndex(members, lambda member: member)
    assert index._rows == _rows_one_by_one(members)
    # every row has a positive first coefficient, so each is kept as its
    # negative with the bound moved to the other side
    assert all(row[0][1] < 0 and lo is None for row, _, checks in index._rows for lo, _, _ in checks)
    points = [((-3, -3, -3), 1), ((0, 0, 0), 1), ((1, 0, 0), 2), ((-3, -3, -3), 1)]
    scan = [
        next((k for k, m in enumerate(members) if linalg.tests_hold(m, p, scale)), None)
        for p, scale in points
    ]
    assert [index.first(p, scale) for p, scale in points] == scan == [None, 0, 0, None]


# --- scaled points -----------------------------------------------------------

small_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
exact_entries = st.one_of(st.integers(-12, 12), small_fractions)


def cleared(point):
    """Reference clearing: each entry as a ``Fraction``, times the lcm D of
    their denominators, and D."""
    fractions = [Fraction(x) for x in point]
    scale = lcm(*(x.denominator for x in fractions))
    return tuple(int(x * scale) for x in fractions), scale


@settings(max_examples=300, deadline=None)
@given(st.lists(exact_entries, max_size=8))
def test_scaled_point_equals_integer_scaled(point):
    """Int, Fraction and mixed points are cleared by one lcm: ``scaled_point``
    and ``integer_scaled`` of the point alone both give the reference's
    integer point and scale."""
    expect, scale = cleared(point)
    p, d = scaled_point(point, len(point))
    assert (p, d) == (expect, scale)
    assert integer_scaled([point]) == ((expect,), scale)
    assert all(type(x) is int for x in p)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(exact_entries, max_size=6),
    st.lists(st.one_of(st.booleans(), st.sampled_from([0.5, -0.25, 2.0, 0.0])), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_scaled_point_of_bool_and_float_entries_equals_integer_scaled(point, odd, rnd):
    mixed = point + odd
    rnd.shuffle(mixed)
    expect, scale = cleared(mixed)
    assert scaled_point(mixed, len(mixed)) == (expect, scale)
    assert integer_scaled([mixed]) == ((expect,), scale)


def test_scaled_point_examples_and_length_check():
    assert scaled_point((3, -1), 2) == ((3, -1), 1)
    assert scaled_point((Fraction(1, 2), 3, Fraction(-2, 3)), 3) == ((3, 18, -4), 6)
    assert scaled_point((True, Fraction(1, 2)), 2) == ((2, 1), 2)
    assert scaled_point((0.5, 1), 2) == ((1, 2), 2)
    assert scaled_point((), 0) == ((), 1)
    for point in [(1, 2), (Fraction(1, 2),), (0.5, True, 1)]:
        with pytest.raises(ValueError, match="expected 4"):
            scaled_point(point, 4)
