"""Exact linear algebra: rational RREF, sparse elimination, integer column
echelon pivots, a shared-row membership index, LP.

Everything runs over ``fractions.Fraction`` or plain Python integers.  The
matrices in this project are small (ambient dimension n*(r-1), relation
matrices a few hundred rows) but must be exact, so there is no floating
point anywhere.

Dense rational elimination is written once, in ``_rref``: ``solve_columns``
reads its answer off it, and so do the tests' rank and nullspace
references.  No command runs it: a cone's rank is the number of its
generators' ``lattice_pivots``, which also say whether the generators extend
to a lattice basis, and a normal cell's span rows are a closed form.  No
vector is summed here either: every vector the fan and the normal complex
are built from (a ray, a curve's embedding, an extreme point of the
union, a normal cell's vertices and rows) is one multiple of a basis image
per factor, at the slots ``fan.block_slot`` gives, and every vector but a
cell's sparse rows is written by ``fan.place``.  ``solve_columns`` shares
nothing with the integer cone kernel of :mod:`cyclic_wonderful.fan`, whose
reference it is.

Sparse integer elimination (``SparseEliminator``) updates each row in place:
against a pivot row of lead 1 it subtracts a multiple over the pivot's
columns with no gcd, and only a pivot of another lead scales the row, which
is then divided by its content.  A surviving row becomes a pivot at the
lead column the reduction found, divided by its content only when that
lead is not +-1.  A fed row is reduced as it is, with no copy: ``add``
takes it over.

Membership in a cone of a fan or a cell of a normal complex is one kind of
question, asked of a point cleared to integers by ``scaled_point``: do a
few sparse integer row tests ``(row, lo, hi)``, meaning
``lo * D <= row . p <= hi * D``, all hold at a point ``p / D``.
``tests_hold`` answers it for one member, stopping at the first failing
test.  ``SharedRowIndex`` finds the members of a scan (the maximal cones
of a fan, the cells of a normal complex) whose tests all hold, as a
bitmask, or the first of them; the members share most of their rows, so it
evaluates each distinct row, up to sign, once per point and drops members
by bitmask.

Hull extremeness is decided over the integers: ``integer_scaled`` clears a
point set's denominators to one common D, each point through
``scaled_point``, and the phase-1 simplex behind ``in_convex_hull`` pivots
fraction-free (each tableau entry is the basis determinant times its
rational value; every division is exact).  Only ``check`` runs it, as the
second route to the union extremes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable, Iterable, Sequence

Vector = Sequence  # any indexable of ints/Fractions


def _rref(rows: Sequence[Vector], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q of the first ncols columns.

    Entries past column ncols ride along with the row operations (an
    augmented right-hand side).  Returns the reduced rows, pivot rows first,
    and the pivot column of each pivot row.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pr = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        pv = m[rank][col]
        piv = m[rank] = [x / pv for x in m[rank]]
        for i, row in enumerate(m):
            if i != rank and row[col] != 0:
                f = row[col]
                m[i] = [x - f * y if y else x for x, y in zip(row, piv)]
        pivots.append(col)
    return m, pivots


def solve_columns(cols: Sequence[Vector], target: Vector) -> list[Fraction] | None:
    """Solve sum_j c_j * cols[j] = target for independent columns.

    Returns the unique coefficient list, or None when the system is
    inconsistent.  Raises if the columns are linearly dependent, which the
    callers (simplicial cones) never produce.
    """
    k = len(cols)
    aug = [[col[i] for col in cols] + [t] for i, t in enumerate(target)]
    m, pivots = _rref(aug, k)
    if len(pivots) < k:
        raise ValueError("columns are linearly dependent")
    if any(row[k] != 0 for row in m[k:]):
        return None
    return [row[k] for row in m[:k]]


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """The row divided by its content, with a positive entry at ``lead``.
    A row of content 1 is negated in place: it is the eliminator's own."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if row[lead] < 0:
        g = -g
    if g == -1:
        for c, v in row.items():
            row[c] = -v
    elif g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


class SparseEliminator:
    """Incremental exact elimination over the integers.

    Rows are sparse ``{column: coefficient}`` dicts.  Feeding a row reduces
    it against the pivots collected so far; a surviving nonzero row becomes
    a new pivot with a positive lead, divided by its content unless its
    lead is +-1 (its content is then 1: it is kept or negated in place).
    The row is updated in place: against a pivot of lead 1 the update is
    ``r -= b * p`` over the pivot's columns, with no gcd; only a pivot of
    lead ``a > 1`` scales the row by ``a / gcd(a, b)``, and the row is then
    divided by its content.  Each intermediate row is a nonzero multiple of
    the cross-multiplied one, so the pivots are the same.  The rank
    oracle's colex columns give lead 1 to all but a few of its pivots (8
    of 6,177 at (2,4)); every row it is fed has lead +-1 as built, and
    none reduces to zero, at the specs measured.

    ``add`` takes its row over and reduces it as it is, with no copy;
    ``reduce`` and ``is_in_span`` work on a copy and leave their argument
    unchanged.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduced(self, r: dict[int, int]) -> tuple[int, dict[int, int]] | None:
        """Reduces r, of nonzero ints, in place; returns its lead column and
        the primitive row with a positive lead, or None when r reduces to 0."""
        pivots = self.pivots
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                lead = r[c]
                if lead == -1:  # a lead of +-1 leaves content 1: no gcd
                    for col, v in r.items():
                        r[col] = -v
                elif lead != 1:
                    r = _primitive(r, c)
                return c, r
            a, b = p[c], r[c]
            if a != 1:
                g = gcd(a, b)
                a, b = a // g, b // g
            if a != 1:  # a did not divide b: scale the row
                r = {col: a * v for col, v in r.items()}
            for col, v in p.items():
                x = r.get(col, 0) - b * v
                if x:
                    r[col] = x
                else:
                    del r[col]
            if a != 1 and r:
                r = _primitive(r, min(r))
        return None

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """The row reduced against the pivots and made primitive; {} when it
        is in their span.  The argument is left unchanged."""
        reduced = self._reduced({c: int(v) for c, v in row.items() if v})
        return {} if reduced is None else reduced[1]

    def add(self, row: dict[int, int]) -> bool:
        """Feed a row of nonzero ints, which the eliminator takes over: it is
        reduced in place and may become a pivot row.  Returns True when it
        increased the rank."""
        reduced = self._reduced(row)
        if reduced is None:
            return False
        lead, r = reduced
        self.pivots[lead] = r
        return True

    def is_in_span(self, row: dict[int, int]) -> bool:
        return not self.reduce(row)


def lattice_pivots(rows: Sequence[Sequence[int]]) -> list[int]:
    """The absolute pivots of an integer column echelon form of the rows.

    Each row in turn is cleared by Euclidean column steps over the columns
    that hold no pivot yet, until one of them is nonzero in the row: that
    entry's absolute value is the row's pivot, and its column holds it from
    then on.  A row with no such column gets no pivot.  Column steps are
    unimodular, so the number of pivots is the rank, and when the rows are
    independent the product of the pivots is the gcd of their maximal
    minors: the rows extend to a basis of the lattice exactly when every row
    gets the pivot 1.
    """
    free = [list(col) for col in zip(*rows)]
    pivots: list[int] = []
    for i in range(len(rows)):
        live = [col for col in free if col[i]]
        if not live:
            continue
        while len(live) > 1:
            best = min(live, key=lambda col: abs(col[i]))
            for col in live:
                if col is not best:
                    q = col[i] // best[i]
                    col[:] = [x - q * y for x, y in zip(col, best)]
            live = [best, *[col for col in live if col is not best and col[i]]]
        pivots.append(abs(live[0][i]))
        free = [col for col in free if col is not live[0]]
    return pivots


# ---------------------------------------------------------------------------
# First member of a scan whose integer rows hold, one evaluation per row
# ---------------------------------------------------------------------------

SparseRow = tuple[tuple[int, int], ...]
# (row, lo, hi): the test lo * D <= row . p <= hi * D at the point p / D,
# either bound None for no bound
RowTest = tuple[SparseRow, int | None, int | None]


def tests_hold(tests: Iterable[RowTest], p: Sequence[int], scale: int) -> bool:
    """Whether every test ``lo * scale <= row . p <= hi * scale`` holds, with
    p an integer vector and scale > 0; stops at the first that fails."""
    for row, lo, hi in tests:
        s = 0
        for i, a in row:
            s += a * p[i]
        if (lo is not None and s < lo * scale) or (hi is not None and s > hi * scale):
            return False
    return True


class SharedRowIndex:
    """The members, in scan order, whose integer row tests all hold: all of
    them as a bitmask (``holding``), or the first (``first``).

    A member holds at ``p / scale`` (p an integer vector, scale > 0) when
    ``tests_hold(tests(member), p, scale)``.

    Every member is registered at construction.  A row and its negative
    are one hyperplane, so each test is keyed by the sign of its row that
    is lexicographically smaller (the one with a negative first
    coefficient), a test ``(-row, lo, hi)`` becoming ``(row, -hi, -lo)``.
    Each distinct row carries one bitmask of the members using it and, per
    pair of bounds it is tested against, the mask of the members that
    survive that test failing.  A query evaluates each distinct row at most
    once, skipping a row that no member still alive uses, and ANDs away the
    members of every test that fails; the surviving bits are the members
    that hold, and the lowest of them is the first.
    """

    def __init__(self, members: Sequence, tests: Callable[[Any], Iterable[RowTest]]) -> None:
        # Each test's bits are set in one byte string, which becomes its
        # mask, so no mask as wide as the scan is OR-ed once per member.
        width = (len(members) >> 3) + 1
        gathered: dict[RowTest, bytearray] = {}
        for bit, member in enumerate(members):
            byte, flag = bit >> 3, 1 << (bit & 7)
            for test in tests(member):
                buf = gathered.get(test)
                if buf is None:
                    buf = gathered[test] = bytearray(width)
                buf[byte] |= flag
        # row -> [mask of every member using it, {(lo, hi): mask}], each
        # test folded onto its row's sign
        folded: dict[SparseRow, list] = {}
        for (row, lo, hi), buf in gathered.items():
            if row and row[0][1] > 0:
                row = tuple([(i, -a) for i, a in row])
                lo, hi = None if hi is None else -hi, None if lo is None else -lo
            mask = int.from_bytes(buf, "little")
            entry = folded.setdefault(row, [0, {}])
            entry[0] |= mask
            entry[1][lo, hi] = entry[1].get((lo, hi), 0) | mask
        everyone = self._all = (1 << len(members)) - 1
        # (row, users, ((lo, hi, the members left when the test fails), ...))
        self._rows = tuple(
            (row, users, tuple([(lo, hi, everyone ^ mask) for (lo, hi), mask in checks.items()]))
            for row, (users, checks) in folded.items()
        )

    def holding(self, p: Sequence[int], scale: int) -> int:
        """The bitmask of every member that holds at ``p / scale``: bit k is
        set exactly when the k-th member's tests all hold there."""
        alive = self._all
        for row, users, checks in self._rows:
            if not users & alive:
                continue
            s = 0
            for i, a in row:
                s += a * p[i]
            for lo, hi, keep in checks:
                if (lo is not None and s < lo * scale) or (hi is not None and s > hi * scale):
                    alive &= keep
                    if not alive:
                        return 0
        return alive

    def first(self, p: Sequence[int], scale: int) -> int | None:
        """Position of the first member that holds at ``p / scale``, or None:
        the lowest bit of ``holding``."""
        alive = self.holding(p, scale)
        return (alive & -alive).bit_length() - 1 if alive else None


# ---------------------------------------------------------------------------
# Exact LP feasibility (integer phase-1 simplex) and convex hull extremeness
# ---------------------------------------------------------------------------


def integer_scaled(vectors: Iterable[Vector]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The rational vectors times the lcm D of all their denominators, and D.

    Each vector is cleared by ``scaled_point`` and then brought to the one
    common D, so ``q . (p / D) <= b`` becomes ``q . p <= b * D`` and hull
    membership of ``p / D`` among ``P / D`` is that of ``p`` among ``P``.
    """
    cleared = [scaled_point(v, len(v)) for v in vectors]
    scale = lcm(*[d for _, d in cleared])
    return tuple([tuple([x * (scale // d) for x in p]) for p, d in cleared]), scale


def scaled_point(point: Vector, dim: int) -> tuple[tuple[int, ...], int]:
    """``(D * point, D)`` for the lcm ``D`` of the coordinates' denominators:
    the one place a rational point is cleared to integers.

    An entry that is neither ``int`` nor ``Fraction`` (``bool``, ``float``)
    is made a ``Fraction`` first; each entry's numerator and denominator are
    read once, as its ``as_integer_ratio``.  Raises ValueError when the
    point's length is not ``dim``.
    """
    if len(point) != dim:
        raise ValueError(f"point has length {len(point)}, expected {dim}")
    ratios = [
        (x if type(x) is Fraction or type(x) is int else Fraction(x)).as_integer_ratio()
        for x in point
    ]
    scale = lcm(*[d for _, d in ratios])
    return tuple([a * (scale // d) for a, d in ratios]), scale


def _integer_field(text: str, field: str) -> int:
    """``int`` of text from outside the program, refusing digit-group
    underscores and non-ASCII digits, which ``int`` reads (``0_1`` and
    ``١`` as 1); ``field`` names the text in the ValueError."""
    if "_" in text or not text.isascii():
        raise ValueError(f"{field} {text!r} is not an integer")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """An integer, ``p/q`` or plain decimal; exponent notation (``1e10000000``
    is ten million digits), digit-group underscores (``Fraction`` reads
    ``1_000`` from Python 3.11 on, not before), non-ASCII text (``Fraction``
    reads any Unicode decimal digit, ``١`` as 1), any other text
    ``Fraction`` refuses and a zero denominator raise ValueError, each in
    this module's words."""
    if "e" not in text.lower() and "_" not in text and text.isascii():
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        except ValueError:
            pass
    raise ValueError(f"{text!r} is not an integer, p/q or plain decimal")


def _lp_feasible_eq(a: list[list[int]], b: list[int]) -> bool:
    """Feasibility of {x >= 0 : A x = b} for integer A, b by phase-1 simplex.

    Integer pivoting (Edmonds; Bareiss's exact division): each tableau entry
    is the current basis determinant ``det`` times its rational value, so a
    pivot ``pv`` maps every other row's entry v to ``(pv*v - f*w) // det``
    exactly, leaves the pivot row as it is and makes ``pv`` the new ``det``.
    Ratio-test pivots are positive, so ``det`` stays positive and every sign
    test reads the rational sign.  Bland's rule: the first column with a
    negative reduced cost enters; ratio ties leave by the smallest basis index.
    """
    m = len(b)
    n = len(a[0]) if m else 0
    tab: list[list[int]] = []
    for i in range(m):
        row = list(a[i])
        rhs = b[i]
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        tab.append(row + [int(k == i) for k in range(m)] + [rhs])
    width = n + m
    obj = [-sum(col) for col in zip(*tab)] if m else [0]
    obj[n : n + m] = [0] * m  # artificials carry cost 1; reduced cost is 0
    basis = list(range(n, n + m))
    det = 1
    while True:
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            col = tab[i][enter]
            if col > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / col_i against rhs_leave / col_leave, both pivots > 0
                lhs = tab[i][width] * tab[leave][enter]
                rhs = tab[leave][width] * col
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            break  # cannot happen in phase 1; defensive
        piv = tab[leave]
        pv = piv[enter]
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [(pv * v - f * w) // det for v, w in zip(tab[i], piv)]
        f = obj[enter]
        obj = [(pv * v - f * w) // det for v, w in zip(obj, piv)]
        det = pv
        basis[leave] = enter
    return obj[width] == 0


def _check_lengths(vectors: Iterable[Vector], d: int, what: str) -> None:
    for v in vectors:
        if len(v) != d:
            raise ValueError(f"{what} has length {len(v)}, expected {d}")


def in_convex_hull(point: Vector, points: Sequence[Vector]) -> bool:
    """Exact membership of ``point`` in the convex hull of ``points``.

    Raises ValueError when a point of the set differs in length from
    ``point``.
    """
    _check_lengths(points, len(point), "a point of the set")
    (p, *qs), _ = integer_scaled([point, *points])
    return _in_hull_integer(p, qs)


def _in_hull_integer(p: tuple[int, ...], qs: Sequence[tuple[int, ...]]) -> bool:
    """Whether the integer point ``p`` is a convex combination of the integer
    points ``qs`` on its scale, by the LP; no ``qs`` gives False."""
    a = [[q[i] for q in qs] for i in range(len(p))]
    a.append([1] * len(qs))
    return _lp_feasible_eq(a, [*p, 1])


def extreme_points(points: Iterable[Vector]) -> list[tuple[Fraction, ...]]:
    """The extreme points of the convex hull of a finite point set, sorted.

    The set is scaled to integers once.  A point ``p`` that is the unique
    maximiser of ``<p, .>`` over the set is a vertex of the hull, so it is
    accepted without an LP.  Every other point is tested by ``_in_hull_integer``
    against the rest of the set, less the points already found inside: those
    are not vertices, so dropping them leaves the hull as it is.
    """
    unique = sorted({tuple(Fraction(x) for x in p) for p in points})
    if unique:
        _check_lengths(unique, len(unique[0]), "a point")
    ints, _ = integer_scaled(unique)
    undecided = []
    for i, p in enumerate(ints):
        values = [sum(x * y for x, y in zip(p, q)) for q in ints]
        if sum(v >= values[i] for v in values) > 1:
            undecided.append(i)
    inside: set[int] = set()
    for i in undecided:
        rest = [q for j, q in enumerate(ints) if j != i and j not in inside]
        if _in_hull_integer(ints[i], rest):
            inside.add(i)
    return [p for i, p in enumerate(unique) if i not in inside]
