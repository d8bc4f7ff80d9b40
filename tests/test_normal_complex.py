"""Cells of the truncated support: heights, vertices, tiling, symmetry."""

import contextlib
import functools
import importlib
import io
import itertools
import pkgutil
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sampling import Lcg, sample_curve, sample_mixed_points, sample_support_point
from test_fan import basis_image
from test_linalg import combine, nullspace

import cyclic_wonderful
from cyclic_wonderful import fan, linalg, normal_complex, selfcheck, tropical
from cyclic_wonderful.cli import build_parser, main, run
from cyclic_wonderful.fan import ray_vector, support_decomposition
from cyclic_wonderful.guards import FeasibilityError
from cyclic_wonderful.lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    DecoratedSubset,
    chain_intersect,
    maximal_chains,
)
from cyclic_wonderful.linalg import (
    extreme_points,
    integer_scaled,
    scaled_point,
    solve_columns,
    tests_hold,
)
from cyclic_wonderful.normal_complex import (
    NormalComplex,
    cell_polytope,
    complex_cells,
    delta,
    in_delta,
    union_extreme_points,
    z_vector,
)


def dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def ds(*pairs):
    return DecoratedSubset.of(pairs)


def chain(sets, deco):
    return Chain.of(sets, deco)


# --- heights -----------------------------------------------------------------


def test_delta_values():
    assert delta(2, 1) == 2 and delta(2, 2) == 3
    assert delta(3, 3) == 6
    assert delta(5, 0) == 0
    assert delta(1, 1) == 1


def test_delta_is_the_closed_form_height():
    # both tiling routes read delta, so the tiling check cannot catch a wrong
    # height; this pins it on its own
    for n in range(13):
        for k in range(n + 1):
            assert delta(n, k) == k * (2 * n - k + 1) // 2


def test_delta_range_check():
    with pytest.raises(ValueError):
        delta(2, 3)
    with pytest.raises(ValueError):
        delta(2, -1)


def test_z_vector_by_support_size():
    z22 = z_vector(ArrangementSpec(2, 2))
    assert all(v == 2 for d, v in z22.items() if d.size == 1)
    assert all(v == 3 for d, v in z22.items() if d.size == 2)
    z31 = z_vector(ArrangementSpec(3, 1))
    assert set(z31.values()) == {1} and len(z31) == 3
    z23 = z_vector(ArrangementSpec(2, 3))
    assert {d.size: v for d, v in z23.items()} == {1: 3, 2: 5, 3: 6}


# --- single cells ------------------------------------------------------------


def test_cell_2_2_vertices():
    spec = ArrangementSpec(2, 2)
    cell = cell_polytope(chain([(1,), (1, 2)], {1: 0, 2: 0}), spec)
    # per-factor lengths (x1, x2) with x1 >= x2 >= 0, x1 <= 2, x1 + x2 <= 3,
    # mapped to ambient by v = -x1 e_1^1 - x2 e_2^1
    expected = {
        (0, 0),
        (-2, 0),
        (-2, -1),
        (Fraction(-3, 2), Fraction(-3, 2)),
    }
    assert set(cell.v_rep) == {tuple(map(Fraction, v)) for v in expected}


def test_cell_3_1_is_a_unit_segment_along_the_generator():
    spec = ArrangementSpec(3, 1)
    cell = cell_polytope(chain([(1,)], {1: 0}), spec)
    assert set(cell.v_rep) == {(0, 0), (-1, -1)}


def test_origin_is_a_vertex_of_every_cell():
    for r, n in [(2, 2), (3, 2), (2, 3)]:
        spec = ArrangementSpec(r, n)
        origin = tuple(Fraction(0) for _ in range(spec.ambient_dim))
        for c in maximal_chains(spec):
            assert origin in cell_polytope(c, spec).v_rep


def reference_cell(c, spec):
    """``(h_rep, v_rep)`` of the cell by the route the placement replaced:
    the span rows from the RREF nullspace of the generators, and every
    vertex and row a ``combine`` of the steps into ``Fraction(0)``."""
    gens = [ray_vector(p, spec) for p in c.prefixes]
    n, dim, zero = len(gens), spec.ambient_dim, Fraction(0)
    steps = [
        tuple(a - b for a, b in zip(g, prev)) for prev, g in zip([(0,) * dim, *gens], gens)
    ]
    lengths, common = normal_complex._vertex_lengths(n)
    vertices = [combine([Fraction(x, common) for x in y], steps, dim, zero) for y in lengths]
    h_rep = []
    for w in nullspace(gens):
        h_rep += [(w, zero), (combine([-1], [w], dim, zero), zero)]
    units = [combine([Fraction(1, sum(x * x for x in f))], [f], dim, zero) for f in steps]
    for j in range(n):
        h_rep.append((combine([-1, 1], units[j : j + 2], dim, zero), zero))
    for j in range(n):
        h_rep.append((combine([1] * (j + 1), units, dim, zero), Fraction(delta(spec.n, j + 1))))
    return tuple(h_rep), tuple(sorted(vertices))


def cleared_tests(h_rep):
    """Each H-row times the lcm of its denominators by ``integer_scaled``, as
    the test ``(nonzero (index, coeff) pairs, None, bound)``."""
    tests = []
    for normal, bound in h_rep:
        (row,), _ = integer_scaled([(*normal, bound)])
        tests.append((tuple((i, a) for i, a in enumerate(row[:-1]) if a), None, row[-1]))
    return tuple(tests)


def assert_placed_cell_is_the_reference(c, spec):
    cell = cell_polytope(c, spec)
    h_rep, v_rep = reference_cell(c, spec)
    # equal values, the same Fraction type in every entry, the same text
    assert cell.h_rep == h_rep and cell.v_rep == v_rep
    assert str(cell.h_rep) == str(h_rep) and str(cell.v_rep) == str(v_rep)
    entries = [x for row, bound in cell.h_rep for x in (*row, bound)]
    assert all(type(x) is Fraction for x in entries + [x for v in cell.v_rep for x in v])
    assert cell._tests == cleared_tests(h_rep)


@pytest.mark.parametrize(
    "r,n",
    [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (2, 4), (7, 1)],
)
def test_placed_cells_equal_the_solved_cells(r, n):
    spec = ArrangementSpec(r, n)
    for c in maximal_chains(spec):
        assert_placed_cell_is_the_reference(c, spec)


@functools.lru_cache(maxsize=None)
def _maximal_chains(r, n):
    return maximal_chains(ArrangementSpec(r, n))


@settings(max_examples=100, deadline=None)
@given(r=st.integers(2, 5), n=st.integers(0, 3), data=st.data())
def test_a_placed_cell_equals_the_solved_cell(r, n, data):
    assert_placed_cell_is_the_reference(
        data.draw(st.sampled_from(_maximal_chains(r, n))), ArrangementSpec(r, n)
    )


def test_cell_rejects_non_maximal_chains():
    spec = ArrangementSpec(2, 2)
    with pytest.raises(ValueError):
        cell_polytope(chain([(1,)], {1: 0}), spec)


def test_vertices_satisfy_h_rep_with_enough_equalities():
    spec = ArrangementSpec(3, 2)
    cell = cell_polytope(chain([(1,), (1, 2)], {1: 0, 2: 2}), spec)
    for v in cell.v_rep:
        tight = 0
        for normal, bound in cell.h_rep:
            value = dot(normal, v)
            assert value <= bound
            if value == bound:
                tight += 1
        assert tight >= spec.n


def test_cell_contained_in_its_cone():
    spec = ArrangementSpec(3, 2)
    for c in maximal_chains(spec)[:6]:
        cell = cell_polytope(c, spec)
        gens = [ray_vector(p, spec) for p in c.prefixes]
        for v in cell.v_rep:
            sol = solve_columns(gens, v)
            assert sol is not None and all(x >= 0 for x in sol)


# --- whole complexes ---------------------------------------------------------


def test_complex_2_2_eight_quadrilaterals():
    nc = complex_cells(ArrangementSpec(2, 2))
    assert len(nc.cells) == 8
    assert all(len(c.v_rep) == 4 for c in nc.cells)


def test_complex_3_1_three_segments():
    nc = complex_cells(ArrangementSpec(3, 1))
    assert len(nc.cells) == 3
    assert all(len(c.v_rep) == 2 for c in nc.cells)


def test_complex_2_1_union_is_a_symmetric_interval():
    # two segments [0, 1] and [0, -1] scaled by the height 1: union [-1, 1]
    nc = complex_cells(ArrangementSpec(2, 1))
    assert len(nc.cells) == 2
    points = {v[0] for c in nc.cells for v in c.v_rep}
    assert points == {Fraction(-1), Fraction(0), Fraction(1)}
    extremes = union_extreme_points(ArrangementSpec(2, 1))
    assert {p[0] for p in extremes} == {Fraction(-1), Fraction(1)}


def test_complex_guard():
    with pytest.raises(FeasibilityError):
        complex_cells(ArrangementSpec(3, 4))  # 1944 cells


def test_one_cell_is_built_beyond_the_complex_guard(monkeypatch):
    # (6,3) has 1296 maximal chains, over the complex's cell bound; the bound
    # limits whole complexes, and a single cell costs the same at any r
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    spec = ArrangementSpec(6, 3)
    cell = cell_polytope(maximal_chains(spec)[0], spec)
    assert len(cell.v_rep) == 2**spec.n
    with pytest.raises(FeasibilityError):
        complex_cells(spec)


def test_octagon_extreme_points():
    extremes = union_extreme_points(ArrangementSpec(2, 2))
    expected = {
        (Fraction(sa * a), Fraction(sb * b))
        for a, b in itertools.permutations((1, 2))
        for sa in (1, -1)
        for sb in (1, -1)
    }
    assert set(extremes) == expected


def test_hull_extremes_at_2_3_are_the_signed_permutations_of_1_2_3():
    extremes = union_extreme_points(ArrangementSpec(2, 3))
    expected = {
        tuple(Fraction(s * x) for s, x in zip(signs, perm))
        for perm in itertools.permutations((1, 2, 3))
        for signs in itertools.product((1, -1), repeat=3)
    }
    assert len(expected) == 48
    assert extremes == sorted(expected)


def _cell_vertices(spec):
    return {v for cell in complex_cells(spec).cells for v in cell.v_rep}


@pytest.mark.parametrize(
    "r,n", [(2, 0), (3, 1), (2, 2), (3, 2), (4, 2), (2, 3), (5, 2)]
)
def test_union_extremes_are_the_hull_extremes_of_the_cell_vertices(r, n):
    # the fraction-free simplex over every distinct cell vertex is the oracle
    spec = ArrangementSpec(r, n)
    assert union_extreme_points(spec) == extreme_points(_cell_vertices(spec))


@pytest.mark.parametrize("r,n", [(2, 0), (3, 1), (2, 2), (4, 2), (3, 3)])
def test_placed_union_extremes_equal_the_summed_orbit(r, n):
    # the orbit as it was built before placement: each point a combine of
    # basis images into Fraction(0); equal values, types and text, same order
    spec = ArrangementSpec(r, n)
    dim = spec.ambient_dim
    images = [[basis_image(spec, i, a) for a in range(r)] for i in range(1, n + 1)]
    expect = sorted(
        combine(sigma, [block[a] for block, a in zip(images, residues)], dim, Fraction(0))
        for sigma in itertools.permutations(range(1, n + 1))
        for residues in itertools.product(range(r), repeat=n)
    )
    extremes = union_extreme_points(spec)
    assert extremes == expect and str(extremes) == str(expect)
    assert all(type(x) is Fraction for point in extremes for x in point)


def test_union_extremes_build_no_complex_and_run_no_lp(monkeypatch):
    def refuse(*args):
        raise AssertionError("the orbit needs neither the cells nor an LP")

    monkeypatch.setattr(normal_complex, "complex_cells", refuse)
    monkeypatch.setattr(normal_complex, "extreme_points", refuse, raising=False)
    monkeypatch.setattr(linalg, "extreme_points", refuse)
    monkeypatch.setattr(linalg, "in_convex_hull", refuse)
    monkeypatch.setattr(linalg, "_in_hull_integer", refuse)
    assert len(union_extreme_points(ArrangementSpec(3, 2))) == 18


def test_hull_extremes_clear_the_cell_vertices_once(monkeypatch):
    spec = ArrangementSpec(2, 2)
    vertices = {v for cell in complex_cells(spec).cells for v in cell.v_rep}
    cleared = []

    def counting(point, dim):
        cleared.append(point)
        return scaled_point(point, dim)

    monkeypatch.setattr(linalg, "scaled_point", counting)
    extremes = extreme_points(vertices)
    # one clearing per vertex; the LPs read the integers already cleared
    assert len(cleared) == len(vertices) == 17
    assert extremes == union_extreme_points(spec) and len(extremes) == 8


@pytest.mark.parametrize("r,n", [(3, 3), (4, 3), (2, 4)])
def test_union_extremes_past_the_old_hull_bound_are_cell_vertices_in_delta(
    monkeypatch, r, n
):
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    spec = ArrangementSpec(r, n)
    extremes = union_extreme_points(spec)
    assert len(set(extremes)) == len(extremes) == spec.num_maximal_chains
    assert set(extremes) <= _cell_vertices(spec)
    assert all(in_delta(p, spec) for p in extremes)


def test_union_extremes_are_bounded_by_the_normal_complex_guard(monkeypatch):
    monkeypatch.setenv("CYCLIC_WONDERFUL_MAX_CELLS", "7")  # (2,2) has 8 cells
    with pytest.raises(FeasibilityError, match="normal complex with 8 cells"):
        union_extreme_points(ArrangementSpec(2, 2))


@pytest.mark.parametrize("route", ["orbit", "lp"])
def test_check_fails_the_2_2_extremes_line_when_either_route_disagrees(monkeypatch, route):
    # drop one extreme point from one route; the other route must catch it
    if route == "orbit":
        target, name = normal_complex, "union_extreme_points"
    else:
        target, name = selfcheck, "extreme_points"
    real = getattr(target, name)
    monkeypatch.setattr(target, name, lambda arg: real(arg)[1:])
    [line] = [
        res
        for res in selfcheck.suite_normal(ArrangementSpec(2, 2))
        if res.name == "union extremes are the signed permutations of (1, 2)"
    ]
    assert line.status == "FAIL"


def test_no_command_runs_the_dense_rational_elimination(monkeypatch, capsys):
    # the cells' span rows were the last command-path use of the RREF
    def refuse(*args):
        raise AssertionError("no command solves a dense rational system")

    monkeypatch.setattr(linalg, "_rref", refuse)
    for argv in (
        ["normal-complex", "--r", "3", "--n", "2", "--union-extremes", "--format", "json"],
        ["check", "--r", "3", "--n", "2"],
        ["check", "--r", "2", "--n", "2"],
        ["fan", "--r", "3", "--n", "2", "--via-stellar"],
    ):
        assert main(argv) == 0, argv
    assert "FAIL" not in capsys.readouterr().out


class Refused(Exception):
    pass


def refuse_everywhere(monkeypatch, module, name):
    """Make ``module.name`` raise ``Refused`` in every package module that
    holds it, the defining one and each that imports it."""
    original = getattr(module, name)

    def refuse(*args):
        raise Refused(name)

    names = [m.name for m in pkgutil.iter_modules(cyclic_wonderful.__path__)]
    modules = [importlib.import_module(f"cyclic_wonderful.{m}") for m in names if m != "__main__"]
    for held in [cyclic_wonderful, *modules]:
        if getattr(held, name, None) is original:
            monkeypatch.setattr(held, name, refuse)


def test_every_per_factor_vector_is_written_by_fan_place(monkeypatch):
    spec = ArrangementSpec(3, 2)
    chain = next(iter(maximal_chains(spec)))
    curve = sample_curve(Lcg(3), spec)
    refuse_everywhere(monkeypatch, fan, "place")
    for write in (
        lambda: fan.ray_vector(ds((1, 1), (2, 0)), spec),
        lambda: fan.support_point(spec, [(Fraction(2), 0), (Fraction(1), 1)]),
        lambda: tropical.embed(curve, spec),
        lambda: sample_support_point(Lcg(3), spec),
        lambda: cell_polytope(chain, spec),
        lambda: union_extreme_points(spec),
    ):
        with pytest.raises(Refused):
            write()


def test_every_point_is_cleared_by_scaled_point(monkeypatch):
    spec = ArrangementSpec(3, 2)
    the_fan = fan.build_fan(spec, BuildingSet.maximal(spec))
    the_complex = complex_cells(spec)
    point = (Fraction(1, 2), 0, 0, 0)
    refuse_everywhere(monkeypatch, linalg, "scaled_point")
    for clear in (
        lambda: fan.locate_point(the_fan, point),
        lambda: the_fan.maximal_cones[0].coefficients(point),
        lambda: the_complex.contains(point),
        lambda: integer_scaled([point]),
    ):
        with pytest.raises(Refused):
            clear()


def test_union_extremes_command_builds_the_complex_once(monkeypatch, capsys):
    builds = []

    def counted(spec):
        builds.append(spec)
        return complex_cells(spec)

    monkeypatch.setattr(normal_complex, "complex_cells", counted)
    assert main(["normal-complex", "--r", "2", "--n", "2", "--union-extremes"]) == 0
    assert len(builds) == 1
    assert "union extreme points:" in capsys.readouterr().out


def test_no_command_reads_the_dense_rows(monkeypatch):
    # the JSON output writes each stored row from Polytope.integer_rows
    runs = [
        "check --r 3 --n 2 --suite normal",
        "normal-complex --r 3 --n 2",
        "normal-complex --r 3 --n 2 --union-extremes",
        "normal-complex --r 3 --n 2 --union-extremes --format json",
    ]

    def run(command):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(command.split())
        return code, buf.getvalue()

    before = [run(command) for command in runs]

    def refuse(cell):
        raise Refused("h_rep")

    monkeypatch.setattr(normal_complex.Polytope, "h_rep", property(refuse))
    assert [run(command) for command in runs] == before
    assert all(code == 0 for code, _ in before)


def _peak_bytes(build):
    """The tracemalloc peak of a second call of ``build``: the first fills
    the caches and the interpreter's free lists that a warm process has."""
    build()
    tracemalloc.start()
    try:
        kept = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del kept
    return peak


def test_cells_at_n_1_grow_like_r_squared():
    # r cells of about 2r rows each; dense rows would hold r^3 entries.  Below
    # r = 100 the free lists hold down the smaller peak (r = 25 to 50 reads 14x)
    small, large = (_peak_bytes(lambda: complex_cells(ArrangementSpec(r, 1))) for r in (100, 200))
    assert large < 5 * small


@pytest.mark.parametrize("r,n", [(50, 1), (3, 3)])
def test_cells_share_one_object_per_distinct_test(r, n):
    # 4,900 tests hold 245 distinct at (50, 1), 1,944 hold 138 at (3, 3)
    tests = [test for cell in complex_cells(ArrangementSpec(r, n)).cells for test in cell._tests]
    assert len({id(test) for test in tests}) == len(set(tests)) < len(tests)


@pytest.mark.parametrize("r,n", [(50, 1), (3, 3)])
def test_two_complexes_share_no_test(r, n):
    # the cells share their tests through a dict that lives for one
    # complex_cells call, so a second call builds every test afresh
    spec = ArrangementSpec(r, n)
    one, two = complex_cells(spec), complex_cells(spec)
    first = [test for cell in one.cells for test in cell._tests]
    second = [test for cell in two.cells for test in cell._tests]
    assert first == second
    assert not {id(test) for test in first} & {id(test) for test in second}


# --- membership --------------------------------------------------------------


def test_in_delta_examples():
    spec = ArrangementSpec(2, 2)
    assert in_delta((0, 0), spec)
    assert in_delta((-2, -1), spec)
    assert not in_delta((-2, -2), spec)  # total length 4 exceeds the height 3


def test_in_delta_outside_support():
    spec = ArrangementSpec(3, 2)
    assert not in_delta((1, 1, 0, 0), spec)


def reference_in_delta(point, spec):
    """Every subset of factors, one sum each: 2^n sums."""
    decomp = support_decomposition(point, spec)
    if decomp is None:
        return False
    lengths = [x for x, _ in decomp]
    return all(
        sum(lengths[i] for i in subset) <= delta(spec.n, size)
        for size in range(1, spec.n + 1)
        for subset in itertools.combinations(range(spec.n), size)
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_in_delta_agrees_with_every_subset_sum(data):
    r = data.draw(st.integers(2, 3))
    n = data.draw(st.integers(0, 6))
    spec = ArrangementSpec(r, n)
    # support points: one direction and a small rational length per factor
    lengths = data.draw(
        st.lists(st.fractions(0, n + 1, max_denominator=3), min_size=n, max_size=n)
    )
    residues = data.draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    images = [basis_image(spec, i, a) for i, a in enumerate(residues, start=1)]
    point = combine(lengths, images, spec.ambient_dim, Fraction(0))
    assert in_delta(point, spec) == reference_in_delta(point, spec)


def fraction_in_delta(point, spec):
    """The s largest lengths against the height of size s, sorted and summed
    as ``Fraction``s."""
    decomp = support_decomposition(point, spec)
    if decomp is None:
        return False
    totals = itertools.accumulate(sorted((x for x, _ in decomp), reverse=True))
    return all(total <= delta(spec.n, size) for size, total in enumerate(totals, start=1))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_in_delta_agrees_with_the_fraction_comparison(data):
    r = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(0, 6))
    spec = ArrangementSpec(r, n)
    # mixed denominators, and lengths that put partial sums on a height
    length = st.one_of(
        st.fractions(0, n + 1, max_denominator=12),
        st.sampled_from([Fraction(delta(n, k), j) for k in range(n + 1) for j in (1, 2, 3)]),
    )
    lengths = data.draw(st.lists(length, min_size=n, max_size=n))
    residues = data.draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    images = [basis_image(spec, i, a) for i, a in enumerate(residues, start=1)]
    point = combine(lengths, images, spec.ambient_dim, Fraction(0))
    assert in_delta(point, spec) == fraction_in_delta(point, spec)


def test_in_delta_at_n_40_sorts_instead_of_summing_every_subset():
    spec = ArrangementSpec(2, 40)
    start = time.perf_counter()
    assert in_delta((-1,) * 40, spec)  # length 1 each: s <= delta(40, s)
    assert not in_delta((-1,) * 39 + (-41,), spec)  # one factor past delta(40, 1)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
def test_cells_tile_the_truncated_support(r, n):
    spec = ArrangementSpec(r, n)
    nc = complex_cells(spec)
    rng = Lcg(0)
    points = sample_mixed_points(rng, spec, 200, max_abs=n + 2)
    hits = 0
    for p in points:
        inside = in_delta(p, spec)
        assert nc.contains(p) == inside
        hits += inside
    assert hits > 0  # the sample must exercise true cases


# --- the exact tiling line ----------------------------------------------------


TILING = "cells tile the truncated support: each cell is its maximal cone's part of it, read on the chain's rays"


@pytest.mark.parametrize(
    "r,n", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 0), (2, 0), (22, 2), (100, 1)]
)
def test_every_cell_is_its_cone_s_part_of_the_truncated_support(r, n):
    assert normal_complex.cell_failures(complex_cells(ArrangementSpec(r, n))) == []


def with_row(cell, k, test):
    """The cell with its k-th test replaced."""
    rows = list(zip(cell._tests, cell._scales))
    rows[k] = (test, rows[k][1])
    return normal_complex.Polytope(cell.v_rep, cell.label, rows)


def bound_off_by_one(cell, n):
    # truncation row of level 1, its bound delta(n, 1) + 1 in the row's scale
    k = len(cell._tests) - n
    pairs, lo, bound = cell._tests[k]
    return with_row(cell, k, (pairs, lo, bound + cell._scales[k]))


def span_row_moved(cell, n):
    # the first span row e_f, with its partner -e_f, moved to e_(f + 1)
    k = next(k for k, (pairs, _, _) in enumerate(cell._tests) if len(pairs) == 1)
    ((f, a),) = cell._tests[k][0]
    assert cell._tests[k + 1] == (((f, -a),), None, 0)
    moved = with_row(cell, k, (((f + 1, a),), None, 0))
    return with_row(moved, k + 1, (((f + 1, -a),), None, 0))


def coefficient_sign_flipped(cell, n):
    # coefficient row of level 1 negated: the cell faces away from its cone
    k = len(cell._tests) - 2 * n
    pairs, lo, bound = cell._tests[k]
    return with_row(cell, k, (tuple((f, -a) for f, a in pairs), lo, bound))


def partner_not_negated(cell, n):
    # the first span row's partner repeats it: an inequality, not an equality
    return with_row(cell, 1, cell._tests[0])


PLANTED = [bound_off_by_one, span_row_moved, coefficient_sign_flipped, partner_not_negated]


@pytest.mark.parametrize("fault", PLANTED, ids=[f.__name__ for f in PLANTED])
@pytest.mark.parametrize("r,n,k", [(3, 2, 1), (4, 2, 1), (3, 3, 1)])
def test_a_planted_fault_in_one_cell_fails_the_tiling_line(monkeypatch, fault, r, n, k):
    spec = ArrangementSpec(r, n)
    good = complex_cells(spec)
    cells = list(good.cells)
    cells[k] = fault(cells[k], n)
    bad = NormalComplex(spec, tuple(cells))
    assert normal_complex.cell_failures(bad) == [cells[k].label]
    monkeypatch.setattr(normal_complex, "complex_cells", lambda spec: bad)
    (line,) = [res for res in selfcheck.suite_normal(spec) if res.name == TILING]
    assert (line.status, line.detail) == ("FAIL", f"{len(cells)} cells, 1 failures, first {cells[k].label.text()}")


def test_the_tiling_line_samples_locates_and_indexes_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the normal suite sampled or located a point")

    for target, name in [
        (Lcg, "below"),
        (normal_complex, "in_delta"),
        (normal_complex, "SharedRowIndex"),
        (NormalComplex, "contains"),
        (normal_complex.Polytope, "contains"),
    ]:
        monkeypatch.setattr(target, name, refuse, raising=False)
    for r, n in [(3, 2), (2, 3)]:
        lines = selfcheck.suite_normal(ArrangementSpec(r, n))
        assert [res.status for res in lines] == ["PASS"] * len(lines)
        assert TILING in [res.name for res in lines]


def test_the_seed_moves_no_line_of_the_normal_suite():
    for r, n in [(2, 2), (3, 2)]:
        argv = f"check --r {r} --n {n} --suite normal --seed".split()
        outputs = {run(build_parser().parse_args([*argv, str(seed)])) for seed in (0, 12)}
        assert len(outputs) == 1 and next(iter(outputs))[0] == 0


def test_at_n_1_each_ray_and_each_distinct_span_row_is_read_once(monkeypatch):
    # the r cells hold about r^2 span rows, each with its negative, but only
    # the r - 1 rows e_f and the r - 2 rows e_f - e_0 are distinct; a cache
    # per (row, ray) pair would read r^2 of them
    r = 200
    complex_ = complex_cells(ArrangementSpec(r, 1))
    counts = {"_ray_reading": 0, "_span_row": 0}
    for name in counts:
        real = getattr(normal_complex, name)

        def counted(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(normal_complex, name, counted)
    assert normal_complex.cell_failures(complex_) == []
    assert counts == {"_ray_reading": r, "_span_row": (r - 1) + (r - 2)}


@functools.lru_cache(maxsize=None)
def _complex(r, n):
    return complex_cells(ArrangementSpec(r, n))


def _fraction_rows_hold(cell, point):
    return all(dot(normal, point) <= bound for normal, bound in cell.h_rep)


def _integer_rows_hold(cell, point):
    # the origin is a vertex of every cell, so v_rep gives the dimension
    return tests_hold(cell._tests, *scaled_point(point, len(cell.v_rep[0])))


@st.composite
def probe_points(draw, nc):
    """Rational points near the cells: box points, and points on the line
    through two vertices of one cell, which meet faces exactly."""
    dim = nc.spec.ambient_dim
    if draw(st.booleans(), label="box point"):
        coordinate = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))
        return tuple(draw(st.lists(coordinate, min_size=dim, max_size=dim)))
    cell = draw(st.sampled_from(nc.cells))
    p, q = draw(st.sampled_from(cell.v_rep)), draw(st.sampled_from(cell.v_rep))
    t = draw(st.builds(Fraction, st.integers(-2, 5), st.integers(1, 3)))
    return tuple(x + t * (y - x) for x, y in zip(p, q))


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_membership_agrees_with_fraction_rows_in_every_cell(r, n, data):
    nc = _complex(r, n)
    point = data.draw(probe_points(nc))
    holds = [_fraction_rows_hold(cell, point) for cell in nc.cells]
    assert [_integer_rows_hold(cell, point) for cell in nc.cells] == holds
    assert nc.contains(point) == any(holds)


def scan_contains(nc, point):
    """Position of the first cell holding the point by the plain scan over
    the cells, the loop that the shared-row index replaced, or None."""
    return next(
        (k for k, cell in enumerate(nc.cells) if _dense_integer_rows_hold(cell, point)), None
    )


@st.composite
def complex_points(draw, nc):
    """``probe_points`` (box points and points through two vertices of one
    cell, on and past its faces), plus support points (one direction per
    factor, inside and past the region) and a unit step off a cell vertex,
    mostly off the support."""
    spec, dim = nc.spec, nc.spec.ambient_dim
    kind = draw(st.sampled_from(["probe", "probe", "support", "off"]))
    if kind == "probe":
        return draw(probe_points(nc))
    vertex = draw(st.sampled_from(draw(st.sampled_from(nc.cells)).v_rep))
    if kind == "off" and dim:
        step = [0] * dim
        step[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([-1, 1]))
        return tuple(x + y for x, y in zip(vertex, step))
    lengths = draw(
        st.lists(
            st.builds(Fraction, st.integers(0, 3 * spec.n), st.integers(1, 2)),
            min_size=spec.n,
            max_size=spec.n,
        )
    )
    images = [
        basis_image(spec, i, draw(st.integers(0, spec.r - 1))) for i in range(1, spec.n + 1)
    ]
    return combine(lengths, images, dim, Fraction(0))


@pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (3, 0)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_indexed_membership_equals_the_plain_scan(r, n, data):
    built = _complex(r, n)
    # a new complex over the same cells starts with an empty index, which
    # the points then find empty, partly registered and (after a miss) full
    nc = NormalComplex(built.spec, built.cells)
    for point in data.draw(st.lists(complex_points(built), min_size=1, max_size=8)):
        expected = scan_contains(nc, point)
        assert nc.contains(point) == (expected is not None)
        assert nc._cell_index.first(*scaled_point(point, nc.spec.ambient_dim)) == expected


def _dense_integer_rows_hold(cell, point):
    """Every H-row cleared of denominators (``cleared_tests``) holds at the
    point, each integer row summed out rather than through
    ``linalg.tests_hold``."""
    p, scale = scaled_point(point, len(point))
    return all(
        sum(a * p[i] for i, a in pairs) <= bound * scale
        for pairs, _, bound in cleared_tests(cell.h_rep)
    )


@pytest.mark.parametrize("r,n", [(3, 2), (2, 3), (4, 2)])
def test_complex_membership_equals_the_dense_integer_rows(r, n):
    nc = _complex(r, n)
    sampled = sample_mixed_points(Lcg(1), nc.spec, 120, max_abs=n + 2)
    # integer points take the scaled-point fast path; vertices sit on faces
    integral = [tuple(int(2 * x) for x in p) for p in sampled[:40]]
    vertices = [v for cell in nc.cells[:6] for v in cell.v_rep]
    hits = 0
    for p in sampled + integral + vertices:
        expected = any(_dense_integer_rows_hold(cell, p) for cell in nc.cells)
        assert nc.contains(p) == expected
        hits += expected
    assert 0 < hits < len(sampled) + len(integral) + len(vertices)


@pytest.mark.parametrize("r,n,hyperplanes", [(3, 2, 26), (2, 3, 13)])
def test_the_cell_index_keeps_one_entry_per_hyperplane(r, n, hyperplanes):
    # a cell holds each equality as a pair of opposite rows; keyed by row
    # value, the index held 43 and 26 rows
    nc = _complex(r, n)
    rows = {row for cell in nc.cells for row, _, _ in cell._tests}
    signless = {min(row, tuple((i, -a) for i, a in row)) for row in rows}
    assert len(nc._cell_index._rows) == len(signless) == hyperplanes


def test_membership_rejects_points_of_the_wrong_length():
    nc = _complex(2, 2)
    for point in [(0,), (0, 0, 5)]:
        with pytest.raises(ValueError, match=f"length {len(point)}, expected 2"):
            nc.contains(point)
        with pytest.raises(ValueError, match=f"length {len(point)}, expected 2"):
            _integer_rows_hold(nc.cells[0], point)


# --- symmetry and face sharing -----------------------------------------------


def _relabel_cell_map(spec):
    """Ambient linear maps of the two evident symmetries at (2, 2)."""

    def swap_factors(v):
        return (v[1], v[0])

    def shift_decorations(v):
        # residue shift a -> a+1 swaps e^0 and e^1 per factor, negating
        # the single coordinate of each block when r = 2
        return tuple(-x for x in v)

    return swap_factors, shift_decorations


def _swap_chain(c):
    relabel = {1: 2, 2: 1}
    sets = tuple(tuple(sorted(relabel[i] for i in s)) for s in c.sets)
    deco = {relabel[i]: a for i, a in c.decoration}
    return Chain.of(sets, deco)


def _shift_chain(c, r):
    deco = {i: (a + 1) % r for i, a in c.decoration}
    return Chain.of(c.sets, deco)


def test_cell_symmetries_at_2_2():
    spec = ArrangementSpec(2, 2)
    cells = {c.label: set(c.v_rep) for c in complex_cells(spec).cells}
    swap_factors, shift_decorations = _relabel_cell_map(spec)
    for label, verts in cells.items():
        swapped = cells[_swap_chain(label)]
        assert {swap_factors(v) for v in verts} == swapped
        shifted = cells[_shift_chain(label, spec.r)]
        assert {shift_decorations(v) for v in verts} == shifted


def _face_vertices(cell_a, cell_b, shared, spec):
    """Vertices of the H-representation intersection of two cells.

    Works in the coefficient space of the shared subchain's cone: there the
    cone constraints reduce to nonnegativity and each cell contributes its
    truncation rows.
    """
    gens = [ray_vector(p, spec) for p in shared.prefixes]
    k = len(gens)
    if k == 0:
        return {tuple(Fraction(0) for _ in range(spec.ambient_dim))}
    rows = []
    for j in range(k):
        rows.append(
            (tuple(Fraction(-1) if t == j else Fraction(0) for t in range(k)), Fraction(0))
        )
    for cell in (cell_a, cell_b):
        for normal, bound in cell.h_rep:
            row = tuple(Fraction(dot(normal, g)) for g in gens)
            rows.append((row, Fraction(bound)))
    vertices = set()
    for subset in itertools.combinations(range(len(rows)), k):
        cols = [tuple(rows[t][0][s] for t in subset) for s in range(k)]
        target = [rows[t][1] for t in subset]
        try:
            sol = solve_columns(cols, target)
        except ValueError:
            continue
        if sol is None:
            continue
        if all(dot(r, sol) <= b for r, b in rows):
            ambient = [Fraction(0)] * spec.ambient_dim
            for coeff, g in zip(sol, gens):
                ambient = [x + coeff * y for x, y in zip(ambient, g)]
            vertices.add(tuple(ambient))
    return vertices


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2)])
def test_neighboring_cells_share_exact_faces(r, n):
    spec = ArrangementSpec(r, n)
    cells = complex_cells(spec).cells
    for cell_a, cell_b in itertools.combinations(cells, 2):
        shared = chain_intersect(cell_a.label, cell_b.label)
        got = _face_vertices(cell_a, cell_b, shared, spec)
        assert got == set(cell_a.v_rep) & set(cell_b.v_rep)


# --- closed forms against independent routes ---------------------------------


@pytest.mark.parametrize(
    "r,n,stride", [(2, 2, 1), (3, 2, 1), (4, 2, 1), (2, 3, 1), (3, 3, 54), (2, 4, 128)]
)
def test_cells_have_the_vertices_of_their_own_h_rep(monkeypatch, r, n, stride):
    # every stride-th cell; (2, 4) needs the override
    monkeypatch.setenv("CYCLIC_WONDERFUL_MAX_CELLS", "1000")
    spec = ArrangementSpec(r, n)
    chains = sorted(maximal_chains(spec), key=Chain.sort_key)
    for c in chains[::stride]:
        cell = cell_polytope(c, spec)
        assert cell.v_rep == tuple(sorted(_face_vertices(cell, cell, c, spec)))


@pytest.mark.parametrize("r,n", [(3, 2), (4, 2), (3, 3)])
def test_cone_rows_read_off_the_cone_coefficients_inside_the_span(r, n):
    """Row groups: paired equalities, n nonnegativity rows, n truncations.

    A nonnegativity row is minus the dual functional of its generator (it
    pairs to -1 with it and 0 with the others, and is orthogonal to every
    equality row, so it lies in the cone's span); truncation row j pairs
    with generator s to |I_j & I_s|.
    """
    spec = ArrangementSpec(r, n)
    equalities = spec.ambient_dim - n
    for cell in complex_cells(spec).cells:
        gens = [ray_vector(p, spec) for p in cell.label.prefixes]
        rows = [normal for normal, _ in cell.h_rep]
        assert len(rows) == 2 * equalities + 2 * n
        eq_rows = rows[: 2 * equalities]
        cone_rows = rows[2 * equalities : 2 * equalities + n]
        truncations = rows[2 * equalities + n :]
        for j, row in enumerate(cone_rows):
            assert [-dot(row, g) for g in gens] == [int(s == j) for s in range(n)]
            assert all(dot(row, w) == 0 for w in eq_rows)
        for j, row in enumerate(truncations):
            assert [dot(row, g) for g in gens] == [min(j, s) + 1 for s in range(n)]


def _orthant_vertices(gram, bounds):
    """Vertices of {c >= 0 : gram c <= bounds} by exhausting the bases of n
    of its 2n constraints."""
    n = len(bounds)
    rows = [
        (tuple(Fraction(-1) if t == j else Fraction(0) for t in range(n)), Fraction(0))
        for j in range(n)
    ]
    rows += [(tuple(gram[j]), bounds[j]) for j in range(n)]
    vertices = set()
    for subset in itertools.combinations(range(len(rows)), n):
        cols = [tuple(rows[k][0][t] for k in subset) for t in range(n)]
        try:
            sol = solve_columns(cols, [rows[k][1] for k in subset])
        except ValueError:
            continue  # singular basis
        if sol is not None and all(dot(normal, sol) <= bound for normal, bound in rows):
            vertices.add(tuple(sol))
    return sorted(vertices)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_vertex_lengths_match_the_exhaustive_orthant_search(n):
    # in cone coordinates c the level-j subset sum is sum_s min(j, s) c_s
    # (levels counted from 1), and c_s = y_s - y_{s+1} for the lengths y
    gram = [[Fraction(min(j, s) + 1) for s in range(n)] for j in range(n)]
    bounds = [Fraction(delta(n, j + 1)) for j in range(n)]
    scaled, common = normal_complex._vertex_lengths(n)
    lengths = [[Fraction(x, common) for x in y] for y in scaled]
    cone = sorted(tuple(a - b for a, b in zip(y, (*y[1:], 0))) for y in lengths)
    assert len(lengths) == 2**n
    assert cone == _orthant_vertices(gram, bounds)
