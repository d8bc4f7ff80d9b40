"""Fan construction, point location, smoothness, and the two build routes."""

import functools
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sampling import Lcg, sample_mixed_points
from test_linalg import combine, matrix_rank
from test_selfcheck import cone_table, law_failures, records, with_cones

from cyclic_wonderful import fan as fan_module
from cyclic_wonderful import selfcheck
from cyclic_wonderful.cli import build_parser, run
from cyclic_wonderful.fan import (
    Cone,
    Fan,
    _Inverse,
    _star_subdivide,
    build_fan,
    build_fan_stellar,
    fans_equal,
    in_relative_interior,
    act,
    locate_point,
    ray_vector,
    support_decomposition,
)
from cyclic_wonderful.linalg import lattice_pivots, scaled_point, solve_columns
from cyclic_wonderful.lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    DecoratedSubset,
    Symmetry,
    chain_intersect,
    enumerate_chains,
    enumerate_decorated_subsets,
    is_nested,
    maximal_chains,
    parse_chain,
    symmetry_generators,
)
from cyclic_wonderful.serialize import fan_from_dict, fan_to_dict


def ds(*pairs):
    return DecoratedSubset.of(pairs)


def chain(sets, deco):
    return Chain.of(sets, deco)


def basis_image(spec, i, a):
    """Integer coordinates of e_i^a read off the layout in the ``fan``
    docstring, with no ``fan.block_slot``: the unit vector at slot (i, a)
    for a in 1..r-1, and -1 across factor i's block for a = 0.  The
    reference that ``combine`` sums where the package places."""
    off, a = (i - 1) * (spec.r - 1), a % spec.r
    vec = [0] * spec.ambient_dim
    if a:
        vec[off + a - 1] = 1
    else:
        vec[off : off + spec.r - 1] = [-1] * (spec.r - 1)
    return tuple(vec)


# --- ray vectors -------------------------------------------------------------


def test_ray_vector_basis_cases():
    spec = ArrangementSpec(3, 2)
    assert ray_vector(ds((1, 1)), spec) == (0, 1, 0, 0)  # -1 = 2 mod 3
    assert ray_vector(ds((1, 0)), spec) == (-1, -1, 0, 0)


def test_ray_vector_sum_case():
    spec = ArrangementSpec(2, 2)
    assert ray_vector(ds((1, 0), (2, 1)), spec) == (-1, 1)


@pytest.mark.parametrize("r,n", [(2, 3), (3, 2), (4, 2), (3, 3)])
def test_ray_vector_is_the_sum_of_its_basis_images(r, n):
    spec = ArrangementSpec(r, n)
    for d in enumerate_decorated_subsets(spec):
        if d.size:
            images = [basis_image(spec, i, -a) for i, a in d.items]
            assert ray_vector(d, spec) == combine([1] * d.size, images, spec.ambient_dim)


def test_ray_vector_rejects_empty_and_out_of_range():
    spec = ArrangementSpec(2, 2)
    with pytest.raises(ValueError):
        ray_vector(DecoratedSubset(()), spec)
    with pytest.raises(ValueError):
        ray_vector(ds((3, 0)), spec)


# --- direct construction -----------------------------------------------------


def test_fan_3_1_has_three_rays_and_no_2_cones():
    spec = ArrangementSpec(3, 1)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert sorted(fan.rays.values()) == [(-1, -1), (0, 1), (1, 0)]
    assert max(c.length for c in fan.chains) == 1


def test_fan_2_2_counts():
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert len(fan.rays) == 8
    assert sum(1 for c in fan.chains if c.length == 2) == 8


def test_fan_2_2_labeled_cone():
    # the 2-cone of the chain {2} < {1,2} with residues a(1)=1, a(2)=0
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    cone = records(fan)[chain([(2,), (1, 2)], {1: 1, 2: 0})]
    e20 = ray_vector(ds((2, 0)), spec)
    pair = ray_vector(ds((1, 1), (2, 0)), spec)
    assert set(cone.rays) == {e20, pair} == {(0, -1), (1, -1)}


def _singletons(spec):
    return BuildingSet(frozenset(ds((i, a)) for i in (1, 2) for a in (0, 1)), spec)


def _pairs(spec):
    elements = BuildingSet.maximal(spec).elements
    return BuildingSet(frozenset(d for d in elements if d.size == 2), spec)


@pytest.mark.parametrize("builder", [build_fan, build_fan_stellar])
@pytest.mark.parametrize(
    "make",
    [_singletons, _pairs, lambda spec: BuildingSet.maximal(ArrangementSpec(2, 1))],
    ids=["singletons", "pairs", "other-spec"],
)
def test_builders_reject_a_non_maximal_building_set(make, builder):
    spec = ArrangementSpec(2, 2)
    with pytest.raises(ValueError, match="maximal building set"):
        builder(spec, make(spec))


@pytest.mark.parametrize("r,n", [(3, 2), (2, 3), (4, 3)])
def test_cone_labels_share_the_ray_tables_subsets(r, n):
    # in both routes: the stellar route's new cones take tau's labels from
    # the cones they replace
    spec = ArrangementSpec(r, n)
    for builder in (build_fan, build_fan_stellar):
        fan = builder(spec, BuildingSet.maximal(spec))
        keys = {d: d for d in fan.rays}
        for chain in fan.chains:
            assert all(keys[d] is d for d in chain.prefixes)
            assert list(chain.prefixes) == sorted(chain.prefixes, key=DecoratedSubset.sort_key)
        for chain, cone in records(fan).items():
            assert cone.label is chain.prefixes
            assert cone.rays == tuple(fan.rays[d] for d in cone.label)


@pytest.mark.parametrize("r,n", [(3, 3), (4, 3), (2, 4)])
def test_a_scan_builds_no_face_and_reading_the_cones_does(monkeypatch, r, n):
    # a face is its chain: reading the chains enumerates the faces, and no
    # path builds a face a record
    spec = ArrangementSpec(r, n)
    built, enumerated = [], []
    init, chains_of_length = Cone.__init__, fan_module._chains_of_length

    def recording(self, rays, label):
        built.append(len(label))
        init(self, rays, label)

    def enumerating(spec, table, length):
        enumerated.append(length)
        return chains_of_length(spec, table, length)

    monkeypatch.setattr(Cone, "__init__", recording)
    monkeypatch.setattr(fan_module, "_chains_of_length", enumerating)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    fan.maximal_cones
    for point in sample_mixed_points(Lcg(r + n), spec, 50):
        locate_point(fan, point)
    assert enumerated == [n] and built == [n] * spec.num_maximal_chains
    assert {c.length for c in fan.chains} == set(range(n + 1))
    assert sorted(enumerated) == list(range(n + 1)) and built == [n] * spec.num_maximal_chains


@pytest.mark.parametrize(
    "r,n", [*itertools.product(range(2, 5), range(4)), (2, 4)]
)
def test_cones_are_one_per_enumerated_chain_in_its_order(r, n):
    # the reference builds every maximal cone from its chain's own ray vectors
    spec = ArrangementSpec(r, n)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    chains = tuple(enumerate_chains(spec, n))
    reference = [
        (c, Cone(tuple(ray_vector(d, spec) for d in c.prefixes), c.prefixes)) for c in chains if c.length == n
    ]
    assert fan.chains == chains
    assert list(records(fan).items()) == reference


@pytest.mark.parametrize("r,n", [(2, 0), (3, 1), (3, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("builder", [build_fan, build_fan_stellar])
def test_a_maximal_chains_cone_is_the_object_maximal_cones_holds(builder, r, n):
    spec = ArrangementSpec(r, n)
    fan = builder(spec, BuildingSet.maximal(spec))
    maximal = {id(cone) for cone in fan.maximal_cones}
    held = {id(records(fan)[c]) for c in maximal_chains(spec)}
    assert held == maximal and len(maximal) == spec.num_maximal_chains


def _read_from_dict(spec, g):
    return fan_from_dict(fan_to_dict(build_fan(spec, g)))


@pytest.mark.parametrize("r,n", [(2, 0), (3, 1), (3, 2), (2, 3)])
@pytest.mark.parametrize("builder", [build_fan, build_fan_stellar, _read_from_dict])
@pytest.mark.parametrize("maximal_first", [False, True])
def test_a_read_fan_holds_its_maximal_cones_in_its_table_alone(builder, r, n, maximal_first):
    # the chains end with the maximal records' chains, in their order,
    # whichever is read first, and no face has a record
    spec = ArrangementSpec(r, n)
    fan = builder(spec, BuildingSet.maximal(spec))
    if maximal_first:
        fan.maximal_cones
    chains = fan.chains
    faces = len(chains) - len(fan.maximal_cones)
    assert len(fan.maximal_cones) == spec.num_maximal_chains
    assert [c.prefixes for c in chains[faces:]] == [cone.label for cone in fan.maximal_cones]
    assert all(c.length < n for c in chains[:faces])


def test_cone_lookup_from_value_equal_subsets():
    spec = ArrangementSpec(3, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    parsed = parse_chain("{2:1}<{1:0,2:1}", spec)
    keys = {d: d for d in fan.rays}
    assert all(keys[d] is not d for d in parsed.prefixes)
    cone = records(fan)[parsed]
    assert cone.label == parsed.prefixes
    assert Chain(cone.label) == parsed


def test_fan_closed_under_faces():
    spec = ArrangementSpec(3, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    chains = set(fan.chains)
    for chain in chains:
        for size in range(chain.length):
            for sub in itertools.combinations(chain.prefixes, size):
                assert Chain(sub) in chains


def test_cone_dim_equals_chain_length():
    # the per-face pass ``check`` leaves out, the cross-check of the
    # argument by which every face inherits its maximal cone's lattice
    # lines: each cone, faces included, is unimodular of its chain's length
    for r, n in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4)]:
        spec = ArrangementSpec(r, n)
        fan = build_fan(spec, BuildingSet.maximal(spec))
        for chain, cone in cone_table(fan).items():
            assert lattice_pivots(cone.rays) == [1] * len(cone.rays) == [1] * chain.length
    assert lattice_pivots(Cone((), ()).rays) == []  # no rows, so no pivot


def _maximal_by_inclusion(fan):
    """The pairwise-subset rule maximal_cones used before filtering by size."""
    keys = [frozenset(c.prefixes) for c in fan.chains]
    maximal = [k for k in keys if not any(k < other for other in keys)]
    chains = sorted((Chain.from_prefixes(k) for k in maximal), key=Chain.sort_key)
    return tuple(map(records(fan).__getitem__, chains))


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_maximal_cones_by_dimension_match_the_inclusion_rule(r, n):
    spec = ArrangementSpec(r, n)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert fan.maximal_cones == _maximal_by_inclusion(fan)


# --- exact cone coordinates --------------------------------------------------


def _reference_coefficients(rays, point):
    """Fraction solve plus the nonnegativity filter."""
    if not rays:
        return [] if all(Fraction(x) == 0 for x in point) else None
    sol = solve_columns(rays, point)
    return None if sol is None or any(c < 0 for c in sol) else sol


def _combination(rays, coeffs, dim):
    return tuple(sum((c * v[i] for c, v in zip(coeffs, rays)), Fraction(0)) for i in range(dim))


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _fan_cones(r, n):
    spec = ArrangementSpec(r, n)
    return spec.ambient_dim, list(cone_table(build_fan(spec, BuildingSet.maximal(spec))).values())


_FAN_CONES = {spec: _fan_cones(*spec) for spec in [(2, 2), (3, 2), (2, 3), (4, 2)]}


@pytest.mark.parametrize("spec", list(_FAN_CONES))
@settings(max_examples=15, deadline=None)
@given(
    coeffs=st.lists(_RATIONALS, min_size=3, max_size=3),
    offset=st.lists(_RATIONALS, min_size=6, max_size=6),
)
def test_cone_coefficients_match_the_fraction_solve_on_every_fan_cone(spec, coeffs, offset):
    dim, cones = _FAN_CONES[spec]
    for cone in cones:
        k = len(cone.rays)
        on = _combination(cone.rays, [abs(c) for c in coeffs[:k]], dim)
        signed = _combination(cone.rays, coeffs[:k], dim)
        off = tuple(x + y for x, y in zip(on, offset))
        for point in (on, signed, off):
            assert cone.coefficients(point) == _reference_coefficients(cone.rays, point)
        if k:
            assert cone.coefficients(on) == [abs(c) for c in coeffs[:k]]


@st.composite
def _rough_cones(draw):
    """Simplicial cones whose generators do not extend to a lattice basis."""
    dim = draw(st.integers(2, 4))
    k = draw(st.integers(1, dim))
    rays = tuple(
        tuple(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)))
        for _ in range(k)
    )
    assume(matrix_rank(rays) == k and lattice_pivots(rays) != [1] * k)
    return rays


@settings(max_examples=150, deadline=None)
@given(
    rays=_rough_cones(),
    coeffs=st.lists(_RATIONALS, min_size=4, max_size=4),
    offset=st.lists(_RATIONALS, min_size=4, max_size=4),
)
def test_cone_coefficients_match_the_fraction_solve_on_non_unimodular_cones(rays, coeffs, offset):
    cone = Cone(rays, ())
    dim, k = len(rays[0]), len(rays)
    inv = cone._inverse
    assert inv.delta > 1

    def pair(row, ray):
        return sum(a * ray[i] for i, a in row)

    # span-check tests (row, 0, 0) first, then coefficient tests (row, 0, None)
    span_rows = [row for row, _, _ in inv.tests[: dim - k]]
    coeff_rows = [row for row, _, _ in inv.tests[dim - k :]]
    assert [(lo, hi) for _, lo, hi in inv.tests] == [(0, 0)] * (dim - k) + [(0, None)] * k
    assert [[pair(row, ray) for ray in rays] for row in coeff_rows] == [
        [inv.delta * (i == j) for j in range(k)] for i in range(k)
    ]
    assert len(span_rows) == dim - k
    assert all(pair(row, ray) == 0 for row in span_rows for ray in rays)
    on = _combination(rays, [abs(c) for c in coeffs[:k]], dim)
    signed = _combination(rays, coeffs[:k], dim)
    off = tuple(x + y for x, y in zip(on, offset))
    for point in (on, signed, off):
        assert cone.coefficients(point) == _reference_coefficients(rays, point)
    assert cone.coefficients(on) == [abs(c) for c in coeffs[:k]]


@st.composite
def _cones_below_full_rank(draw):
    """Simplicial cones with fewer rays than the ambient dimension."""
    dim = draw(st.integers(2, 4))
    k = draw(st.integers(1, dim - 1))
    rays = tuple(
        tuple(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)))
        for _ in range(k)
    )
    assume(matrix_rank(rays) == k)
    return rays


@settings(max_examples=150, deadline=None)
@given(rays=_cones_below_full_rank(), integral=st.booleans(), data=st.data())
def test_coefficients_are_none_off_the_span_and_at_a_negative_coordinate(rays, integral, data):
    cone = Cone(rays, ())
    dim, k = len(rays[0]), len(rays)
    numbers = st.integers(-4, 4) if integral else _RATIONALS
    coeffs = [abs(c) for c in data.draw(st.lists(numbers, min_size=k, max_size=k))]
    offset = data.draw(st.lists(numbers, min_size=dim, max_size=dim))
    negative = [-1 - coeffs[0], *coeffs[1:]]
    inside = _combination(rays, coeffs, dim)
    in_span = _combination(rays, negative, dim)
    off_span = tuple(x + y for x, y in zip(inside, offset))
    assume(solve_columns(rays, off_span) is None)
    points = [inside, in_span, off_span]
    if integral:
        points = [tuple(int(x) for x in p) for p in points]
        assert all(type(x) is int for p in points for x in p)
    assert [cone.coefficients(p) for p in points] == [coeffs, None, None]


@settings(max_examples=100, deadline=None)
@given(
    rays=st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(tuple),
        min_size=1,
        max_size=3,
    ),
    weights=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    point=st.lists(_RATIONALS, min_size=3, max_size=3),
)
def test_dependent_rays_raise(rays, weights, point):
    dependent = tuple(sum(w * v[i] for w, v in zip(weights, rays)) for i in range(3))
    rays = (*rays, dependent)
    with pytest.raises(ValueError, match="linearly dependent"):
        solve_columns(rays, point)
    with pytest.raises(ValueError, match="linearly dependent"):
        Cone(rays, ()).coefficients(point)


def test_cone_rejects_a_point_of_the_wrong_length():
    cone = Cone(((1, 0, 0), (0, 1, 0)), ())
    with pytest.raises(ValueError, match="length 2, expected 3"):
        cone.coefficients((1, 1))
    with pytest.raises(ValueError, match="length 4, expected 3"):
        cone.coefficients((1, 1, 0, 0))


# --- the prefix-resumed elimination -----------------------------------------


def _gauss_jordan(m, k):
    """Fraction-free Gauss-Jordan elimination (Bareiss) through the first k
    columns of the integer matrix m, in place, with row swaps and a pivot
    row negated when its pivot is negative; returns the last pivot, which is
    positive.  The one full pass per cone that ``Cone._inverse`` ran before
    a fan's maximal cones shared their leading rays' states in one pass."""
    prev = 1
    for c in range(k):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            raise ValueError("columns are linearly dependent")
        m[c], m[p] = m[p], m[c]
        if m[c][c] < 0:
            m[c] = [-x for x in m[c]]
        piv = m[c]
        pv = piv[c]
        for i, row in enumerate(m):
            f = row[c]
            if i == c or (not f and pv == prev):
                continue
            m[i] = [(pv * x - f * y) // prev for x, y in zip(row, piv)]
        prev = pv
    return prev


def _reference_state(dim, rays):
    """The multiplier rows R of ``[A | I]`` and the last pivot after one full
    pass through the columns of the rays, A the rays as columns in R^dim."""
    k = len(rays)
    m = [[*(ray[i] for ray in rays), *(int(i == j) for j in range(dim))] for i in range(dim)]
    delta = _gauss_jordan(m, k)
    return [row[k:] for row in m], delta


def _reference_inverse(rays):
    """The cone's ``_Inverse`` from one full pass over ``[A | I]``."""
    k = len(rays)
    rows, delta = _reference_state(len(rays[0]), rays)

    def test(row, hi):
        return tuple((i, x) for i, x in enumerate(row) if x), 0, hi

    return _Inverse(
        (*(test(row, 0) for row in rows[k:]), *(test(row, None) for row in rows[:k])), delta
    )


def _dense_state(dim, rays):
    """``_elimination``'s sparse rows read as dense rows, and its pivot."""
    rows, delta = fan_module._elimination(dim, rays)
    dense = []
    for row in rows:
        assert [i for i, _ in row] == sorted({i for i, _ in row})
        assert all(x for _, x in row)
        entries = dict(row)
        dense.append([entries.get(j, 0) for j in range(dim)])
    return dense, delta


@settings(max_examples=150, deadline=None)
@given(rays=_rough_cones(), data=st.data())
def test_inverse_equals_the_full_pass_on_non_unimodular_cones_in_any_ray_order(rays, data):
    rays = tuple(data.draw(st.permutations(rays)))
    assert Cone(rays, ())._inverse == _reference_inverse(rays)
    for j in range(len(rays) + 1):
        assert _dense_state(len(rays[0]), rays[:j]) == _reference_state(len(rays[0]), rays[:j])


def _fresh_fan(r, n):
    """A new fan: none of its cones has an inverse yet."""
    spec = ArrangementSpec(r, n)
    return build_fan(spec, BuildingSet.maximal(spec))


def _assert_the_pass_inverts(fan):
    """Every maximal cone of the fan gets from the fan's one pass the
    inverse that one full pass over its own rays gives."""
    cones = fan.maximal_cones
    assert not any("_inverse" in vars(cone) for cone in cones)
    fan._cone_index
    for cone in cones:
        assert vars(cone)["_inverse"] == _reference_inverse(cone.rays)


@pytest.mark.parametrize("spec", [(3, 2), (2, 3), (4, 2), (4, 3), (2, 4), (2, 1), (3, 1), (50, 1)])
def test_inverse_equals_the_full_pass_on_every_fan_cone(spec):
    # the maximal cones' inverses from the fan's one pass, each face's from
    # its own elimination
    fan = _fresh_fan(*spec)
    _assert_the_pass_inverts(fan)
    dim, cones = fan.spec.ambient_dim, list(cone_table(fan).values())
    for cone in cones:
        if cone.rays:
            assert cone._inverse == _reference_inverse(cone.rays)
    # the sparse state of every prefix, the empty one too, read densely
    for rays in {cone.rays[:j] for cone in cones for j in range(len(cone.rays) + 1)}:
        assert _dense_state(dim, rays) == _reference_state(dim, rays)


def _assert_state_inverts(dim, rays):
    """The state after the rays, read densely, is an invertible R with
    ``R A = delta [I_j; 0]`` and ``delta > 0``: whatever sign convention
    the steps keep, its first j rows are delta times a left inverse of A
    and the others span A's left kernel."""
    rows, delta = _dense_state(dim, rays)
    j = len(rays)
    assert delta > 0
    assert [[sum(x * ray[i] for i, x in enumerate(row)) for ray in rays] for row in rows] == [
        [delta * (i == c) for c in range(j)] for i in range(dim)
    ]
    assert matrix_rank(rows) == dim


@settings(max_examples=150, deadline=None)
@given(rays=_rough_cones(), data=st.data())
def test_every_prefix_state_inverts_its_rays_with_a_positive_pivot_on_non_unimodular_cones(
    rays, data
):
    rays = tuple(data.draw(st.permutations(rays)))
    for j in range(len(rays) + 1):
        _assert_state_inverts(len(rays[0]), rays[:j])


@pytest.mark.parametrize("spec", [(3, 2), (2, 3), (50, 1)])
def test_every_prefix_state_inverts_its_rays_with_a_positive_pivot_on_every_fan_cone(spec):
    dim, cones = _fan_cones(*spec)
    for rays in {cone.rays[:j] for cone in cones for j in range(len(cone.rays) + 1)}:
        _assert_state_inverts(dim, rays)


@settings(max_examples=100, deadline=None)
@given(
    rays=st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(tuple),
        min_size=1,
        max_size=3,
    ),
    weights=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    data=st.data(),
)
def test_dependent_rays_raise_the_full_pass_error(rays, weights, data):
    dependent = tuple(sum(w * v[i] for w, v in zip(weights, rays)) for i in range(3))
    rays = tuple(data.draw(st.permutations((*rays, dependent))))
    with pytest.raises(ValueError) as expected:
        _reference_inverse(rays)
    with pytest.raises(ValueError) as raised:
        Cone(rays, ())._inverse
    assert str(raised.value) == str(expected.value)


def _cold_scan_steps(r, n, monkeypatch):
    """Each Bareiss step of a scan on a fresh fan at (r, n) as its column,
    its pivot and the number of row tuples it builds (rows of its state that
    are not rows of the state it starts from); the scanned fan; and the
    scan's answer at (1, 1, 0, ..., 0)."""
    steps = []
    step = fan_module._bareiss_step

    def counted(state, c, a):
        out = step(state, c, a)
        kept = {id(row) for row in state[0]}
        steps.append((c, out[1], sum(id(row) not in kept for row in out[0])))
        return out

    monkeypatch.setattr(fan_module, "_bareiss_step", counted)
    spec = ArrangementSpec(r, n)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    located = locate_point(fan, (1, 1) + (0,) * (spec.ambient_dim - 2))
    monkeypatch.setattr(fan_module, "_bareiss_step", step)
    return steps, fan, located


def test_a_cold_full_scan_takes_one_step_per_cone_and_per_shared_prefix(monkeypatch):
    steps, fan, located = _cold_scan_steps(3, 3, monkeypatch)
    assert located is None
    cones = fan.maximal_cones
    prefixes = {cone.rays[:j] for cone in cones for j in range(1, 3)}
    # 162 last steps and 9 + 54 shared ones, where one pass per cone took 486
    assert (len(cones), len(prefixes)) == (162, 63)
    assert len(steps) == 225
    assert [c for c, _, _ in steps].count(2) == len(cones)
    # a step builds only the rows its ray meets, and the negated pivot row:
    # 366 row tuples and 65 distinct row tests, where flipping every row's
    # sign at each pivot of -1 built 519 and 128; the pass makes equal
    # tests one tuple
    assert sum(built for _, _, built in steps) == 366
    tests = [test for cone in cones for test in cone._inverse.tests]
    assert len({id(test) for test in tests}) == len(set(tests)) == 65


def test_no_elimination_state_outlives_a_fan(monkeypatch):
    # a second fresh fan of the same spec takes every step again
    first, _, _ = _cold_scan_steps(3, 3, monkeypatch)
    second, _, _ = _cold_scan_steps(3, 3, monkeypatch)
    assert len(first) == len(second) == 225
    assert first == second


@pytest.mark.parametrize("r,n,count", [(3, 3, 225), (4, 3, 492), (2, 4, 632)])
def test_every_pivot_of_a_cold_scan_is_one(r, n, count, monkeypatch):
    # the fans are unimodular and a negative pivot's row is negated, so
    # every pivot is 1 and a row the ray does not meet is kept as it is
    steps, _, _ = _cold_scan_steps(r, n, monkeypatch)
    assert [pv for _, pv, _ in steps] == [1] * count


def test_every_one_ray_cone_steps_from_one_identity(monkeypatch):
    # at n = 1 every maximal cone has one ray: the pass builds the identity
    # once and steps each of the 40 cones from that one state
    starts = []
    step = fan_module._bareiss_step

    def counted(state, c, a):
        starts.append(state)
        return step(state, c, a)

    monkeypatch.setattr(fan_module, "_bareiss_step", counted)
    spec = ArrangementSpec(40, 1)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert locate_point(fan, (1, 1) + (0,) * (spec.ambient_dim - 2)) is None
    dim = spec.ambient_dim
    assert len(starts) == 40
    assert all(state is starts[0] for state in starts)
    assert starts[0] == (tuple(((i, 1),) for i in range(dim)), 1)


@settings(max_examples=100, deadline=None)
@given(rays=_rough_cones())
def test_the_pass_equals_the_full_pass_on_cones_that_share_rays_in_any_order(rays):
    # every ordering of every nonempty subset of the same ray objects, with
    # no label: a ray follows different prefixes, and none is unimodular
    cones = [
        Cone(perm, ()) for k in range(1, len(rays) + 1) for perm in itertools.permutations(rays, k)
    ]
    fan_module._invert_maximal_cones(cones)
    for cone in cones:
        assert vars(cone)["_inverse"] == _reference_inverse(cone.rays)


@pytest.mark.parametrize("spec,seed", [((3, 2), 1), ((2, 3), 2), ((4, 3), 3), ((2, 4), 4)])
def test_the_pass_inverts_maximal_cones_in_any_order(spec, seed):
    # out of chain order the pass drops states a later cone needs and makes
    # them again, so every inverse is still its own rays'
    built = _fresh_fan(*spec)
    chains = list(built.chains)
    random.Random(seed).shuffle(chains)
    fan = Fan.from_chains(built.spec, built.rays, chains)
    assert [c.rays for c in fan.maximal_cones] != [c.rays for c in built.maximal_cones]
    _assert_the_pass_inverts(fan)


@pytest.mark.parametrize("spec", [(3, 2), (2, 3), (4, 3)])
def test_the_pass_keys_its_states_by_rays_not_by_labels(spec):
    # two maximal cones with different first rays swap their rays and keep
    # their labels: each must get its new rays' inverse, not its label's
    built = _fresh_fan(*spec)
    pairs = list(records(built).items())
    (c1, a) = pairs[0]
    (c2, b) = next(pair for pair in pairs[1:] if pair[1].rays[0] != a.rays[0])
    fan = with_cones(built, {c1: Cone(b.rays, a.label), c2: Cone(a.rays, b.label)})
    assert fan.maximal_cones[0].label == a.label and fan.maximal_cones[0].rays == b.rays
    _assert_the_pass_inverts(fan)


def test_a_one_ray_state_stores_at_most_two_entries_per_row():
    # at n = 1 a step on the identity leaves every row with at most two
    # entries, 2 (r - 1) in all where a dense state holds (r - 1)^2
    spec = ArrangementSpec(2000, 1)
    dim = spec.ambient_dim
    for d in enumerate_decorated_subsets(spec):
        rows, _ = fan_module._elimination(dim, (ray_vector(d, spec),))
        assert len(rows) == dim
        assert sum(map(len, rows)) <= 2 * dim


# --- stellar construction ----------------------------------------------------


def test_stellar_2_1_performs_no_subdivisions():
    spec = ArrangementSpec(2, 1)
    g = BuildingSet.maximal(spec)
    assert g.elements == {ds((1, 0)), ds((1, 1))}
    assert fans_equal(build_fan(spec, g), build_fan_stellar(spec, g))


@pytest.mark.parametrize("r,n", [(2, 0), (2, 1), (5, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 4)])
def test_stellar_equals_direct(r, n):
    # every cone, faces included; the route's label sets are the maximal
    # chains' alone, and its faces the proper subsets of those, each once
    spec = ArrangementSpec(r, n)
    g = BuildingSet.maximal(spec)
    direct, stellar = build_fan(spec, g), build_fan_stellar(spec, g)
    assert fans_equal(direct, stellar)
    cones, rays = fan_module._stellar_labels(spec, g)
    assert cones == {frozenset(chain.prefixes) for chain in maximal_chains(spec)}
    assert rays == direct.rays
    assert len(stellar.chains) == len(set(stellar.chains)) == len(direct.chains)


def _cones_holding_in_relative_interior(cones, rays, v):
    """Every nonzero cone whose relative interior holds v, by a full scan."""
    hits = []
    for s in cones:
        coeffs = Cone(tuple(rays[d] for d in s), tuple(s)).coefficients(v) if s else None
        if coeffs is not None and all(c > 0 for c in coeffs):
            hits.append(s)
    return hits


def scan_star_subdivide(cones, rays, new_label, v):
    """The stellar subdivision of a fan held with every face, by a full
    scan, the reference for the route's maximal-cone subdivision: every
    current cone is tested for tau, and a new cone joins the new ray to each
    cone s without tau whose union with tau is a cone."""
    singletons = tuple(ds(p) for p in new_label.items)
    tau = frozenset(singletons)
    coeffs = Cone(tuple(rays[d] for d in singletons), singletons).coefficients(v)
    assert tau in cones and coeffs is not None and all(c > 0 for c in coeffs)
    out = {s for s in cones if not tau <= s}
    for s in cones:
        if not tau <= s and (s | tau) in cones:
            out.add(s | {new_label})
    return out


def down_closure(cones):
    """Every subset of every cone, the cones themselves and the empty set
    included: the fan that maximal cones determine."""
    return {frozenset(b) for s in cones for k in range(len(s) + 1) for b in itertools.combinations(s, k)}


def product_fan(spec):
    """The singleton rays, the r^n maximal cones of the product of the
    factor fans (one singleton per factor) and the map from each label to
    the maximal cones holding it."""
    singles = [ds((i, a)) for i in range(1, spec.n + 1) for a in range(spec.r)]
    per_factor = [[ds((i, a)) for a in range(spec.r)] for i in range(1, spec.n + 1)]
    cones = {frozenset(combo) for combo in itertools.product(*per_factor)}
    return {d: ray_vector(d, spec) for d in singles}, cones, holding_map(singles, cones)


def holding_map(labels, cones):
    return {d: {s for s in cones if d in s} for d in labels}


def subdivision_order(spec):
    elements = BuildingSet.maximal(spec).elements
    return sorted((d for d in elements if d.size > 1), key=lambda x: (-x.size, x.items))


@pytest.mark.parametrize("r,n,steps", [(2, 2, 4), (3, 2, 9), (2, 3, 20), (3, 3, 54)])
def test_stellar_subdivides_the_one_cone_a_full_scan_finds(r, n, steps):
    # replay the stellar subdivisions beside the full-face reference; at
    # every step the scan over all its cones must find exactly the singleton
    # cone of the new label, and the down-closure of the maximal cones the
    # star map's subdivision leaves must be the cones the reference leaves
    spec = ArrangementSpec(r, n)
    g = BuildingSet.maximal(spec)
    rays, cones, holding = product_fan(spec)
    scanned = down_closure(cones)
    order = subdivision_order(spec)
    for d in order:
        v = ray_vector(d, spec)
        tau = frozenset(ds(p) for p in d.items)
        assert _cones_holding_in_relative_interior(scanned, rays, v) == [tau]
        scanned = scan_star_subdivide(scanned, rays, d, v)
        _star_subdivide(cones, holding, rays, d, v)
        rays[d] = v
        assert {len(s) for s in cones} == {n}
        assert down_closure(cones) == scanned
        assert holding == holding_map(rays, cones)
    assert len(order) == steps
    assert len(cones) == spec.num_maximal_chains and all(is_nested(s, g) for s in cones)
    stellar = build_fan_stellar(spec, g)
    assert cones == {frozenset(cone.label) for cone in stellar.maximal_cones}
    assert scanned == {frozenset(c.prefixes) for c in stellar.chains}
    assert len(stellar.chains) == len(scanned)


class _Unscannable(set):
    """A cone set that refuses to be scanned and counts the cones removed."""

    removed = 0

    def __iter__(self):
        raise AssertionError("a subdivision must not scan the cones")

    def remove(self, cone):
        self.removed += 1
        super().remove(cone)


def test_each_subdivision_visits_only_the_star_of_its_cone():
    # at (3,3) the 54 subdivisions replace 108 maximal cones in all, where a
    # scan of the maximal cones per subdivision read 4,671 (and a scan of
    # every cone, faces included, 12,744)
    spec = ArrangementSpec(3, 3)
    rays, cones, holding = product_fan(spec)
    cones = _Unscannable(cones)
    scanned, stars = 0, []
    for d in subdivision_order(spec):
        v = ray_vector(d, spec)
        tau = frozenset(ds(p) for p in d.items)
        star = {s for s in set.__iter__(cones) if tau <= s}
        scanned += len(cones)
        before = cones.removed
        _star_subdivide(cones, holding, rays, d, v)
        rays[d] = v
        assert cones.removed - before == len(star)
        assert not any(s in cones for s in star)
        stars.append(len(star))
    assert (len(stars), sum(stars), scanned) == (54, 108, 4671)


def test_star_subdivide_refuses_a_vector_off_its_cone():
    spec = ArrangementSpec(2, 2)
    rays = {ds((i, a)): ray_vector(ds((i, a)), spec) for i in (1, 2) for a in (0, 1)}
    pair = ds((1, 0), (2, 0))
    tau = frozenset({ds((1, 0)), ds((2, 0))})
    with pytest.raises(ValueError, match="outside the fan support"):
        _star_subdivide(
            {frozenset()}, holding_map(rays, {frozenset()}), rays, pair, ray_vector(pair, spec)
        )
    # tau is present, but v = its first ray is on tau's boundary
    with pytest.raises(ValueError, match="outside the fan support"):
        _star_subdivide({tau}, holding_map(rays, {tau}), rays, pair, rays[ds((1, 0))])


def test_stellar_route_never_enumerates_chains(monkeypatch):
    spec = ArrangementSpec(3, 2)
    g = BuildingSet.maximal(spec)
    direct = build_fan(spec, g)
    direct.chains  # the direct route enumerates its faces here, before the patch

    def refuse(*args, **kwargs):
        raise AssertionError("the stellar route must not enumerate chains")

    monkeypatch.setattr("cyclic_wonderful.fan._chains_of_length", refuse)
    assert fans_equal(direct, build_fan_stellar(spec, g))


def test_a_stray_cone_left_by_the_subdivisions_reaches_the_stellar_fan(monkeypatch):
    # a cone whose labels clash at factor 1, so they are not a chain, appears
    # after every subdivision; the second route must see it, not drop it
    spec = ArrangementSpec(3, 2)
    g = BuildingSet.maximal(spec)
    stray = (ds((1, 0)), ds((1, 1)))
    subdivide = fan_module._star_subdivide

    def subdivide_and_stray(cones, *args):
        subdivide(cones, *args)
        cones.add(frozenset(stray))  # held by no label, so in no later star

    monkeypatch.setattr(fan_module, "_star_subdivide", subdivide_and_stray)
    stellar = build_fan_stellar(spec, g)
    assert not is_nested(stray, g)
    assert Chain._trusted(stray) in stellar.chains
    assert not fans_equal(build_fan(spec, g), stellar)
    # the check reaches the subdivisions through the stellar route's labels
    lines = {res.name: res.status for res in selfcheck.suite_fan(spec)}
    assert lines["stellar route equals direct route"] == "FAIL"


def test_a_cone_the_subdivisions_lose_fails_the_stellar_line(monkeypatch):
    # every label the subdivisions keep is the direct route's, and one of
    # the direct route's is missing: the counts of label sets differ
    spec = ArrangementSpec(3, 2)
    g = BuildingSet.maximal(spec)
    lost = Chain._trusted((ds((1, 0)), ds((1, 0), (2, 0))))
    subdivide = fan_module._star_subdivide

    def subdivide_and_lose(cones, *args):
        subdivide(cones, *args)
        cones.discard(frozenset(lost.prefixes))  # a final cone: in no later star

    monkeypatch.setattr(fan_module, "_star_subdivide", subdivide_and_lose)
    assert lost in build_fan(spec, g).chains
    assert lost not in build_fan_stellar(spec, g).chains
    lines = {res.name: res.status for res in selfcheck.suite_fan(spec)}
    assert lines["stellar route equals direct route"] == "FAIL"


def test_stellar_of_2_2_subdivides_the_four_product_cones():
    # the product fan has 4 two-dimensional cones; each gains one interior ray
    spec = ArrangementSpec(2, 2)
    fan = build_fan_stellar(spec, BuildingSet.maximal(spec))
    pair_rays = {
        ray_vector(ds((1, a), (2, b)), spec) for a in (0, 1) for b in (0, 1)
    }
    assert pair_rays == {(-1, -1), (-1, 1), (1, -1), (1, 1)}
    assert pair_rays <= set(fan.rays.values())


def test_fans_equal_basics():
    spec = ArrangementSpec(2, 2)
    g = BuildingSet.maximal(spec)
    fan = build_fan(spec, g)
    assert fans_equal(fan, fan)
    no_2_cones = [c for c in fan.chains if c.length < 2]
    assert not fans_equal(fan, Fan.from_chains(spec, fan.rays, no_2_cones))


# --- point location ----------------------------------------------------------


def test_locate_origin_is_the_empty_chain():
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert locate_point(fan, (0, 0)) == Chain.empty()


def test_locate_a_ray_point():
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert locate_point(fan, (-1, 1)) == chain([(1, 2)], {1: 0, 2: 1})


def test_locate_interior_point_of_a_2_cone():
    spec = ArrangementSpec(3, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    located = locate_point(fan, (0, 3, 0, 1))  # 3 e_1^2 + e_2^2
    assert located == chain([(1,), (1, 2)], {1: 1, 2: 1})


def test_locate_outside_the_support():
    spec = ArrangementSpec(3, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert locate_point(fan, (1, 1, 0, 0)) is None


def test_locate_at_n_0_is_the_empty_chain():
    # R^0 has one point, the empty one, in the one (rayless) cone
    spec = ArrangementSpec(3, 0)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert locate_point(fan, ()) == Chain.empty()


def test_locate_checks_dimension():
    spec = ArrangementSpec(3, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    with pytest.raises(ValueError):
        locate_point(fan, (1, 0))


def scan_locate(fan, point):
    """Point location as the plain scan over the maximal cones, the loop
    that the shared-row index replaced; the reference for it."""
    p, _ = scaled_point(point, fan.spec.ambient_dim)
    for cone in fan.maximal_cones:
        coeffs = cone._scaled_coefficients(p)
        if coeffs is None:
            continue
        return Chain(tuple(d for d, c in zip(cone.label, coeffs) if c > 0))
    return None


@functools.lru_cache(maxsize=None)
def _built_fan(r, n):
    spec = ArrangementSpec(r, n)
    return build_fan(spec, BuildingSet.maximal(spec))


_SMALL = st.integers(-3, 3)


@st.composite
def fan_points(draw, fan):
    """Box points, integral or fractional; support points (one direction per
    factor); face points (ray sums of one maximal cone with some
    coefficients zero); and a face point plus a box offset, mostly off the
    support at r > 2."""
    spec, dim = fan.spec, fan.spec.ambient_dim
    kind = draw(st.sampled_from(["box", "fraction", "support", "face", "off"]))
    if kind == "box":
        return tuple(draw(st.lists(_SMALL, min_size=dim, max_size=dim)))
    if kind == "fraction":
        return tuple(draw(st.lists(_RATIONALS, min_size=dim, max_size=dim)))
    if kind == "support":
        lengths = draw(st.lists(_RATIONALS.map(abs), min_size=spec.n, max_size=spec.n))
        images = [
            basis_image(spec, i, draw(st.integers(0, spec.r - 1)))
            for i in range(1, spec.n + 1)
        ]
        return combine(lengths, images, dim, Fraction(0))
    cone = draw(st.sampled_from(fan.maximal_cones))
    coeffs = draw(
        st.lists(st.sampled_from([0, 0, 1, 2, Fraction(1, 2)]), min_size=len(cone.rays), max_size=len(cone.rays))
    )
    face = combine(coeffs, cone.rays, dim, Fraction(0))
    if kind == "face":
        return face
    offset = draw(st.lists(_SMALL, min_size=dim, max_size=dim))
    return tuple(x + y for x, y in zip(face, offset))


@pytest.mark.parametrize(
    "r,n", [(2, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 0)]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_indexed_location_equals_the_plain_scan(r, n, data):
    built = _built_fan(r, n)
    # a new Fan over the same cones builds its own index on the first point
    fan = Fan.from_chains(built.spec, built.rays, built.chains)
    for point in data.draw(st.lists(fan_points(built), min_size=1, max_size=8)):
        assert locate_point(fan, point) == scan_locate(fan, point)


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_locate_command_prints_the_chain_the_scan_finds(r, n, data):
    # the command reads the chain off the point's tropical curve; the scan
    # over a fan built here is the reference
    built = _built_fan(r, n)
    point = data.draw(fan_points(built))
    fan = Fan.from_chains(built.spec, built.rays, built.chains)
    argv = ["locate", "--r", str(r), "--n", str(n), "--point=" + ",".join(map(str, point))]
    status, out = run(build_parser().parse_args(argv))
    located = locate_point(fan, point)
    last = "outside the fan support" if located is None else f"chain: {located.text()}"
    assert status == 0
    assert out.splitlines()[-1] == last


def test_relative_interior_holds_on_the_face_chain_only():
    spec = ArrangementSpec(3, 2)
    point = (0, 3, 0, 0)  # 3 e_1^2, on the ray of {1:1}
    assert in_relative_interior(chain([(1,)], {1: 1}), point, spec)
    assert not in_relative_interior(chain([(1,), (1, 2)], {1: 1, 2: 0}), point, spec)
    assert not in_relative_interior(chain([(1,)], {1: 0}), point, spec)
    assert not in_relative_interior(Chain.empty(), point, spec)
    assert in_relative_interior(Chain.empty(), (0,) * 4, spec)
    with pytest.raises(ValueError):
        in_relative_interior(Chain.empty(), (0, 0), spec)


@pytest.mark.parametrize("where", ["origin", "first", "middle", "last", "miss"])
def test_one_location_computes_the_inverses_of_the_scanned_cones_only(where):
    # the index behind the scan registers every maximal cone on first use,
    # so the first location computes every inverse and a repeat none
    spec = ArrangementSpec(3, 3)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    cones = fan.maximal_cones
    dim = spec.ambient_dim
    if where == "origin":
        point, expected = (0,) * dim, 0
    elif where == "miss":
        point, expected = (1, 1) + (0,) * (dim - 2), None
    else:
        # the ray sum lies inside this cone only
        expected = {"first": 0, "middle": len(cones) // 2, "last": len(cones) - 1}[where]
        point = combine([1] * spec.n, cones[expected].rays, dim)

    def computed():
        return sum("_inverse" in cone.__dict__ for cone in cones)

    located = locate_point(fan, point)
    assert computed() == len(cones)
    position = next((j for j, c in enumerate(cones) if c.coefficients(point) is not None), None)
    assert position == expected
    assert (located is None) == (position is None)
    # a repeated location computes nothing new
    assert locate_point(fan, point) == located
    assert computed() == len(cones)


@pytest.mark.parametrize("r,n,hyperplanes", [(3, 3, 32), (4, 3, 66), (2, 4, 16)])
def test_the_cone_index_keeps_one_entry_per_hyperplane(r, n, hyperplanes):
    # keyed by row value, the index would hold 59, 114 and 32 rows: each
    # hyperplane once per sign it is tested with
    fan = _built_fan(r, n)
    rows = {row for cone in fan.maximal_cones for row, _, _ in cone._inverse.tests}
    signless = {min(row, tuple((i, -a) for i, a in row)) for row in rows}
    assert len(fan._cone_index._rows) == len(signless) == hyperplanes


@pytest.mark.parametrize("r,n", [(3, 2), (2, 3), (3, 0)])
def test_location_does_not_test_the_cone_the_index_found_again(r, n, monkeypatch):
    built = _built_fan(r, n)
    fan = Fan.from_chains(built.spec, built.rays, built.chains)
    dim = built.spec.ambient_dim
    # the origin, and face points of every fifth maximal cone
    points = [(0,) * dim]
    points += [combine([1, 0, 2][: len(cone.rays)], cone.rays, dim) for cone in fan.maximal_cones[::5]]
    expected = [scan_locate(fan, point) for point in points]
    fan._cone_index  # the index tests every maximal cone; locating must not again

    def refuse(*args):
        raise AssertionError("a cone's tests ran again")

    monkeypatch.setattr(fan_module, "tests_hold", refuse)
    assert [locate_point(fan, point) for point in points] == expected


# --- smoothness --------------------------------------------------------------


def test_smooth_2_cone_example():
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    cone = records(fan)[chain([(1,), (1, 2)], {1: 0, 2: 0})]
    assert set(cone.rays) == {(-1, 0), (-1, -1)}
    assert lattice_pivots(cone.rays) == [1, 1]


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (4, 2)])
def test_all_maximal_cones_smooth(r, n):
    spec = ArrangementSpec(r, n)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert all(lattice_pivots(c.rays) == [1] * len(c.rays) for c in fan.maximal_cones)


# --- cone intersection law ---------------------------------------------------


def test_cone_intersection_law_exhaustive_2_2():
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    chains = list(enumerate_chains(spec, spec.n))
    assert law_failures(cone_table(fan), itertools.product(chains, repeat=2)) == []


# --- trusted chains ----------------------------------------------------------


def test_chain_intersect_results_are_checked_chains_at_3_2():
    """``chain_intersect`` skips the nesting check; the checked constructor
    accepts every result and gives an equal chain."""
    spec = ArrangementSpec(3, 2)
    chains = list(enumerate_chains(spec, spec.n))
    for a, b in itertools.product(chains, repeat=2):
        c = chain_intersect(a, b)
        assert c == Chain(c.prefixes) and hash(c) == hash(Chain(c.prefixes))
        common = set(a.prefixes) & set(b.prefixes)
        assert c == Chain.from_prefixes(common)


@pytest.mark.parametrize("r,n,count", [(3, 2, 400), (3, 3, 1000)])
def test_located_chains_are_checked_chains(r, n, count):
    """``locate_point`` skips the nesting check; the checked constructor
    accepts every located chain and gives an equal chain."""
    spec = ArrangementSpec(r, n)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    located = [
        c for c in map(functools.partial(locate_point, fan), sample_mixed_points(Lcg(3), spec, count))
        if c is not None
    ]
    assert len(located) >= count // 2
    for c in located:
        assert c == Chain(c.prefixes) and hash(c) == hash(Chain(c.prefixes))
        assert c in fan.chains


# --- support decomposition ---------------------------------------------------


def test_support_decomposition_reads_directions():
    spec = ArrangementSpec(3, 2)
    assert support_decomposition((0, 3, 0, 1), spec) == [(3, 2), (1, 2)]
    assert support_decomposition((-2, -2, 0, 0), spec) == [(2, 0), (0, None)]
    assert support_decomposition((1, 1, 0, 0), spec) is None


def test_completeness_for_r_2():
    for n in (1, 2, 3):
        spec = ArrangementSpec(2, n)
        fan = build_fan(spec, BuildingSet.maximal(spec))
        rng = Lcg(0)
        for p in sample_mixed_points(rng, spec, 200):
            assert locate_point(fan, p) is not None


def test_incompleteness_for_r_3():
    spec = ArrangementSpec(3, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    rng = Lcg(0)
    points = sample_mixed_points(rng, spec, 100)
    assert any(locate_point(fan, p) is None for p in points)


# --- JSON round trip ---------------------------------------------------------


@pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (3, 2)])
def test_fan_json_round_trip(r, n):
    spec = ArrangementSpec(r, n)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    payload = json.loads(json.dumps(fan_to_dict(fan)))
    rebuilt = fan_from_dict(payload)
    assert fans_equal(fan, rebuilt)
    # a number that is not a JSON integer raises: int() reads each of these
    # as the number it replaces, so the edited payload rebuilt the same fan
    ray, ids = payload["rays"][0], payload["cones"][-1]["ray_ids"]
    x = ray["vector"][0]
    for where, key, bad in [
        (lambda p: p, "r", r + 0.5),
        (lambda p: p["rays"][0]["vector"], 0, x - 0.9 if x < 0 else x + 0.9),
        (lambda p: p["rays"][0], "id", ray["id"] + 0.7),
        (lambda p: p["rays"][0], "id", f"0_{ray['id']}"),
        (lambda p: p["cones"][-1]["ray_ids"], 0, ids[0] + 0.7),
    ]:
        edited = json.loads(json.dumps(payload))
        where(edited)[key] = bad
        with pytest.raises(ValueError, match="is not a JSON integer"):
            fan_from_dict(edited)


def test_fan_json_schema_fields():
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    payload = fan_to_dict(fan)
    assert payload["r"] == 2 and payload["n"] == 2
    assert payload["basis"] == ["e_1^1", "e_2^1"]
    assert {"id", "subset", "vector"} <= set(payload["rays"][0])
    assert {"dim", "ray_ids", "chain"} <= set(payload["cones"][0])


# --- the symmetry group on lattice vectors -----------------------------------


@pytest.mark.parametrize("r,n", [(2, 3), (3, 2), (4, 2), (3, 3)])
def test_each_generator_maps_every_ray_to_its_image_labels_ray(r, n):
    spec = ArrangementSpec(r, n)
    for g in symmetry_generators(spec):
        for d in enumerate_decorated_subsets(spec):
            assert act(spec, g, ray_vector(d, spec)) == ray_vector(g.subset(d), spec)


def test_act_is_linear_and_matches_the_labels_exactly_for_residue_bijections():
    spec = ArrangementSpec(4, 2)
    same = (0, 1, 2, 3)
    singles = [DecoratedSubset(((i, a),)) for i in (1, 2) for a in range(4)]
    # any residue bijection is a lattice map: e_i^0 goes where its label says
    swap = Symmetry((2, 1), ((0, 3, 1, 2), same))
    assert all(act(spec, swap, ray_vector(d, spec)) == ray_vector(swap.subset(d), spec) for d in singles)
    u, v = (1, -2, 0, 3, Fraction(1, 2), -1), (0, 5, -1, 2, 2, 7)
    assert act(spec, swap, tuple(map(sum, zip(u, v)))) == tuple(map(sum, zip(act(spec, swap, u), act(spec, swap, v))))
    # a residue map that is not a bijection is not: e_1^0 misses its label's ray
    merged = Symmetry((1, 2), ((1, 2, 3, 3), same))
    wrong = [d for d in singles if act(spec, merged, ray_vector(d, spec)) != ray_vector(merged.subset(d), spec)]
    assert wrong == [DecoratedSubset(((1, 0),))]
