"""The intersection law and the wall certificate behind ``check``'s fan
suite, and the work the fan and tropical suites do."""

import gc
import itertools
import math
import weakref

import pytest
from test_linalg import matrix_rank

from cyclic_wonderful import fan as fan_module
from cyclic_wonderful import linalg, selfcheck, tropical
from cyclic_wonderful.cli import build_parser, run
from cyclic_wonderful.fan import Cone, Fan, build_fan, fans_equal
from cyclic_wonderful.lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    chain_intersect,
    enumerate_chains,
    parse_chain,
    parse_subset,
)
from cyclic_wonderful.linalg import lattice_pivots
from cyclic_wonderful.sampling import Lcg
from cyclic_wonderful.selfcheck import suite_fan, suite_tropical, wall_failures

COMPLETE = "complete for r = 2, cones meeting in common faces: every wall has two maximal cones on opposite sides"
NOT_COMPLETE = (
    "not complete for r > 2: e_1^1 + e_1^2 lies in no cone, and the cones cover T = L^n once,"
    " meeting in common faces: every inner wall has two maximal cones on opposite sides,"
    " every boundary wall r at distinct residues"
)


class _Held(dict):
    """A cone's memo for the law: point -> whether the cone holds it, each
    point tested once, and the points the law tests the other cones at, the
    cone's rays and the sum of its rays (None when the rays are dependent)."""

    def __init__(self, cone):
        super().__init__()
        self.cone, self.points = cone, None
        if matrix_rank(cone.rays) == len(cone.rays):
            self.points = (*cone.rays, tuple(map(sum, zip(*cone.rays)))) if cone.rays else ()

    def __missing__(self, p):
        held = self[p] = self.cone.contains(p)
        return held


def per_pair_law(fan, a, b, memo=None):
    """Whether the cones of chains a and b meet as the law says,
    cone(a) ∩ cone(b) = cone(a ∧ b): the tests' one law, the cross-check of
    the wall certificate from which ``check`` takes it.

    The law is checked exactly at finitely many points.  Every ray of the
    expected cone lies in both cones.  Conversely, each ray of either cone,
    and the sum of its rays (a point interior enough to catch mismatches),
    lies in the other cone exactly when it lies in the expected one.  A pair
    that meets a cone of dependent rays fails, and no point is tested in
    such a cone.  ``memo`` maps a cone's id to its ``_Held``; the fan holds
    every cone, so the pairs of one fan may share it.
    """
    memo = {} if memo is None else memo
    held = []
    for chain in (a, b, chain_intersect(a, b)):
        cone = fan.cone(chain)
        if id(cone) not in memo:
            memo[id(cone)] = _Held(cone)
        held.append(memo[id(cone)])
    in_a, in_b, in_x = held
    if in_a.points is None or in_b.points is None or in_x.points is None:
        return False
    if not all(in_a[g] and in_b[g] for g in in_x.cone.rays):
        return False
    for this, other in ((in_a, in_b), (in_b, in_a)):
        if any(other[p] != in_x[p] for p in this.points):
            return False
    return True


def law_failures(fan, pairs):
    """The pairs that break the law, in order, with one memo for them all."""
    memo = {}
    return [(a, b) for a, b in pairs if not per_pair_law(fan, a, b, memo)]


def fan_of(r, n):
    spec = ArrangementSpec(r, n)
    return build_fan(spec, BuildingSet.maximal(spec))


def law_pairs(fan, seed=0):
    """A sample of pairs of chains for the law: all of them up to 2,500,
    else 1,000 drawn from the seed."""
    chains = list(enumerate_chains(fan.spec, fan.spec.n))
    if len(chains) ** 2 <= 2500:
        return list(itertools.product(chains, chains))
    rng = Lcg(seed)
    return [
        (chains[rng.below(len(chains))], chains[rng.below(len(chains))])
        for _ in range(1000)
    ]


def bent(fan):
    """The fan with the last ray of one maximal cone moved off its place,
    the rays kept independent, and that cone's chain: the cone now
    disagrees with its faces and neighbours."""
    cone = fan.maximal_cones[1]
    *head, last = cone.rays
    moved = tuple(x + y for x, y in zip(last, fan.maximal_cones[-1].rays[0]))
    chain = next(c for c, k in fan.cones.items() if k is cone)
    cones = {**fan.cones, chain: Cone((*head, moved), cone.label)}
    return chain, Fan.from_cones(fan.spec, fan.rays, cones.items())


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2)])
def test_a_perturbed_ray_fails_the_same_pairs_in_both_versions(r, n):
    fan = fan_of(r, n)
    pairs = law_pairs(fan)
    chain, broken = bent(fan)
    failures = law_failures(broken, pairs)
    # one memo for all the pairs, or a fresh one per pair: the same failures
    assert failures == [(a, b) for a, b in pairs if not per_pair_law(broken, a, b)]
    assert failures and all(chain in pair for pair in failures)


def test_a_failing_lattice_line_counts_its_cones_and_names_the_first(monkeypatch):
    spec = ArrangementSpec(2, 2)
    passing = {res.name: res.detail for res in suite_fan(spec)}
    assert passing["maximal cones unimodular"] == "8 cones"
    assert passing["cone dimension equals chain length"] == ""
    # at (2, 2) the bent cone's rays span a sublattice of index 2
    chain, broken = bent(fan_of(2, 2))
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: broken)
    lines = {res.name: res for res in suite_fan(spec)}
    unimodular = lines["maximal cones unimodular"]
    assert (unimodular.status, unimodular.detail) == (
        "FAIL",
        f"8 cones, 1 not unimodular, first {chain.text()}",
    )
    assert lines["cone dimension equals chain length"].status == "PASS"
    assert fan_suite_line(monkeypatch, broken, "maximal cones unimodular")[1] == 1
    # a maximal cone that repeats a ray is flat: both lattice lines fail,
    # and the scan, which would eliminate it, is not run, and its line fails
    fan = fan_of(2, 2)
    top = next(c for c in fan.cones if c.length == 2)
    ray = fan.cones[top].rays[0]
    cones = {**fan.cones, top: Cone((ray, ray), top.prefixes)}
    repeated = Fan.from_cones(spec, fan.rays, cones.items())
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: repeated)
    lines = {res.name: res for res in suite_fan(spec)}
    assert list(lines) == list(passing)
    assert lines["maximal cones unimodular"].detail == f"8 cones, 1 not unimodular, first {top.text()}"
    assert lines["cone dimension equals chain length"].detail == (
        f"8 maximal cones, 1 of another rank, first {top.text()}"
    )
    assert lines[COMPLETE].detail == (
        f"not run, first flat maximal cone {top.text()}"
    )
    assert [res.status for res in lines.values()] == ["PASS", "PASS", "FAIL", "FAIL", "FAIL", "FAIL"]
    status, out = run(build_parser().parse_args(["check", "--r", "2", "--n", "2", "--suite", "fan"]))
    assert status == 1
    assert out.count("FAIL [fan]") == 4 and out.endswith("2/6 checks passed for r=2, n=2\n")


def test_a_zero_ray_face_fails_the_tie_and_passes_the_dimension_line(monkeypatch):
    # the lattice lines read the maximal cones alone; the face's zero ray
    # is not its prefix's entry in the ray table, so the tie, which the
    # stellar line checks for every cone, sees it, and every line prints
    spec = ArrangementSpec(2, 2)
    passing = {res.name: res.detail for res in suite_fan(spec)}
    fan = fan_of(2, 2)
    flat = flat_face(fan)
    face = next(c for c in fan.cones if c.length == 1)
    line, status = fan_suite_line(monkeypatch, flat, "stellar route equals direct route")
    assert (line.status, line.detail, status) == ("FAIL", f"17 cones, 1 not on their chain's rays, first {face.text()}", 1)
    lines = {res.name: res for res in suite_fan(spec)}
    assert list(lines) == list(passing)
    assert [res.status for res in lines.values()] == ["PASS", "PASS", "FAIL", "PASS", "PASS", "PASS"]
    assert lines["cone dimension equals chain length"].detail == ""
    # at (3, 2) the flat face fails the stellar line too, and the law,
    # which tests membership in no cone of dependent rays, fails exactly
    # the pairs that meet it
    flat = flat_face(fan_of(3, 2))
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: flat)
    lines = {res.name: res.status for res in suite_fan(flat.spec)}
    face = next(c for c in flat.cones if c.length == 1)
    assert lines["stellar route equals direct route"] == "FAIL"
    assert lines["cone dimension equals chain length"] == "PASS"
    pairs = law_pairs(flat)
    assert len(pairs) == 1156
    failing = [(a, b) for a, b in pairs if face in (a, b, chain_intersect(a, b))]
    assert failing and law_failures(flat, pairs) == failing
    # the completeness line reads the maximal cones alone
    assert lines[NOT_COMPLETE] == "PASS"


def test_the_fan_suite_eliminates_the_maximal_cones_alone(monkeypatch):
    # 162 = 3! 3^3 maximal cones of the 442 cones at (3, 3)
    calls = []
    for module in (linalg, fan_module, selfcheck):
        monkeypatch.setattr(module, "lattice_pivots", lambda rows: calls.append(rows) or lattice_pivots(rows))
    status, out = run(build_parser().parse_args(["check", "--r", "3", "--n", "3", "--suite", "fan"]))
    assert status == 0 and out.endswith("6/6 checks passed for r=3, n=3\n")
    fan = fan_of(3, 3)
    assert len(calls) == 162 == len(fan.maximal_cones) and len(fan.cones) == 442


def flat_face(fan):
    """The fan with its first one-ray face given the zero ray."""
    face = next(c for c in fan.cones if c.length == 1)
    zero = (0,) * fan.spec.ambient_dim
    return Fan.from_cones(fan.spec, fan.rays, {**fan.cones, face: Cone((zero,), face.prefixes)}.items())


@pytest.mark.parametrize("n,pairs", [(1, 9), (2, 289), (3, 21609)])
def test_the_law_holds_on_every_pair_of_cones_at_r_2(n, pairs):
    # the cross-check of the wall certificate, which decides the law in
    # ``check`` at r = 2
    fan = fan_of(2, n)
    chains = list(enumerate_chains(fan.spec, n))
    assert len(chains) ** 2 == pairs
    assert law_failures(fan, itertools.product(chains, chains)) == []


def test_the_law_holds_where_no_line_checks_it_and_the_fan_suite_draws_nothing(monkeypatch):
    # the specs where the law line ran last, the reference called directly
    for r, n in [(2, 0), (3, 0), (3, 1), (3, 2), (4, 2)]:
        fan = fan_of(r, n)
        chains = list(enumerate_chains(fan.spec, n))
        assert law_failures(fan, itertools.product(chains, chains)) == []
    # at every spec the fan suite draws no random number and prints no law line
    monkeypatch.setattr(selfcheck, "Lcg", None)
    names = [
        "ray count (1+r)^n - 1",
        "maximal cone count n! r^n",
        "stellar route equals direct route",
        "maximal cones unimodular",
        "cone dimension equals chain length",
    ]
    for r, n in [(2, 0), (3, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 2), (3, 3)]:
        results = suite_fan(ArrangementSpec(r, n))
        assert [res.status for res in results] == ["PASS"] * 6
        last = COMPLETE if r == 2 else NOT_COMPLETE
        if n == 0:
            last = "complete for n = 0: the fan is the origin of R^0"
        assert [res.name for res in results] == [*names, last]
    monkeypatch.undo()
    for r, n in [(2, 3), (3, 2), (4, 2), (3, 3)]:
        argv = f"check --r {r} --n {n} --suite fan --seed".split()
        outputs = {run(build_parser().parse_args([*argv, str(seed)])) for seed in (0, 12)}
        assert len(outputs) == 1 and next(iter(outputs))[0] == 0


def test_a_face_given_a_wrong_independent_ray_fails_the_stellar_line_alone(monkeypatch):
    fan = fan_of(2, 2)
    face = parse_chain("{1:0}", fan.spec)
    assert fan.cones[face].rays == ((-1, 0),)
    # (0, 1) is the ray of {2:1}: rank and lattice lines still pass, and
    # only the stellar line sees the face, by its ray sets and its chain
    moved = Fan.from_cones(fan.spec, fan.rays, {**fan.cones, face: Cone(((0, 1),), face.prefixes)}.items())
    assert not fans_equal(moved, fan)
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: moved)
    status, out = run(build_parser().parse_args(["check", "--r", "2", "--n", "2", "--suite", "fan"]))
    assert status == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL [fan] stellar route equals direct route (17 cones, 1 not on their chain's rays, first {1:0})"
    ]
    assert out.endswith("5/6 checks passed for r=2, n=2\n")


def test_two_faces_that_swap_cones_fail_the_stellar_line(monkeypatch):
    fan = fan_of(2, 2)
    one, two = parse_chain("{1:0}", fan.spec), parse_chain("{2:1}", fan.spec)
    assert (fan.cones[one].rays, fan.cones[two].rays) == (((-1, 0),), ((0, 1),))
    # every set of rays is kept, so fans_equal, the rank, lattice and wall
    # lines pass; only the tie of each cone to its chain sees the swap
    swapped = Fan.from_cones(fan.spec, fan.rays, {**fan.cones, one: fan.cones[two], two: fan.cones[one]}.items())
    assert fans_equal(swapped, fan)
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: swapped)
    status, out = run(build_parser().parse_args(["check", "--r", "2", "--n", "2", "--suite", "fan"]))
    assert status == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL [fan] stellar route equals direct route (17 cones, 2 not on their chain's rays, first {1:0})"
    ]
    assert out.endswith("5/6 checks passed for r=2, n=2\n")
    # the same faces given each other's rays under their own labels
    relabelled = Fan.from_cones(
        fan.spec,
        fan.rays,
        {**fan.cones, one: Cone(fan.cones[two].rays, one.prefixes), two: Cone(fan.cones[one].rays, two.prefixes)}.items(),
    )
    line, status = fan_suite_line(monkeypatch, relabelled, "stellar route equals direct route")
    assert (line.status, line.detail, status) == ("FAIL", "17 cones, 2 not on their chain's rays, first {1:0}", 1)


class _PassCounter(dict):
    """A cone table that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()

    def items(self):
        self.passes += 1
        return super().items()

    def keys(self):
        self.passes += 1
        return super().keys()

    def values(self):
        self.passes += 1
        return super().values()


@pytest.mark.parametrize("r,n", [(2, 3), (3, 2)])
def test_the_stellar_line_builds_no_record_and_reads_the_cones_once(monkeypatch, r, n):
    # the stellar route is compared by its label sets and ray table, so
    # neither its Fan nor its cones' records are built; one pass over the
    # direct fan's cones serves the stellar and lattice lines
    fan = fan_of(r, n)
    table = vars(fan)["cones"] = _PassCounter(fan.cones)

    def refuse(*args, **kwargs):
        raise AssertionError("the check built the stellar route's records")

    monkeypatch.setattr(Fan, "from_cones", refuse)
    monkeypatch.setattr("cyclic_wonderful.fan.build_fan_stellar", refuse)
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: fan)
    lines = suite_fan(fan.spec)
    assert [res.status for res in lines] == ["PASS"] * len(lines)
    assert "cone intersection law" not in [res.name for res in lines]
    assert table.passes == 1


def test_a_label_given_another_ray_in_every_cone_fails_the_stellar_line(monkeypatch):
    fan = fan_of(2, 2)
    label = parse_subset("{1:0}", fan.spec)
    # every cone keeps the ray table's rays of its chain, so the tie holds
    # and the label sets are equal: only the stellar route's ray table sees it
    rays = {**fan.rays, label: (-2, 1)}
    cones = {chain: Cone(tuple(map(rays.get, chain.prefixes)), chain.prefixes) for chain in fan.cones}
    moved = Fan.from_cones(fan.spec, rays, cones.items())
    line, status = fan_suite_line(monkeypatch, moved, "stellar route equals direct route")
    assert (line.status, line.detail, status) == ("FAIL", "", 1)


def test_a_meet_cone_with_a_ray_outside_both_cones_fails_by_its_rays():
    fan = fan_of(3, 2)
    spec = fan.spec
    a, b = parse_chain("{1:0}<{1:0,2:0}", spec), parse_chain("{1:0}<{1:0,2:1}", spec)
    meet = chain_intersect(a, b)
    # the meet's cone gains the ray of {2:2}, which lies in neither cone; the
    # rays and ray sums of a and b still lie in it exactly when in the other
    # cone, so only the test of the meet's rays sees the break
    cone = fan.cone(meet)
    grown = Cone((*cone.rays, fan.rays[parse_subset("{2:2}", spec)]), cone.label)
    broken = Fan.from_cones(spec, fan.rays, {**fan.cones, meet: grown}.items())
    assert not per_pair_law(broken, a, b)
    assert per_pair_law(fan, a, b)


def test_tropical_suite_embeds_each_curve_once(monkeypatch):
    calls = []
    embed = tropical.embed

    def counted(curve, spec):
        calls.append(curve)
        return embed(curve, spec)

    monkeypatch.setattr(tropical, "embed", counted)
    results = suite_tropical(ArrangementSpec(3, 2), seed=5)
    assert [res.status for res in results] == ["PASS"] * 3
    assert len(calls) == 500


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_wall_of_the_r_2_fan_passes_and_there_are_n_n_factorial_2_to_the_n_minus_1(n):
    # each of the n! 2^n maximal cones has n walls, each shared by two
    assert wall_failures(fan_of(2, n)) == (n * math.factorial(n) * 2 ** (n - 1), [])


def fan_suite_line(monkeypatch, fan, name):
    """The fan suite's line of that name on the given fan, and the exit
    status of ``check --suite fan`` on it, which prints that line."""
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: fan)
    line = {res.name: res for res in suite_fan(fan.spec)}[name]
    argv = ["check", "--r", str(fan.spec.r), "--n", str(fan.spec.n), "--suite", "fan"]
    status, out = run(build_parser().parse_args(argv))
    assert f"{line.status} [fan] {name}" in out
    return line, status


def facets(chain):
    return {chain.prefixes[:j] + chain.prefixes[j + 1 :] for j in range(len(chain.prefixes))}


def with_cone(fan, old, rays):
    """The fan with the maximal cone ``old`` given these rays, its label kept."""
    cones = {c: Cone(rays, k.label) if k is old else k for c, k in fan.cones.items()}
    return Fan.from_cones(fan.spec, fan.rays, cones.items())


def test_a_missing_maximal_cone_leaves_its_walls_one_coface(monkeypatch):
    fan = fan_of(2, 3)
    gone = [c for c in fan.cones if c.length == 3][20]
    holed = Fan.from_cones(fan.spec, fan.rays, [(c, k) for c, k in fan.cones.items() if c != gone])
    walls, failed = wall_failures(holed)
    assert walls == 72 and set(failed) == facets(gone) and len(failed) == 3
    line, status = fan_suite_line(monkeypatch, holed, COMPLETE)
    first = Chain._trusted(failed[0]).text()
    assert (line.status, line.detail, status) == ("FAIL", f"72 walls, 3 failures, first {first}", 1)


def test_a_wall_whose_two_cofaces_lie_on_one_side_fails(monkeypatch):
    fan = fan_of(2, 2)
    one = fan.maximal_cones[0]
    # an inner wall, the top prefix alone: a boundary wall is decided on labels
    wall = one.label[1:]
    other = next(c for c in fan.maximal_cones if c is not one and c.label[1:] == wall)
    # the other coface's extra ray moved to the first coface's side of the
    # wall, the rays kept a lattice basis; every label is kept, so every
    # wall still has two cofaces
    inside = tuple(x + y for x, y in zip(one.rays[0], one.rays[1]))
    folded = with_cone(fan, other, (inside, other.rays[1]))
    assert wall_failures(fan) == (8, [])
    walls, failed = wall_failures(folded)
    assert walls == 8 and wall in failed
    line, status = fan_suite_line(monkeypatch, folded, COMPLETE)
    assert (line.status, status) == ("FAIL", 1)
    assert line.detail.startswith(f"8 walls, {len(failed)} failures, first ")


def test_a_second_maximal_cone_over_the_first_one_s_ray_sum_fails(monkeypatch):
    fan = fan_of(2, 2)
    one, twin = fan.maximal_cones[0], fan.maximal_cones[5]
    line, status = fan_suite_line(monkeypatch, with_cone(fan, twin, one.rays), COMPLETE)
    assert (line.status, status) == ("FAIL", 1)
    first = Chain._trusted(one.label).text()
    assert line.detail.endswith(f", the ray sum of {first} lies in 2 maximal cones")


def test_a_maximal_cone_through_the_witness_fails_the_r_above_2_line(monkeypatch):
    fan = fan_of(3, 2)
    line, status = fan_suite_line(monkeypatch, fan, NOT_COMPLETE)
    assert (line.status, line.detail, status) == ("PASS", "15 walls, 0 failures", 0)
    cone = fan.maximal_cones[7]
    # its first ray becomes e_1^1 + e_1^2; the second, with a nonzero
    # entry in factor 2's block, stays independent of it
    moved = with_cone(fan, cone, ((1, 1, 0, 0), cone.rays[1]))
    line, status = fan_suite_line(monkeypatch, moved, NOT_COMPLETE)
    ray = Chain._trusted(cone.label[:1]).text()
    assert (line.status, status) == ("FAIL", 1)
    assert line.detail.endswith(f", e_1^1 + e_1^2 lies in the cone of {ray}")


def test_a_wall_of_three_cofaces_fails_though_its_first_two_lie_on_opposite_sides(monkeypatch):
    fan = fan_of(2, 2)
    one = fan.maximal_cones[0]
    wall = one.label[:1]
    other = next(c for c in fan.maximal_cones if c is not one and c.label[:1] == wall)
    last = fan.maximal_cones[-1]
    assert last is not other and last.label[:1] != wall
    # the last maximal chain's cone becomes a third coface of the wall
    cones = {c: Cone(other.rays, other.label) if k is last else k for c, k in fan.cones.items()}
    crowded = Fan.from_cones(fan.spec, fan.rays, cones.items())
    walls, failed = wall_failures(crowded)
    assert walls == 8 and wall in failed
    line, status = fan_suite_line(monkeypatch, crowded, COMPLETE)
    assert (line.status, status) == ("FAIL", 1)


# --- the wall certificate at r >= 3 ----------------------------------------------


@pytest.mark.parametrize("r,n,pairs", [(3, 1, 16), (4, 2, 3249), (3, 3, 195364)])
def test_the_law_holds_on_every_pair_of_chains_at_r_above_2(r, n, pairs):
    # the cross-check of the wall certificate, which decides the law in
    # ``check`` at every r
    fan = fan_of(r, n)
    chains = list(enumerate_chains(fan.spec, n))
    assert len(chains) ** 2 == pairs
    assert law_failures(fan, itertools.product(chains, chains)) == []


@pytest.mark.parametrize("r,n,walls", [(3, 1, 1), (3, 2, 15), (4, 2, 24), (3, 3, 216), (4, 3, 480), (4, 4, 10752)])
def test_every_wall_passes_at_r_above_2(r, n, walls):
    # n! r^n maximal cones, each with n - 1 inner walls shared by two and
    # one boundary wall shared by r
    fan = fan_of(r, n)
    assert walls * 2 * r == math.factorial(n) * r**n * ((n - 1) * r + 2)
    assert wall_failures(fan) == (walls, [])
    assert selfcheck._rays_off_their_charts(fan) == []


def with_cones(fan, new):
    """The fan with the cones of some chains replaced, or dropped for None."""
    cones = {c: new.get(c, k) for c, k in fan.cones.items()}
    return Fan.from_cones(fan.spec, fan.rays, [(c, k) for c, k in cones.items() if k is not None])


def failing_lines(monkeypatch, fan):
    """The names of the lines ``check --suite fan`` fails on the fan, and its
    exit status."""
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: fan)
    argv = ["check", "--r", str(fan.spec.r), "--n", str(fan.spec.n), "--suite", "fan"]
    status, out = run(build_parser().parse_args(argv))
    fails = [line[len("FAIL [fan] ") :].split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")]
    return fails, status


STELLAR, COUNT = "stellar route equals direct route", "maximal cone count n! r^n"


def test_a_top_ray_swapped_for_the_new_factor_s_singleton_ray_fails_one_wall(monkeypatch):
    fan = fan_of(3, 3)
    chain = [c for c in fan.cones if c.length == 3][4]
    below, top = chain.prefixes[-2:]
    ((m, a),) = set(top.items) - set(below.items)
    cone = fan.cones[chain]
    # the cone of the chart's coordinate face: in the chart, of rank 3 and
    # unimodular, but not its chain's cone
    moved = with_cones(fan, {chain: Cone((*cone.rays[:-1], fan.rays[parse_subset(f"{{{m}:{a}}}", fan.spec)]), cone.label)})
    walls, failed = wall_failures(moved)
    assert walls == 216 and failed == [chain.prefixes[:1] + chain.prefixes[2:]]
    assert failing_lines(monkeypatch, moved) == ([STELLAR, NOT_COMPLETE], 1)


def test_a_lost_maximal_cone_fails_its_inner_and_boundary_walls(monkeypatch):
    fan = fan_of(3, 3)
    gone = [c for c in fan.cones if c.length == 3][7]
    holed = with_cones(fan, {gone: None})
    walls, failed = wall_failures(holed)
    # two inner walls left one coface, the boundary wall r - 1
    assert walls == 216 and set(failed) == facets(gone) and len(failed) == 3
    assert failing_lines(monkeypatch, holed) == ([COUNT, STELLAR, NOT_COMPLETE], 1)


@pytest.mark.parametrize("r,n,fails", [(3, 2, [STELLAR]), (3, 3, [STELLAR, NOT_COMPLETE])])
def test_two_maximal_cones_that_swap_rays_fail_the_tie(monkeypatch, r, n, fails):
    fan = fan_of(r, n)
    maximal = [c for c in fan.cones if c.length == n]
    a, b = maximal[0], maximal[-1]
    swapped = with_cones(fan, {a: Cone(fan.cones[b].rays, a.prefixes), b: Cone(fan.cones[a].rays, b.prefixes)})
    # the walls assume the tie, which the stellar line checks; at (3, 2)
    # the swapped cones' walls happen to pass
    assert failing_lines(monkeypatch, swapped) == (fails, 1)


def test_a_boundary_wall_whose_cofaces_repeat_a_residue_fails(monkeypatch):
    fan = fan_of(3, 3)
    maximal = [c for c in fan.cones if c.length == 3]
    one = maximal[0]
    other = next(c for c in maximal if c != one and c.prefixes[:-1] == one.prefixes[:-1])
    # the other coface of the boundary wall becomes a copy of the first, so
    # its top prefix adds the same residue
    repeated = with_cones(fan, {other: fan.cones[one]})
    walls, failed = wall_failures(repeated)
    assert walls == 216 and one.prefixes[:-1] in failed
    assert failing_lines(monkeypatch, repeated) == ([STELLAR, NOT_COMPLETE], 1)
    # a top prefix that adds the missing factor 1 at the residue it had but
    # changes factor 2's: the residues stay distinct, but it adds no one
    # factor to the wall's top prefix
    spec = fan.spec
    chain = parse_chain("{2:0}<{2:0,3:0}<{1:0,2:0,3:0}", spec)
    stray = (*chain.prefixes[:-1], parse_subset("{1:0,2:1,3:0}", spec))
    relabelled = with_cones(fan, {chain: Cone(fan.cones[chain].rays, stray)})
    assert chain.prefixes[:-1] in wall_failures(relabelled)[1]


def test_a_ray_off_its_label_s_chart_fails_the_completeness_line_alone(monkeypatch):
    # at (3, 1) the ray of {1:1} is e^2 = (0, 1); (1, -1) is primitive, lies
    # in no chart, and e_1^1 + e_1^2 is not on it.  Both routes take it from
    # ``ray_vector``, so they agree, and the law holds on every pair; only
    # the chart reading sees it
    spec = ArrangementSpec(3, 1)
    label = parse_subset("{1:1}", spec)
    ray_vector = fan_module.ray_vector
    monkeypatch.setattr(fan_module, "ray_vector", lambda d, spec: (1, -1) if d == label else ray_vector(d, spec))
    fan = fan_of(3, 1)
    assert fan.rays[label] == (1, -1)
    chains = list(enumerate_chains(spec, 1))
    assert law_failures(fan, itertools.product(chains, chains)) == []
    assert wall_failures(fan) == (1, [])
    assert selfcheck._rays_off_their_charts(fan) == [label]
    status, out = run(build_parser().parse_args(["check", "--r", "3", "--n", "1", "--suite", "fan"]))
    assert status == 1
    (line,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert line == f"FAIL [fan] {NOT_COMPLETE} (1 walls, 0 failures, 1 rays off their label's chart, first {{1:1}})"


def test_a_bent_ray_fails_the_stellar_line_and_the_check_exits_1(monkeypatch):
    # at (3, 2) the ray of {1:1,2:1} is (0, 1, 0, 1); bent to (1, 1, 0, 1) it
    # leaves the span of its singletons' cone, so the stellar route cannot
    # subdivide there: a failed check, not a usage or feasibility error
    spec = ArrangementSpec(3, 2)
    label = parse_subset("{1:1,2:1}", spec)
    ray_vector = fan_module.ray_vector
    assert ray_vector(label, spec) == (0, 1, 0, 1)
    monkeypatch.setattr(fan_module, "ray_vector", lambda d, spec: (1, 1, 0, 1) if d == label else ray_vector(d, spec))
    status, out = run(build_parser().parse_args(["check", "--r", "3", "--n", "2", "--suite", "fan"]))
    assert status == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails[0] == "FAIL [fan] stellar route equals direct route (subdivision vector lies outside the fan support)"
    assert fails[1].startswith(f"FAIL [fan] {NOT_COMPLETE} (15 walls, 1 failures, first {{1:1,2:1}}")
    assert out.endswith("4/6 checks passed for r=3, n=2\n")


# --- the work one ``check`` run shares ------------------------------------------


def test_one_check_run_builds_one_direct_fan_and_shares_it(monkeypatch):
    built, scanned = [], []
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: built.append(build_fan(spec, g)) or built[-1])
    locate = selfcheck.locate_point
    monkeypatch.setattr(selfcheck, "locate_point", lambda fan, p: scanned.append(fan) or locate(fan, p))
    status, out = run(build_parser().parse_args(["check", "--r", "3", "--n", "2", "--seed", "5"]))
    assert status == 0 and out.endswith("17/17 checks passed for r=3, n=2\n")
    (fan,) = built
    # the fan suite's witness scan and the tropical suite's 500 scans
    assert len(scanned) == 501 and all(f is fan for f in scanned)
    # each suite called alone builds its own
    for suite in (suite_fan, suite_tropical):
        built.clear()
        assert all(res.status == "PASS" for res in suite(ArrangementSpec(3, 2)))
        assert len(built) == 1


def test_the_shared_fan_is_gone_before_the_other_suites_run(monkeypatch):
    refs, ran = [], []

    def build(spec, g):
        fan = build_fan(spec, g)
        refs.append(weakref.ref(fan))
        return fan

    monkeypatch.setattr(selfcheck, "build_fan", build)
    for name in ("chow", "normal"):
        suite = getattr(selfcheck, f"suite_{name}")

        def after_the_fan(spec, suite=suite, name=name):
            gc.collect()
            assert [ref() for ref in refs] == [None]
            ran.append(name)
            return suite(spec)

        monkeypatch.setattr(selfcheck, f"suite_{name}", after_the_fan)
    spec = ArrangementSpec(2, 2)
    results = selfcheck.run_suites(spec, seed=3)
    assert ran == ["chow", "normal"] and len(refs) == 1
    # the results come in the order asked for
    monkeypatch.undo()
    alone = {name: getattr(selfcheck, f"suite_{name}") for name in selfcheck.SUITES}
    seeds = {"tropical": (3,)}  # the one suite that samples
    assert results == [res for name in selfcheck.SUITES for res in alone[name](spec, *seeds.get(name, ()))]
    assert [res.suite for res in results] == sorted((res.suite for res in results), key=selfcheck.SUITES.index)


def test_a_refused_fan_suite_leaves_the_tropical_suite_its_own_skip(monkeypatch):
    monkeypatch.setenv("CYCLIC_WONDERFUL_MAX_CELLS", "10")
    status, out = run(build_parser().parse_args(["check", "--r", "2", "--n", "2"]))
    refusal = "fan with 8 rays and 8 maximal cones exceeds the guard bound 10 (override with CYCLIC_WONDERFUL_MAX_CELLS)"
    assert (status, out) == (
        0,
        f"SKIP [fan] fan construction ({refusal})\n"
        f"SKIP [chow] presentation and chain census ({refusal})\n"
        f"SKIP [tropical] fan construction ({refusal})\n"
        "PASS [normal] one cell per maximal chain (8 cells)\n"
        "PASS [normal] origin is a vertex of every cell\n"
        "PASS [normal] cells tile the truncated support: each cell is its maximal cone's part of it, read on the chain's rays (8 cells, 0 failures)\n"
        "PASS [normal] union extremes are the signed permutations of (1, 2) (8 extreme points)\n"
        "4/7 checks passed, 3 skipped for r=2, n=2\n",
    )
