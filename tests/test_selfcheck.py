"""The intersection law and the wall certificate behind ``check``'s fan
suite, and the work the fan and tropical suites do."""

import gc
import itertools
import math
import weakref
from fractions import Fraction

import pytest
from sampling import Lcg
from test_linalg import matrix_rank

from cyclic_wonderful import fan as fan_module
from cyclic_wonderful import lattice, linalg, selfcheck, tropical
from cyclic_wonderful.cli import build_parser, run
from cyclic_wonderful.fan import Cone, Fan, build_fan, fans_equal
from cyclic_wonderful.lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    DecoratedSubset,
    chain_intersect,
    enumerate_chains,
    is_nested,
    parse_chain,
    parse_subset,
)
from cyclic_wonderful.linalg import lattice_pivots
from cyclic_wonderful.selfcheck import suite_fan, suite_tropical, wall_failures
from cyclic_wonderful.tropical import CENTER, TropicalCurve

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
        held = self[p] = self.cone.coefficients(p) is not None
        return held


def records(fan):
    """The fan's maximal records, keyed by their chains: the last of the
    fan's chains, in the order of ``maximal_cones``."""
    chains = fan.chains
    return dict(zip(chains[len(chains) - len(fan.maximal_cones) :], fan.maximal_cones))


def cone_table(fan):
    """Every chain's cone: the fan's record of a maximal chain, and for a
    face the cone of its prefixes' entries in the ray table."""
    held = records(fan)
    return {
        c: held[c] if c in held else Cone(tuple([fan.rays[d] for d in c.prefixes]), c.prefixes)
        for c in fan.chains
    }


def per_pair_law(cones, a, b, memo=None):
    """Whether the cones of chains a and b in the table ``cones`` (chain ->
    cone, as ``cone_table`` gives it) meet as the law says,
    cone(a) ∩ cone(b) = cone(a ∧ b): the tests' one law, the cross-check of
    the wall certificate from which ``check`` takes it.

    The law is checked exactly at finitely many points.  Every ray of the
    expected cone lies in both cones.  Conversely, each ray of either cone,
    and the sum of its rays (a point interior enough to catch mismatches),
    lies in the other cone exactly when it lies in the expected one.  A pair
    that meets a cone of dependent rays fails, and no point is tested in
    such a cone.  ``memo`` maps a cone's id to its ``_Held``; the table
    holds every cone, so the pairs of one table may share it.
    """
    memo = {} if memo is None else memo
    held = []
    for chain in (a, b, chain_intersect(a, b)):
        cone = cones[chain]
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


def law_failures(cones, pairs):
    """The pairs that break the law in the cone table, in order, with one
    memo for them all."""
    memo = {}
    return [(a, b) for a, b in pairs if not per_pair_law(cones, a, b, memo)]


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


def with_cones(fan, new):
    """The fan with the records of some maximal chains replaced, or dropped
    with their chains for None; its faces kept."""
    faces = fan.chains[: len(fan.chains) - len(fan.maximal_cones)]
    held = {c: new.get(c, cone) for c, cone in records(fan).items()}
    return Fan(fan.spec, fan.rays, {c: cone for c, cone in held.items() if cone is not None}, lambda: faces)


def bent(fan):
    """The fan with the last ray of one maximal cone moved off its place,
    the rays kept independent, and that cone's chain: the cone now
    disagrees with its faces and neighbours."""
    cone = fan.maximal_cones[1]
    *head, last = cone.rays
    moved = tuple(x + y for x, y in zip(last, fan.maximal_cones[-1].rays[0]))
    chain = Chain._trusted(cone.label)
    return chain, with_cones(fan, {chain: Cone((*head, moved), cone.label)})


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2)])
def test_a_perturbed_ray_fails_the_same_pairs_in_both_versions(r, n):
    fan = fan_of(r, n)
    pairs = law_pairs(fan)
    chain, broken = bent(fan)
    cones = cone_table(broken)
    failures = law_failures(cones, pairs)
    # one memo for all the pairs, or a fresh one per pair: the same failures
    assert failures == [(a, b) for a, b in pairs if not per_pair_law(cones, a, b)]
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
    top = Chain._trusted(fan.maximal_cones[0].label)
    ray = fan.maximal_cones[0].rays[0]
    repeated = with_cones(fan, {top: Cone((ray, ray), top.prefixes)})
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


def test_a_zero_ray_face_fails_the_law_on_the_pairs_that_meet_it():
    # a face has no record, so no fan holds a zero-ray face; planted in the
    # law's cone table at (3, 2), the law, which tests membership in no
    # cone of dependent rays, fails exactly the pairs that meet it
    cones = cone_table(fan_of(3, 2))
    face = next(c for c in cones if c.length == 1)
    cones[face] = Cone(((0,) * 4,), face.prefixes)
    pairs = law_pairs(fan_of(3, 2))
    assert len(pairs) == 1156
    failing = [(a, b) for a, b in pairs if face in (a, b, chain_intersect(a, b))]
    assert failing and law_failures(cones, pairs) == failing


def test_the_fan_suite_eliminates_the_maximal_cones_alone(monkeypatch):
    # 162 = 3! 3^3 maximal cones of the 442 cones at (3, 3)
    calls = []
    for module in (linalg, selfcheck):
        monkeypatch.setattr(module, "lattice_pivots", lambda rows: calls.append(rows) or lattice_pivots(rows))
    status, out = run(build_parser().parse_args(["check", "--r", "3", "--n", "3", "--suite", "fan"]))
    assert status == 0 and out.endswith("6/6 checks passed for r=3, n=3\n")
    fan = fan_of(3, 3)
    assert len(calls) == 162 == len(fan.maximal_cones) and len(fan.chains) == 442


def built_labels(monkeypatch, argv):
    """The label of every ``Cone`` the command builds, in order, and its
    exit status."""
    built = []
    init = Cone.__init__

    def recording(self, rays, label):
        built.append(label)
        init(self, rays, label)

    monkeypatch.setattr(Cone, "__init__", recording)
    status, _ = run(build_parser().parse_args(argv))
    monkeypatch.undo()
    return built, status


@pytest.mark.parametrize(
    "argv,stellar",
    [(["check", "--suite", "fan"], True), (["check"], True), (["fan", "--via-stellar"], True), (["fan"], False)],
)
def test_the_fan_commands_build_no_face_record(monkeypatch, argv, stellar):
    # at (3, 3): a record per maximal chain, 162, and on the stellar route
    # tau, the singleton cone of each of the 54 non-singleton subsets, which
    # its subdivision tests the new ray in; a face is its chain alone
    spec = ArrangementSpec(3, 3)
    built, status = built_labels(monkeypatch, [argv[0], "--r", "3", "--n", "3", *argv[1:]])
    assert status == 0
    chains = [label for label in built if [d.size for d in label] == [1, 2, 3]]
    taus = [frozenset(label) for label in built if len(label) > 1 and {d.size for d in label} == {1}]
    assert len(chains) == len(set(chains)) == 162 == spec.num_maximal_chains
    assert len(built) == len(chains) + len(taus)
    expected = {
        frozenset(DecoratedSubset((item,)) for item in d.items)
        for d in BuildingSet.maximal(spec).elements
        if d.size > 1
    }
    assert len(taus) == len(set(taus)) == (54 if stellar else 0) and len(expected) == 54
    assert set(taus) == (expected if stellar else set())


@pytest.mark.parametrize("n,pairs", [(1, 9), (2, 289), (3, 21609)])
def test_the_law_holds_on_every_pair_of_cones_at_r_2(n, pairs):
    # the cross-check of the wall certificate, which decides the law in
    # ``check`` at r = 2
    fan = fan_of(2, n)
    chains = list(enumerate_chains(fan.spec, n))
    assert len(chains) ** 2 == pairs
    assert law_failures(cone_table(fan), itertools.product(chains, chains)) == []


def test_the_law_holds_where_no_line_checks_it_and_the_fan_suite_draws_nothing(monkeypatch):
    # the specs where the law line ran last, the reference called directly
    for r, n in [(2, 0), (3, 0), (3, 1), (3, 2), (4, 2)]:
        fan = fan_of(r, n)
        chains = list(enumerate_chains(fan.spec, n))
        assert law_failures(cone_table(fan), itertools.product(chains, chains)) == []
    # at every spec the fan suite draws no random number and prints no law line
    monkeypatch.setattr(Lcg, "below", None)
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


def test_a_maximal_record_given_a_wrong_independent_ray_fails_the_stellar_line_alone(monkeypatch):
    fan = fan_of(2, 2)
    chain = parse_chain("{1:1}<{1:1,2:0}", fan.spec)
    cone = records(fan)[chain]
    assert cone.rays == ((1, 0), (1, -1))
    # (0, 1) is the ray of {2:1}: the record stays a lattice basis on the
    # far side of its inner wall, so the rank, lattice and wall lines pass,
    # and fans_equal, which reads chains and the ray table, sees nothing;
    # only the tie of the record to its chain sees it
    moved = with_cones(fan, {chain: Cone(((0, 1), (1, -1)), cone.label)})
    assert fans_equal(moved, fan)
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: moved)
    status, out = run(build_parser().parse_args(["check", "--r", "2", "--n", "2", "--suite", "fan"]))
    assert status == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL [fan] stellar route equals direct route (8 maximal cones, 1 not on their chain's rays, first {chain.text()})"
    ]
    assert out.endswith("5/6 checks passed for r=2, n=2\n")


def test_two_maximal_records_that_swap_chains_fail_the_stellar_line_alone(monkeypatch):
    fan = fan_of(2, 2)
    one, two = parse_chain("{1:0}<{1:0,2:0}", fan.spec), parse_chain("{2:1}<{1:0,2:1}", fan.spec)
    held = records(fan)
    # each record keeps its own label and rays, so fans_equal, the rank,
    # lattice and wall lines pass; only the tie of each record to its chain
    # sees the swap
    swapped = with_cones(fan, {one: held[two], two: held[one]})
    assert fans_equal(swapped, fan)
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: swapped)
    status, out = run(build_parser().parse_args(["check", "--r", "2", "--n", "2", "--suite", "fan"]))
    assert status == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL [fan] stellar route equals direct route (8 maximal cones, 2 not on their chain's rays, first {one.text()})"
    ]
    assert out.endswith("5/6 checks passed for r=2, n=2\n")
    # the same records given each other's rays under their own labels
    relabelled = with_cones(
        fan, {one: Cone(held[two].rays, one.prefixes), two: Cone(held[one].rays, two.prefixes)}
    )
    line, status = fan_suite_line(monkeypatch, relabelled, "stellar route equals direct route")
    assert (line.status, line.detail, status) == ("FAIL", f"8 maximal cones, 2 not on their chain's rays, first {one.text()}", 1)


@pytest.mark.parametrize("r,n", [(2, 3), (3, 2)])
def test_the_stellar_line_builds_no_record_and_reads_no_face(monkeypatch, r, n):
    # the stellar route is compared by its maximal label sets and ray table,
    # so neither its Fan nor its cones' records are built; the direct fan's
    # chains are never read, so no face is enumerated, and the tie reads the
    # maximal records by their chains
    fan = fan_of(r, n)
    faces = []
    unread = Fan(fan.spec, fan.rays, fan._maximal, lambda: faces.append(1) or [])
    chains, reads = Fan.__dict__["chains"], []
    monkeypatch.setattr(Fan, "chains", property(lambda self: reads.append(self) or chains.func(self)))

    def refuse(*args, **kwargs):
        raise AssertionError("the check built the stellar route's records")

    monkeypatch.setattr(Fan, "from_chains", refuse)
    monkeypatch.setattr("cyclic_wonderful.fan.build_fan_stellar", refuse)
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: unread)
    lines = suite_fan(fan.spec)
    assert [res.status for res in lines] == ["PASS"] * len(lines)
    assert "cone intersection law" not in [res.name for res in lines]
    assert reads == [] and faces == []


def test_a_label_given_another_ray_in_every_cone_fails_the_stellar_line(monkeypatch):
    fan = fan_of(2, 2)
    label = parse_subset("{1:0}", fan.spec)
    # every maximal record keeps the ray table's rays of its chain, so the
    # tie holds and the label sets are equal: only the stellar route's ray
    # table sees it
    rays = {**fan.rays, label: (-2, 1)}
    moved = Fan.from_chains(fan.spec, rays, fan.chains)
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
    cones = cone_table(fan)
    assert per_pair_law(cones, a, b)
    cone = cones[meet]
    cones[meet] = Cone((*cone.rays, fan.rays[parse_subset("{2:2}", spec)]), cone.label)
    assert not per_pair_law(cones, a, b)


def test_tropical_suite_embeds_each_curve_once(monkeypatch):
    calls = []
    embed = tropical.embed

    def counted(curve, spec):
        calls.append(curve)
        return embed(curve, spec)

    monkeypatch.setattr(tropical, "embed", counted)
    results = suite_tropical(ArrangementSpec(3, 2))
    assert [res.status for res in results] == ["PASS"] * 3
    # the n r = 6 unit curves, the 2^n = 4 representatives and their images
    # under the 2 generators, each once in its line (the unit curve of e_1^0
    # is also the barycentric curve of {1:0}, once in each line)
    assert len(calls) == 6 + 4 + 2 * 4


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
    return with_cones(fan, {Chain._trusted(old.label): Cone(rays, old.label)})


def test_a_missing_maximal_cone_leaves_its_walls_one_coface(monkeypatch):
    fan = fan_of(2, 3)
    gone = [c for c in fan.chains if c.length == 3][20]
    holed = with_cones(fan, {gone: None})
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
    crowded = with_cones(fan, {Chain._trusted(last.label): Cone(other.rays, other.label)})
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
    assert law_failures(cone_table(fan), itertools.product(chains, chains)) == []


@pytest.mark.parametrize("r,n,walls", [(3, 1, 1), (3, 2, 15), (4, 2, 24), (3, 3, 216), (4, 3, 480), (4, 4, 10752)])
def test_every_wall_passes_at_r_above_2(r, n, walls):
    # n! r^n maximal cones, each with n - 1 inner walls shared by two and
    # one boundary wall shared by r
    fan = fan_of(r, n)
    assert walls * 2 * r == math.factorial(n) * r**n * ((n - 1) * r + 2)
    assert wall_failures(fan) == (walls, [])
    assert selfcheck._rays_off_their_charts(fan) == []


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
    chain = [c for c in fan.chains if c.length == 3][4]
    below, top = chain.prefixes[-2:]
    ((m, a),) = set(top.items) - set(below.items)
    cone = records(fan)[chain]
    # the cone of the chart's coordinate face: in the chart, of rank 3 and
    # unimodular, but not its chain's cone
    moved = with_cones(fan, {chain: Cone((*cone.rays[:-1], fan.rays[parse_subset(f"{{{m}:{a}}}", fan.spec)]), cone.label)})
    walls, failed = wall_failures(moved)
    assert walls == 216 and failed == [chain.prefixes[:1] + chain.prefixes[2:]]
    assert failing_lines(monkeypatch, moved) == ([STELLAR, NOT_COMPLETE], 1)


def test_a_lost_maximal_cone_fails_its_inner_and_boundary_walls(monkeypatch):
    fan = fan_of(3, 3)
    gone = [c for c in fan.chains if c.length == 3][7]
    holed = with_cones(fan, {gone: None})
    walls, failed = wall_failures(holed)
    # two inner walls left one coface, the boundary wall r - 1
    assert walls == 216 and set(failed) == facets(gone) and len(failed) == 3
    assert failing_lines(monkeypatch, holed) == ([COUNT, STELLAR, NOT_COMPLETE], 1)


@pytest.mark.parametrize("r,n,fails", [(3, 2, [STELLAR]), (3, 3, [STELLAR, NOT_COMPLETE])])
def test_two_maximal_cones_that_swap_rays_fail_the_tie(monkeypatch, r, n, fails):
    fan = fan_of(r, n)
    held = records(fan)
    a, b = list(held)[0], list(held)[-1]
    swapped = with_cones(fan, {a: Cone(held[b].rays, a.prefixes), b: Cone(held[a].rays, b.prefixes)})
    # the walls assume the tie, which the stellar line checks; at (3, 2)
    # the swapped cones' walls happen to pass
    assert failing_lines(monkeypatch, swapped) == (fails, 1)


def test_a_boundary_wall_whose_cofaces_repeat_a_residue_fails(monkeypatch):
    fan = fan_of(3, 3)
    held = records(fan)
    one = next(iter(held))
    other = next(c for c in held if c != one and c.prefixes[:-1] == one.prefixes[:-1])
    # the other coface of the boundary wall becomes a copy of the first, so
    # its top prefix adds the same residue
    repeated = with_cones(fan, {other: held[one]})
    walls, failed = wall_failures(repeated)
    assert walls == 216 and one.prefixes[:-1] in failed
    assert failing_lines(monkeypatch, repeated) == ([STELLAR, NOT_COMPLETE], 1)
    # a top prefix that adds the missing factor 1 at the residue it had but
    # changes factor 2's: the residues stay distinct, but it adds no one
    # factor to the wall's top prefix
    spec = fan.spec
    chain = parse_chain("{2:0}<{2:0,3:0}<{1:0,2:0,3:0}", spec)
    stray = (*chain.prefixes[:-1], parse_subset("{1:0,2:1,3:0}", spec))
    relabelled = with_cones(fan, {chain: Cone(held[chain].rays, stray)})
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
    assert law_failures(cone_table(fan), itertools.product(chains, chains)) == []
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


def stellar_changed(monkeypatch, change):
    """Let ``change`` rewrite the stellar route's maximal label sets and ray
    table before the fan suite compares them."""
    stellar = selfcheck._stellar_labels
    monkeypatch.setattr(selfcheck, "_stellar_labels", lambda spec, g: change(*stellar(spec, g)))


def test_a_maximal_set_swapped_for_a_non_chain_fails_the_stellar_line_alone(monkeypatch):
    # {1:0} < {1:0,2:0} gives way to {1:0} and {1:1}, two labels, as many as
    # a maximal cone's, that clash at factor 1: the counts stay equal
    fan = fan_of(3, 2)
    spec = fan.spec
    gone = frozenset(parse_chain("{1:0}<{1:0,2:0}", spec).prefixes)
    stray = frozenset({parse_subset("{1:0}", spec), parse_subset("{1:1}", spec)})
    assert not is_nested(stray, BuildingSet.maximal(spec))

    def swap(cones, rays):
        assert gone in cones
        return (cones - {gone}) | {stray}, rays

    stellar_changed(monkeypatch, swap)
    assert failing_lines(monkeypatch, fan) == ([STELLAR], 1)


def test_a_bent_entry_of_the_stellar_ray_table_fails_the_stellar_line_alone(monkeypatch):
    # bent after the subdivisions, so the route runs to its end; the direct
    # fan keeps its own ray table, so the chart reading passes
    fan = fan_of(3, 2)
    label = parse_subset("{1:1,2:1}", fan.spec)
    stellar_changed(monkeypatch, lambda cones, rays: (cones, {**rays, label: (1, 1, 0, 1)}))
    assert failing_lines(monkeypatch, fan) == ([STELLAR], 1)


@pytest.mark.parametrize("replaced", [False, True])
def test_a_stellar_set_of_fewer_than_n_labels_fails_the_stellar_line_alone(monkeypatch, replaced):
    # a face of a maximal cone, added beside it or in its place: the route
    # must hand over maximal cones only
    fan = fan_of(3, 2)
    whole = frozenset(parse_chain("{1:0}<{1:0,2:0}", fan.spec).prefixes)
    face = frozenset({parse_subset("{1:0}", fan.spec)})

    def with_face(cones, rays):
        return (cones - {whole} if replaced else cones) | {face}, rays

    stellar_changed(monkeypatch, with_face)
    assert failing_lines(monkeypatch, fan) == ([STELLAR], 1)


def test_a_face_the_direct_enumerator_loses_fails_the_census_line_not_the_fan_suite(monkeypatch):
    # the fan suite reads no face, so the condition it takes for the faces
    # ``fan`` prints, that the direct route lists exactly the subsets of its
    # maximal chains, is the census line's, which counts the same enumerator
    spec = ArrangementSpec(3, 2)
    lost = parse_chain("{1:0}", spec)
    chains_of_length = lattice._chains_of_length

    def losing(spec, table, length):
        return (chain for chain in chains_of_length(spec, table, length) if chain != lost)

    monkeypatch.setattr(lattice, "_chains_of_length", losing)
    monkeypatch.setattr(fan_module, "_chains_of_length", losing)
    assert lost not in build_fan(spec, BuildingSet.maximal(spec)).chains
    status, out = run(build_parser().parse_args(["check", "--r", "3", "--n", "2"]))
    fails = [line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert (fails, status) == (["FAIL [chow] jump census matches multinomial counts"], 1)


# --- the work one ``check`` run shares ------------------------------------------


def test_one_check_run_builds_one_direct_fan_in_the_fan_suite(monkeypatch):
    built, scanned = [], []
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: built.append(build_fan(spec, g)) or built[-1])
    locate = selfcheck.locate_point
    monkeypatch.setattr(selfcheck, "locate_point", lambda fan, p: scanned.append(fan) or locate(fan, p))
    status, out = run(build_parser().parse_args(["check", "--r", "3", "--n", "2", "--seed", "5"]))
    assert status == 0 and out.endswith("17/17 checks passed for r=3, n=2\n")
    (fan,) = built
    # the fan suite's witness scan, and none in the tropical suite
    assert scanned == [fan]
    built.clear()
    assert all(res.status == "PASS" for res in suite_fan(ArrangementSpec(3, 2)))
    assert len(built) == 1
    built.clear()
    assert all(res.status == "PASS" for res in suite_tropical(ArrangementSpec(3, 2)))
    assert built == []


def test_the_fan_suites_fan_is_gone_before_the_other_suites_run(monkeypatch):
    refs, ran = [], []

    def build(spec, g):
        fan = build_fan(spec, g)
        refs.append(weakref.ref(fan))
        return fan

    monkeypatch.setattr(selfcheck, "build_fan", build)
    for name in ("chow", "tropical", "normal"):
        suite = getattr(selfcheck, f"suite_{name}")

        def after_the_fan(spec, suite=suite, name=name):
            gc.collect()
            assert [ref() for ref in refs] == [None]
            ran.append(name)
            return suite(spec)

        monkeypatch.setattr(selfcheck, f"suite_{name}", after_the_fan)
    spec = ArrangementSpec(2, 2)
    results = selfcheck.run_suites(spec)
    assert ran == ["chow", "tropical", "normal"] and len(refs) == 1
    # the results are each suite's, in the order asked for
    monkeypatch.undo()
    assert results == [res for name in selfcheck.SUITES for res in getattr(selfcheck, f"suite_{name}")(spec)]


def test_a_refused_fan_suite_leaves_the_tropical_suite_its_own_skip(monkeypatch):
    monkeypatch.setenv("CYCLIC_WONDERFUL_MAX_CELLS", "10")
    status, out = run(build_parser().parse_args(["check", "--r", "2", "--n", "2"]))
    refusal = "fan with 8 rays and 8 maximal cones exceeds the guard bound 10 (override with CYCLIC_WONDERFUL_MAX_CELLS)"
    assert (status, out) == (
        0,
        f"SKIP [fan] fan construction ({refusal})\n"
        f"SKIP [chow] presentation and chain census ({refusal})\n"
        f"SKIP [tropical] fan-suite chart reading and wall certificate, which its argument takes, not checked ({refusal})\n"
        "PASS [normal] one cell per maximal chain (8 cells)\n"
        "PASS [normal] origin is a vertex of every cell\n"
        "PASS [normal] cells tile the truncated support: each cell is its maximal cone's part of it, read on the chain's rays (8 cells, 0 failures)\n"
        "PASS [normal] union extremes are the signed permutations of (1, 2) (8 extreme points)\n"
        "4/7 checks passed, 3 skipped for r=2, n=2\n",
    )


# --- the tropical suite's exact lines -------------------------------------------

UNIT = "unit curves: embed puts each e_i^l at its chart slot"
REPRESENTATIVES = (
    "orbit representatives: each barycentric curve has its chain as type, round-trips and embeds to its ray sum"
)
GENERATORS = "generators of Z/r wr S_n commute with embed, type and curve_from_point on the representatives"


@pytest.mark.parametrize("r,n", [(3, 2), (2, 3)])
def test_check_prints_the_same_bytes_for_every_seed(monkeypatch, r, n):
    # and draws no random number: every draw goes through ``Lcg.below``
    monkeypatch.setattr(Lcg, "below", None)
    argv = f"check --r {r} --n {n} --seed".split()
    outputs = {run(build_parser().parse_args([*argv, str(seed)])) for seed in (0, 12)}
    (output,) = outputs
    assert output[0] == 0 and "FAIL" not in output[1]


@pytest.mark.parametrize("r,n", [(2, 0), (3, 1), (3, 2), (2, 3), (4, 3), (2, 6), (3, 5), (4, 4)])
def test_the_tropical_lines_pass_up_to_the_guards_edge(r, n):
    results = suite_tropical(ArrangementSpec(r, n))
    assert [(res.name, res.status) for res in results] == [(UNIT, "PASS"), (REPRESENTATIVES, "PASS"), (GENERATORS, "PASS")]
    assert results[0].detail == f"{n * r} curves"
    assert results[1].detail == f"{2**n} chains, one per set of prefix sizes"
    assert results[2].detail == f"{n} generators on {2**n} chains"


def barycentre(chain, spec):
    """The chain's barycentric curve, written here from its definition:
    orbit i of the top prefix on spoke -a(i), as far out as the number of
    prefixes that hold it."""
    spokes, lengths = [CENTER] * spec.n, [0] * spec.n
    for i, a in chain.decoration:
        spokes[i - 1] = -a % spec.r
    for d in chain.prefixes:
        for i in d.indices:
            lengths[i - 1] += 1
    return TropicalCurve.of(spokes, lengths)


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4)])
def test_every_chains_barycentric_curve_has_it_as_type_round_trips_and_embeds_to_its_ray_sum(r, n):
    # the per-chain line the certificate stands for: every chain, faces
    # included, read against the built fan's ray table
    fan = fan_of(r, n)
    spec = fan.spec
    chains = list(enumerate_chains(spec, n))
    assert len(chains) == len(fan.chains)
    for chain in chains:
        curve = barycentre(chain, spec)
        point = tropical.embed(curve, spec)
        assert tropical.combinatorial_type(curve, spec) == chain
        assert tropical.curve_from_point(point, spec) == curve
        rays = [fan.rays[d] for d in chain.prefixes]
        assert point == (tuple(map(sum, zip(*rays))) if rays else (0,) * spec.ambient_dim)


def tropical_failures(r, n):
    """The exit status of ``check --suite tropical`` and the names of the
    lines it fails."""
    status, out = run(build_parser().parse_args(["check", "--r", str(r), "--n", str(n), "--suite", "tropical"]))
    return status, [line[len("FAIL [tropical] ") :].split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")]


def test_a_unit_curve_placed_at_the_wrong_slot_fails_the_unit_line_alone(monkeypatch):
    # orbit 2 on spoke 1 is written at spoke 2's slot: no representative,
    # and no generator's image of one, puts orbit 2 on spoke 1
    support_point = tropical.support_point

    def misplaced(spec, decomposition):
        pairs = list(decomposition)
        if pairs[1][1] == 1:
            pairs[1] = (pairs[1][0], 2)
        return support_point(spec, pairs)

    monkeypatch.setattr(tropical, "support_point", misplaced)
    assert tropical_failures(3, 2) == (1, [UNIT])
    assert suite_tropical(ArrangementSpec(3, 2))[0].detail == "6 curves, 1 off their slot, first e_2^1"


def test_a_type_that_flips_one_decorations_sign_fails_the_generator_line_alone(monkeypatch):
    # -a and a agree on residue 0, every representative's, so only the
    # shift of factor 1 shows the flip
    combinatorial_type = tropical.combinatorial_type

    def flipped(curve, spec):
        spokes = list(curve.spokes)
        if spokes[0] is not CENTER:
            spokes[0] = -spokes[0] % spec.r
        return combinatorial_type(TropicalCurve._trusted(tuple(spokes), curve.lengths), spec)

    monkeypatch.setattr(tropical, "combinatorial_type", flipped)
    assert tropical_failures(3, 2) == (1, [GENERATORS])


@pytest.mark.parametrize("r,n,failed", [(3, 1, [REPRESENTATIVES]), (3, 2, [REPRESENTATIVES, GENERATORS])])
def test_a_curve_from_point_that_drops_a_factor_fails_the_representatives_line(monkeypatch, r, n, failed):
    # at n >= 2 the swap that moves factor n sees it too: a map that forgets
    # one factor does not commute with the swap that moves it
    curve_from_point = tropical.curve_from_point

    def dropped(point, spec):
        curve = curve_from_point(point, spec)
        return TropicalCurve._trusted(curve.spokes[:-1] + (CENTER,), curve.lengths[:-1] + (Fraction(0),))

    monkeypatch.setattr(tropical, "curve_from_point", dropped)
    assert tropical_failures(r, n) == (1, failed)


def test_a_residue_shift_that_is_not_linear_fails_the_generator_line_alone(monkeypatch):
    # residues 1 and 2 both go to 2: the lattice map that the shift's slots
    # define sends e_1^0 to -2 e_1^1, not to e_1^2, the ray of its label
    generators = selfcheck.symmetry_generators

    def bent(spec):
        *swaps, shift = generators(spec)
        return [*swaps, type(shift)(shift.perm, ((1, 2, 2), *shift.residues[1:]))]

    monkeypatch.setattr(selfcheck, "symmetry_generators", bent)
    assert tropical_failures(3, 2) == (1, [GENERATORS])
