"""The intersection law and the wall certificate behind ``check``'s fan
suite, and the work the fan and tropical suites do."""

import itertools
import math

import pytest

from cyclic_wonderful import selfcheck, tropical
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
from cyclic_wonderful.linalg import SharedRowIndex
from cyclic_wonderful.sampling import Lcg
from cyclic_wonderful.selfcheck import (
    intersection_law_failures,
    suite_fan,
    suite_tropical,
    wall_failures,
)

COMPLETE = "complete for r = 2, cones meeting in common faces: every wall has two maximal cones on opposite sides"
NOT_COMPLETE = "not complete for r > 2: e_1^1 + e_1^2 lies in no cone"


def per_pair_law(fan, a, b, contains=None):
    """The law decided for one pair, testing every (cone, point) it needs:
    the reference for the memoised ``intersection_law_failures``."""
    contains = contains or (lambda cone, p: cone.contains(p))
    expected = fan.cone(chain_intersect(a, b))
    cone_a, cone_b = fan.cone(a), fan.cone(b)
    if not all(contains(cone_a, g) and contains(cone_b, g) for g in expected.rays):
        return False
    for this, other in ((cone_a, cone_b), (cone_b, cone_a)):
        points = list(this.rays)
        if this.rays:
            points.append(tuple(map(sum, zip(*this.rays))))
        if any(contains(other, p) != contains(expected, p) for p in points):
            return False
    return True


def fan_of(r, n):
    spec = ArrangementSpec(r, n)
    return build_fan(spec, BuildingSet.maximal(spec))


def law_pairs(fan, seed=0):
    """The pairs ``suite_fan`` checks: all of them up to 2,500, else 1,000
    drawn by the suite's generator."""
    chains = list(enumerate_chains(fan.spec, fan.spec.n))
    if len(chains) ** 2 <= 2500:
        return list(itertools.product(chains, chains))
    rng = Lcg(seed)
    return [
        (chains[rng.below(len(chains))], chains[rng.below(len(chains))])
        for _ in range(1000)
    ]


def reference_failures(fan, pairs):
    return [(a, b) for a, b in pairs if not per_pair_law(fan, a, b)]


@pytest.mark.parametrize("r,n,seed", [(2, 2, 0), (3, 2, 0), (2, 3, 5), (3, 3, 1)])
def test_memoised_law_agrees_with_the_per_pair_law(r, n, seed):
    fan = fan_of(r, n)
    pairs = law_pairs(fan, seed)
    assert intersection_law_failures(fan, pairs) == reference_failures(fan, pairs) == []
    for a, b in pairs[:50]:
        assert intersection_law_failures(fan, [(a, b)]) == []


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
    failures = intersection_law_failures(broken, pairs)
    assert failures == reference_failures(broken, pairs)
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
    # a face whose ray is zero has rank 0: every line still prints
    fan = fan_of(2, 2)
    flat = flat_face(fan)
    face = next(c for c in fan.cones if c.length == 1)
    line, status = fan_suite_line(monkeypatch, flat, "cone dimension equals chain length")
    assert (line.status, line.detail, status) == ("FAIL", f"17 cones, 1 of another rank, first {face.text()}", 1)
    lines = {res.name: res for res in suite_fan(spec)}
    assert list(lines) == list(passing)
    assert lines[COMPLETE].status == "PASS"
    # at (3, 2), where the law still runs, the law, which would eliminate
    # that cone, fails its pairs
    flat = flat_face(fan_of(3, 2))
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: flat)
    lines = {res.name: res for res in suite_fan(flat.spec)}
    face = next(c for c in flat.cones if c.length == 1)
    assert lines["cone dimension equals chain length"].status == "FAIL"
    law = lines["cone intersection law"]
    failing = sum(face in (a, b, chain_intersect(a, b)) for a, b in law_pairs(flat))
    assert (law.status, law.detail) == ("FAIL", f"1156 pairs checked, {failing} failures")
    assert lines[NOT_COMPLETE].status == "PASS"
    # a maximal cone that repeats a ray is flat too: the scan, which would
    # eliminate it, is not run, and its line fails
    fan = fan_of(2, 2)
    top = next(c for c in fan.cones if c.length == 2)
    ray = fan.cones[top].rays[0]
    cones = {**fan.cones, top: Cone((ray, ray), top.prefixes)}
    repeated = Fan.from_cones(spec, fan.rays, cones.items())
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: repeated)
    lines = {res.name: res for res in suite_fan(spec)}
    assert list(lines) == list(passing)
    assert lines["cone dimension equals chain length"].detail == (
        f"17 cones, 1 of another rank, first {top.text()}"
    )
    assert lines[COMPLETE].detail == (
        f"not run, first flat maximal cone {top.text()}"
    )
    assert [res.status for res in lines.values()] == ["PASS", "PASS", "FAIL", "FAIL", "FAIL", "FAIL"]
    status, out = run(build_parser().parse_args(["check", "--r", "2", "--n", "2", "--suite", "fan"]))
    assert status == 1
    assert out.count("FAIL [fan]") == 4 and out.endswith("2/6 checks passed for r=2, n=2\n")


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
    assert intersection_law_failures(fan, itertools.product(chains, chains)) == []


def test_the_law_line_runs_only_where_no_wall_certificate_runs(monkeypatch):
    for r, n in [(2, 0), (3, 0), (3, 1), (3, 2), (4, 2)]:
        assert "cone intersection law" in [res.name for res in suite_fan(ArrangementSpec(r, n))]
    # at r = 2, n >= 1 the fan suite draws no random number
    monkeypatch.setattr(selfcheck, "Lcg", None)
    for n in (1, 2, 3, 4):
        names = [res.name for res in suite_fan(ArrangementSpec(2, n), seed=n)]
        assert names == [
            "ray count (1+r)^n - 1",
            "maximal cone count n! r^n",
            "stellar route equals direct route",
            "maximal cones unimodular",
            "cone dimension equals chain length",
            COMPLETE,
        ]
    outputs = {run(build_parser().parse_args(f"check --r 2 --n 3 --suite fan --seed {seed}".split())) for seed in (0, 12)}
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
    # direct fan's cones serves the stellar and lattice lines, and the law
    fan = fan_of(r, n)
    table = vars(fan)["cones"] = _PassCounter(fan.cones)

    def refuse(*args, **kwargs):
        raise AssertionError("the check built the stellar route's records")

    monkeypatch.setattr(Fan, "from_cones", refuse)
    monkeypatch.setattr("cyclic_wonderful.fan.build_fan_stellar", refuse)
    monkeypatch.setattr(selfcheck, "build_fan", lambda spec, g: fan)
    lines = suite_fan(fan.spec)
    assert [res.status for res in lines] == ["PASS"] * len(lines)
    assert ("cone intersection law" in [res.name for res in lines]) == (r != 2)
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
    assert intersection_law_failures(broken, [(a, b)]) == reference_failures(broken, [(a, b)]) == [(a, b)]


class _RecordingIndex(SharedRowIndex):
    """A shared-row index that records its members and every ``holding``."""

    def __init__(self, members, tests, log):
        super().__init__(members, tests)
        self.members, self.calls = list(members), []
        log.append(self)

    def holding(self, p, scale):
        mask = super().holding(p, scale)
        self.calls.append((p, scale, mask))
        return mask


def _record_indexes(monkeypatch):
    log = []
    monkeypatch.setattr(
        selfcheck, "SharedRowIndex", lambda members, tests: _RecordingIndex(members, tests, log)
    )
    return log


def test_each_distinct_cone_point_test_runs_once(monkeypatch):
    fan = fan_of(3, 2)
    distinct = set()
    for a, b in law_pairs(fan):
        per_pair_law(fan, a, b, lambda cone, p: distinct.add(p) or cone.contains(p))
    log = _record_indexes(monkeypatch)
    contains_calls = []
    monkeypatch.setattr(Cone, "contains", lambda self, p: contains_calls.append(p))
    results = suite_fan(ArrangementSpec(3, 2), seed=5)
    law = next(res for res in results if res.name == "cone intersection law")
    assert (law.status, law.detail) == ("PASS", "1156 pairs checked, 0 failures")
    monkeypatch.undo()
    # the law calls no Cone.contains: one index over the 34 chains, one
    # holding per distinct ray or ray-sum point, each an integer point
    assert contains_calls == []
    (index,) = log
    assert len(index.members) == len(set(map(id, index.members))) == 34
    points = [p for p, _, _ in index.calls]
    assert len(points) == len(set(points)) == len(distinct) == 33
    assert set(points) == distinct
    assert {scale for _, scale, _ in index.calls} == {1}
    for p, _, mask in index.calls:
        assert [bool(mask >> k & 1) for k in range(34)] == [c.contains(p) for c in index.members]
    # the rayless cone holds none of the law's points, but the origin, which
    # every cone holds
    rayless = next(k for k, c in enumerate(index.members) if not c.rays)
    assert not any(mask >> rayless & 1 for _, _, mask in index.calls)
    assert index.holding((0, 0, 0, 0), 1) == (1 << 34) - 1


def test_a_one_pair_call_registers_only_the_chains_it_meets(monkeypatch):
    fan = fan_of(2, 3)
    log = _record_indexes(monkeypatch)
    for a, b in law_pairs(fan, 5)[::97]:
        assert intersection_law_failures(fan, iter([(a, b)])) == []
        met = [fan.cone(c) for c in dict.fromkeys([a, b, chain_intersect(a, b)])]
        assert log.pop().members == met


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
    wall = one.label[:1]
    other = next(c for c in fan.maximal_cones if c is not one and c.label[:1] == wall)
    # the other coface's extra ray moved to the first coface's side of the
    # wall, the rays kept a lattice basis; every label is kept, so every
    # wall still has two cofaces
    inside = tuple(x + y for x, y in zip(one.rays[0], one.rays[1]))
    folded = with_cone(fan, other, (other.rays[0], inside))
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
    assert (line.status, line.detail, status) == ("PASS", "", 0)
    cone = fan.maximal_cones[7]
    # its first ray becomes e_1^1 + e_1^2; the second, with a nonzero
    # entry in factor 2's block, stays independent of it
    moved = with_cone(fan, cone, ((1, 1, 0, 0), cone.rays[1]))
    line, status = fan_suite_line(monkeypatch, moved, NOT_COMPLETE)
    ray = Chain._trusted(cone.label[:1]).text()
    assert (line.status, line.detail, status) == ("FAIL", f"it lies in the cone of {ray}", 1)


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
