"""The intersection law behind ``check``'s fan suite, and the work the fan
and tropical suites do."""

import itertools

import pytest

from cyclic_wonderful import tropical
from cyclic_wonderful.fan import Cone, Fan, build_fan
from cyclic_wonderful.lattice import (
    ArrangementSpec,
    BuildingSet,
    chain_intersect,
    enumerate_chains,
)
from cyclic_wonderful.sampling import Lcg
from cyclic_wonderful.selfcheck import (
    intersection_law_failures,
    suite_fan,
    suite_tropical,
)


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


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2)])
def test_a_perturbed_ray_fails_the_same_pairs_in_both_versions(r, n):
    fan = fan_of(r, n)
    pairs = law_pairs(fan)
    # move the last ray of one maximal cone off its place, keeping the rays
    # independent: the cone now disagrees with its faces and neighbours
    cone = fan.maximal_cones[1]
    *head, last = cone.rays
    bent = tuple(x + y for x, y in zip(last, fan.maximal_cones[-1].rays[0]))
    chain = next(c for c, k in fan.cones.items() if k is cone)
    broken = Fan(fan.spec, fan.rays, {**fan.cones, chain: Cone((*head, bent), cone.label)})
    failures = intersection_law_failures(broken, pairs)
    assert failures == reference_failures(broken, pairs)
    assert failures and all(chain in pair for pair in failures)


def test_each_distinct_cone_point_test_runs_once(monkeypatch):
    fan = fan_of(3, 2)
    distinct = set()
    for a, b in law_pairs(fan):
        per_pair_law(fan, a, b, lambda cone, p: distinct.add((cone.label, p)) or cone.contains(p))
    calls = []
    contains = Cone.contains

    def counted(self, point):
        calls.append((self.label, point))
        return contains(self, point)

    monkeypatch.setattr(Cone, "contains", counted)
    results = suite_fan(ArrangementSpec(3, 2), seed=5)
    law = next(res for res in results if res.name == "cone intersection law")
    assert (law.status, law.detail) == ("PASS", "1156 pairs checked, 0 failures")
    # every Cone.contains of the suite is the law's, one per distinct test
    assert len(calls) == len(set(calls)) == len(distinct) == 1122
    assert set(calls) == distinct


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
