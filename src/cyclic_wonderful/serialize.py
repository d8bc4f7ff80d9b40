"""JSON encodings shared by the command-line front end.

Conventions: rationals serialize as ``str(Fraction)``, the ``"p/q"`` string
(plain ``"p"`` when the denominator is 1), and integers stay JSON numbers.
Both rules keep the wire format exact.
"""

from __future__ import annotations

from .fan import Cone, Fan, basis_labels, ray_vector
from .lattice import ArrangementSpec, Chain, DecoratedSubset, parse_chain, parse_subset


def fan_to_dict(fan: Fan) -> dict:
    subsets = sorted(fan.rays, key=DecoratedSubset.sort_key)
    ids = {d: k for k, d in enumerate(subsets)}
    rays = [
        {"id": ids[d], "subset": d.text(), "vector": list(fan.rays[d])}
        for d in subsets
    ]
    cones = [
        {"dim": cone.dim, "ray_ids": sorted(ids[d] for d in cone.label), "chain": chain.text()}
        for chain, cone in fan.cones.items()
    ]
    # distinct cones have distinct ray sets, so this order is total
    cones.sort(key=lambda c: (c["dim"], c["ray_ids"]))
    return {
        "r": fan.spec.r,
        "n": fan.spec.n,
        "basis": basis_labels(fan.spec),
        "rays": rays,
        "cones": cones,
    }


def fan_from_dict(data: dict) -> Fan:
    """Rebuild a fan from its JSON dictionary (inverse of fan_to_dict).

    No command calls it; it stays as the reference the tests round-trip the
    ``fan --format json`` output through.
    """
    spec = ArrangementSpec(int(data["r"]), int(data["n"]))
    subsets_by_id: dict[int, DecoratedSubset] = {}
    rays: dict[DecoratedSubset, tuple[int, ...]] = {}
    for entry in data["rays"]:
        d = parse_subset(entry["subset"], spec)
        vec = tuple(int(x) for x in entry["vector"])
        if vec != ray_vector(d, spec):
            raise ValueError(f"ray vector for {d.text()} does not match its subset")
        subsets_by_id[int(entry["id"])] = d
        rays[d] = vec
    cones = {}
    for entry in data["cones"]:
        chain = Chain.from_prefixes(subsets_by_id[int(k)] for k in entry["ray_ids"])
        if parse_chain(entry["chain"], spec) != chain:
            raise ValueError(f"cone chain {entry['chain']!r} does not match ray ids")
        cones[chain] = Cone(tuple(rays[d] for d in chain.prefixes), chain.prefixes)
    return Fan.from_cones(spec, rays, cones.items())
