"""JSON encodings shared by the command-line front end.

Conventions: rationals serialize as ``"p/q"`` strings (plain ``"p"`` when
the denominator is 1); integers inside vectors stay JSON numbers unless
they exceed 64 bits, in which case they become decimal strings.  Both rules
keep the wire format exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .fan import Cone, Fan, basis_labels, ray_vector
from .lattice import ArrangementSpec, DecoratedSubset, parse_chain, parse_subset

_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)


def encode_int(x: int) -> int | str:
    return x if _I64_MIN <= x <= _I64_MAX else str(x)


def encode_fraction(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def encode_vector(vec: Sequence[int]) -> list:
    return [encode_int(int(x)) for x in vec]


def fan_to_dict(fan: Fan) -> dict:
    subsets = sorted(fan.rays, key=DecoratedSubset.sort_key)
    ids = {d: k for k, d in enumerate(subsets)}
    rays = [
        {"id": ids[d], "subset": d.text(), "vector": encode_vector(fan.rays[d])}
        for d in subsets
    ]
    cones = []
    for label in sorted(fan.cones, key=lambda s: sorted(d.sort_key() for d in s)):
        cone = fan.cones[label]
        ray_ids = sorted(ids[d] for d in cone.label)
        cones.append(
            {"dim": cone.dim, "ray_ids": ray_ids, "chain": cone.chain().text()}
        )
    cones.sort(key=lambda c: (c["dim"], c["ray_ids"]))
    return {
        "r": fan.spec.r,
        "n": fan.spec.n,
        "basis": basis_labels(fan.spec),
        "rays": rays,
        "cones": cones,
    }


def fan_from_dict(data: dict) -> Fan:
    """Rebuild a fan from its JSON dictionary (inverse of fan_to_dict)."""
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
        label = tuple(
            sorted(
                (subsets_by_id[int(k)] for k in entry["ray_ids"]),
                key=DecoratedSubset.sort_key,
            )
        )
        cone = Cone(tuple(rays[d] for d in label), label)
        declared = parse_chain(entry["chain"], spec)
        if frozenset(declared.prefixes()) != frozenset(label):
            raise ValueError(f"cone chain {entry['chain']!r} does not match ray ids")
        cones[frozenset(label)] = cone
    return Fan(spec, rays, cones)
