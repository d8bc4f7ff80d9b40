"""Every JSON command's output against ``json.dumps(payload, indent=2)``.

The commands write their JSON record by record (``serialize.JsonWriter``)
and build no payload.  The builders below make the payload dicts the
commands printed through ``json.dumps`` before that, from the same library
calls, so the reference is the standard library's encoder on the old
payloads.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_wonderful import chow, normal_complex, tropical
from cyclic_wonderful.cli import build_parser, run
from cyclic_wonderful.fan import build_fan, build_fan_stellar, in_relative_interior, ray_vector
from cyclic_wonderful.guards import FeasibilityError, check_fan_spec
from cyclic_wonderful.lattice import ArrangementSpec, BuildingSet, DecoratedSubset
from cyclic_wonderful.serialize import fan_to_dict


def fan_payload(args):
    spec = ArrangementSpec(args.r, args.n)
    check_fan_spec(spec)
    g = BuildingSet.maximal(spec)
    return fan_to_dict(build_fan_stellar(spec, g) if args.via_stellar else build_fan(spec, g))


def chow_payload(args):
    spec = ArrangementSpec(args.r, args.n)
    check_fan_spec(spec)
    closed = chow.betti_closed_form(spec)
    try:
        oracle = chow.betti_oracle(spec)
    except FeasibilityError:
        if args.oracle:
            raise
        oracle = None
    rows = []
    for k, b in enumerate(closed):
        o = oracle[k] if oracle is not None else None
        rows.append({"k": k, "closed_form": b, "oracle": o, "match": (o == b) if o is not None else None})
    payload = {"r": spec.r, "n": spec.n, "betti": rows}
    if not args.betti_only:
        generators, relations = chow.presentation(spec)
        payload["generators"] = [d.text() for d in generators]
        payload["linear_relations"] = [
            {"i": i, "a": a, "b": b, "coefficients": {str(k): v for k, v in coeffs}}
            for (i, a, b), coeffs in relations.items()
        ]
        payload["reduced_relation_indices"] = [k for k, (_, a, _) in enumerate(relations) if a == 0]
    return payload


def locate_payload(args):
    spec = ArrangementSpec(args.r, args.n)
    check_fan_spec(spec)
    if args.curve is not None:
        curve = tropical.parse_curve(args.curve, spec)
        point = tropical.embed(curve, spec)
    else:
        parts = args.point.split(",") if args.point.strip() else []
        point = tuple(Fraction(part) for part in parts)
        curve = tropical.curve_from_point(point, spec)
    chain = None if curve is None else tropical.combinatorial_type(curve, spec)
    assert chain is None or in_relative_interior(chain, point, spec)
    return {
        "r": spec.r,
        "n": spec.n,
        "chain": chain.text() if chain is not None else None,
        "point": [str(x) for x in point],
        "in_support": chain is not None,
    }


def cells_payload(args):
    spec = ArrangementSpec(args.r, args.n)
    cells = normal_complex.complex_cells(spec).cells
    extremes = normal_complex.union_extreme_points(spec) if args.union_extremes else None
    payload = {
        "r": spec.r,
        "n": spec.n,
        "cells": [
            {
                "chain": cell.label.text(),
                "h_rep": [{"normal": [str(x) for x in normal], "bound": str(bound)} for normal, bound in cell.h_rep],
                "vertices": [[str(x) for x in v] for v in cell.v_rep],
            }
            for cell in cells
        ],
    }
    if extremes is not None:
        payload["union_extremes"] = [[str(x) for x in p] for p in extremes]
    return payload


PAYLOADS = {"fan": fan_payload, "chow": chow_payload, "locate": locate_payload, "normal-complex": cells_payload}


def reference(args):
    """The exit status and the text ``json.dumps`` gives the payload, or
    the refusal's line; chow exits 1 when a rank does not match."""
    try:
        payload = PAYLOADS[args.command](args)
    except FeasibilityError as exc:
        return 2, f"feasibility error: {exc}\n"
    except ValueError as exc:
        return 2, f"error: {exc}\n"
    status = 1 if any(row["match"] is False for row in payload.get("betti", [])) else 0
    return status, json.dumps(payload, indent=2) + "\n"


def json_commands(r, n):
    """Every JSON command and option at (r, n); ``locate`` at a point on
    the support (half a ray), one at 1, 2, 3, ... and, for n >= 1, a curve."""
    spec = ["--r", str(r), "--n", str(n), "--format", "json"]
    top = DecoratedSubset(tuple((i, 1) for i in range(1, n + 1)))
    ray = ray_vector(top, ArrangementSpec(r, n)) if n else ()  # R^0 has one point, ""
    points = [",".join(str(Fraction(x, 2)) for x in ray), ",".join(str(k) for k in range(1, len(ray) + 1))]
    commands = [
        ["fan"],
        ["fan", "--via-stellar"],
        ["chow"],
        ["chow", "--betti-only"],
        ["normal-complex"],
        ["normal-complex", "--union-extremes"],
        *(["locate", "--point", p] for p in points),
    ]
    if n >= 1:
        commands.append(["locate", "--curve", f"1:{r - 1}:3/2"])
    return [[*command, *spec] for command in commands]


def assert_matches_reference(argv):
    args = build_parser().parse_args(argv)
    assert run(args) == reference(args)


GRID = [(r, n) for r in range(2, 6) for n in range(4)] + [(40, 1)]


@pytest.mark.parametrize("r,n", GRID)
def test_every_json_command_prints_what_json_dumps_prints(monkeypatch, r, n):
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    for argv in json_commands(r, n):
        assert_matches_reference(argv)


def test_a_refused_oracle_prints_null_and_a_refused_command_its_line(monkeypatch):
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    assert_matches_reference(["chow", "--r", "10", "--n", "3", "--betti-only", "--format", "json"])
    assert_matches_reference(["chow", "--r", "10", "--n", "3", "--betti-only", "--oracle", "--format", "json"])
    assert_matches_reference(["fan", "--r", "9", "--n", "5", "--format", "json"])
    monkeypatch.setenv("CYCLIC_WONDERFUL_MAX_CELLS", "10")
    assert_matches_reference(["normal-complex", "--r", "3", "--n", "2", "--format", "json"])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 3), st.data())
def test_json_commands_print_what_json_dumps_prints(r, n, data):
    assert_matches_reference(data.draw(st.sampled_from(json_commands(r, n))))
