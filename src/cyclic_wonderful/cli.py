"""Command-line front end.

Subcommands: ``fan`` (emit the fan), ``chow`` (presentation and graded
ranks), ``locate`` (point or curve to chain, read off the tropical curve
and certified on the chain's own cone), ``normal-complex`` (cells of
the truncated support) and ``check`` (the cross-module verification
suites).  Exit status is 0 on success or when no check fails (a check a
feasibility guard refused prints SKIP), 1 when a check fails, 2 on usage or
feasibility errors.

Identical arguments and seed produce byte-identical output.  A process
parses with one parser, built by ``build_parser`` on its first ``main``
call (not at import) and reused by every later call; ``build_parser``
itself returns a new parser each time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import chow, normal_complex, tropical
from .fan import build_fan, build_fan_stellar, in_relative_interior
from .guards import FeasibilityError, check_fan_spec
from .lattice import ArrangementSpec, BuildingSet
from .linalg import _integer_field, parse_rational
from .selfcheck import SUITES, run_suites
from .serialize import fan_to_dict

USAGE_ERROR = 2


def _spec(args: argparse.Namespace) -> ArrangementSpec:
    return ArrangementSpec(args.r, args.n)


def _ascii_int(text: str) -> int:
    """``int`` for argparse by the one integer rule, ``_integer_field``'s."""
    return _integer_field(text, "number")


_ascii_int.__name__ = "int"  # argparse names it in "invalid int value"


def _parse_point(text: str, spec: ArrangementSpec) -> tuple[Fraction, ...]:
    # an empty text is the one point of R^0, the ambient space at n = 0
    parts = text.split(",") if text.strip() else []
    coords = tuple(parse_rational(part) for part in parts)
    if len(coords) != spec.ambient_dim:
        raise ValueError(
            f"point needs {spec.ambient_dim} coordinates, got {len(coords)}"
        )
    return coords


def _cmd_fan(args: argparse.Namespace, emit: Callable[[str], None]) -> int:
    spec = _spec(args)
    check_fan_spec(spec)
    g = BuildingSet.maximal(spec)
    fan = build_fan_stellar(spec, g) if args.via_stellar else build_fan(spec, g)
    payload = fan_to_dict(fan)
    if args.format == "json":
        emit(json.dumps(payload, indent=2))
    else:
        emit(f"fan for r={spec.r}, n={spec.n}")
        emit("basis: " + " ".join(payload["basis"]))
        emit(f"rays ({len(payload['rays'])}):")
        for ray in payload["rays"]:
            vec = ",".join(str(x) for x in ray["vector"])
            emit(f"  [{ray['id']}] {ray['subset']} -> ({vec})")
        emit(f"cones ({len(payload['cones'])}):")
        for cone in payload["cones"]:
            ids = ",".join(str(i) for i in cone["ray_ids"])
            emit(f"  dim {cone['dim']} rays [{ids}] chain {cone['chain']}")
    return 0


def _betti_rows(spec: ArrangementSpec, want_oracle: bool) -> list[dict]:
    closed = chow.betti_closed_form(spec)
    try:
        oracle: tuple[int, ...] | None = chow.betti_oracle(spec)
    except FeasibilityError:
        if want_oracle:
            raise
        oracle = None
    rows = []
    for k, b in enumerate(closed):
        o = oracle[k] if oracle is not None else None
        rows.append(
            {
                "k": k,
                "closed_form": b,
                "oracle": o,
                "match": (o == b) if o is not None else None,
            }
        )
    return rows


def _cmd_chow(args: argparse.Namespace, emit: Callable[[str], None]) -> int:
    spec = _spec(args)
    check_fan_spec(spec)
    rows = _betti_rows(spec, args.oracle)
    pres = None if args.betti_only else chow.presentation(spec)
    if args.format == "json":
        payload: dict = {"r": spec.r, "n": spec.n, "betti": rows}
        if pres is not None:
            generators, relations = pres
            payload["generators"] = [d.text() for d in generators]
            payload["linear_relations"] = [
                {"i": i, "a": a, "b": b, "coefficients": {str(k): v for k, v in coeffs}}
                for (i, a, b), coeffs in relations.items()
            ]
            payload["reduced_relation_indices"] = [
                k for k, (_, a, _) in enumerate(relations) if a == 0
            ]
        emit(json.dumps(payload, indent=2))
    else:
        if pres is not None:
            generators, relations = pres
            emit(f"generators ({len(generators)}):")
            for k, d in enumerate(generators):
                emit(f"  [{k}] D{d.text()}")
            emit("products D_x . D_y vanish exactly when x and y are incomparable")
            reduced = sum(1 for _, a, _ in relations if a == 0)
            emit(f"linear relations ({len(relations)} emitted, {reduced} independent):")
            for (i, a, b), coeffs in relations.items():
                terms = " ".join(f"{'+' if c > 0 else '-'}D[{k}]" for k, c in coeffs)
                star = "*" if a == 0 else " "
                emit(f" {star}(i={i}, {a}~{b}) {terms} = 0")
        emit(f"{'k':<4}{'closed_form':<13}{'oracle':<8}match")
        for row in rows:
            oracle = "-" if row["oracle"] is None else str(row["oracle"])
            match = "-" if row["match"] is None else ("yes" if row["match"] else "NO")
            emit(f"{row['k']:<4}{row['closed_form']:<13}{oracle:<8}{match}")
    mismatched = [r for r in rows if r["match"] is False]
    return 1 if mismatched else 0


def _cmd_locate(args: argparse.Namespace, emit: Callable[[str], None]) -> int:
    spec = _spec(args)
    check_fan_spec(spec)
    if args.curve is not None:
        curve = tropical.parse_curve(args.curve, spec)
        point = tropical.embed(curve, spec)
    else:
        point = _parse_point(args.point, spec)
        curve = tropical.curve_from_point(point, spec)
    chain = None if curve is None else tropical.combinatorial_type(curve, spec)
    if chain is not None and not in_relative_interior(chain, point, spec):
        emit("error: combinatorial type disagrees with point location")
        return 1
    coords = [str(x) for x in point]
    if args.format == "json":
        payload = {
            "r": spec.r,
            "n": spec.n,
            "chain": chain.text() if chain is not None else None,
            "point": coords,
            "in_support": chain is not None,
        }
        emit(json.dumps(payload, indent=2))
    else:
        emit("point: (" + ",".join(coords) + ")")
        if chain is None:
            emit("outside the fan support")
        else:
            emit(f"chain: {chain.text()}")
    return 0


def _points_text(points: Iterable[Sequence[Fraction]]) -> str:
    return " ".join("(" + ",".join(str(x) for x in p) + ")" for p in points)


def _cmd_normal_complex(args: argparse.Namespace, emit: Callable[[str], None]) -> int:
    spec = _spec(args)
    cells = normal_complex.complex_cells(spec).cells
    extremes = normal_complex.union_extreme_points(spec) if args.union_extremes else None
    if args.format == "json":  # the one output that prints each cell's rows
        payload: dict = {
            "r": spec.r,
            "n": spec.n,
            "cells": [
                {
                    "chain": cell.label.text(),
                    "h_rep": [
                        {"normal": [str(x) for x in normal], "bound": str(bound)}
                        for normal, bound in cell.h_rep
                    ],
                    "vertices": [[str(x) for x in v] for v in cell.v_rep],
                }
                for cell in cells
            ],
        }
        if extremes is not None:
            payload["union_extremes"] = [[str(x) for x in p] for p in extremes]
        emit(json.dumps(payload, indent=2))
    else:
        emit(f"normal complex for r={spec.r}, n={spec.n}: {len(cells)} cells")
        for cell in cells:
            emit(f"  {cell.label.text()}: vertices {_points_text(cell.v_rep)}")
        if extremes is not None:
            emit(f"union extreme points: {_points_text(extremes)}")
    return 0


def _cmd_check(args: argparse.Namespace, emit: Callable[[str], None]) -> int:
    spec = _spec(args)
    suites = SUITES if args.suite == "all" else (args.suite,)
    results = run_suites(spec, suites, args.seed)
    for res in results:
        detail = f" ({res.detail})" if res.detail else ""
        emit(f"{res.status} [{res.suite}] {res.name}{detail}")
    count = Counter(res.status for res in results)
    skipped = f", {count['SKIP']} skipped" if count["SKIP"] else ""
    emit(
        f"{count['PASS']}/{len(results)} checks passed{skipped} for "
        f"r={spec.r}, n={spec.n}"
    )
    return 1 if count["FAIL"] else 0


_COMMANDS = {
    "fan": _cmd_fan,
    "chow": _cmd_chow,
    "locate": _cmd_locate,
    "normal-complex": _cmd_normal_complex,
    "check": _cmd_check,
}


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Run a parsed command line; returns the exit status and the output text."""
    lines: list[str] = []
    try:
        status = _COMMANDS[args.command](args, lines.append)
    except FeasibilityError as exc:
        lines.append(f"feasibility error: {exc}")
        status = USAGE_ERROR
    except ValueError as exc:
        lines.append(f"error: {exc}")
        status = USAGE_ERROR
    return status, "\n".join(lines) + ("\n" if lines else "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic-wonderful",
        description="Exact fans, Chow rings, tropical curves and normal "
        "complexes for moduli of rational curves with cyclic action.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--r", type=_ascii_int, required=True, help="points per factor, r >= 2")
        p.add_argument("--n", type=_ascii_int, required=True, help="number of factors, n >= 0")
        p.add_argument("--out", default=None, help="write output to this file")

    p_fan = sub.add_parser("fan", help="emit the nested-set fan")
    common(p_fan)
    p_fan.add_argument("--via-stellar", action="store_true", dest="via_stellar")

    p_chow = sub.add_parser("chow", help="emit the Chow presentation and ranks")
    common(p_chow)
    p_chow.add_argument(
        "--oracle",
        action="store_true",
        help="make the rank oracle's feasibility guard an error (exit 2) "
        "instead of printing - in the oracle column",
    )
    p_chow.add_argument("--betti-only", action="store_true", dest="betti_only")

    p_locate = sub.add_parser("locate", help="find the chain containing a point")
    common(p_locate)
    target = p_locate.add_mutually_exclusive_group(required=True)
    target.add_argument("--curve", help="curve as i:spoke:length triples, spoke c = center")
    target.add_argument("--point", help="comma-separated ambient coordinates")

    p_nc = sub.add_parser("normal-complex", help="emit the normal complex cells")
    common(p_nc)
    p_nc.add_argument("--union-extremes", action="store_true", dest="union_extremes")

    for p in (p_fan, p_chow, p_locate, p_nc):  # the commands that read it
        p.add_argument("--format", choices=["text", "json"], default="text")

    p_check = sub.add_parser("check", help="run the verification suites")
    common(p_check)
    p_check.add_argument("--seed", type=_ascii_int, default=0, help="sampling seed of the tropical suite (the fan and normal suites sample nothing)")
    p_check.add_argument("--suite", choices=["all", *SUITES], default="all")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing keeps no state in it between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors
        return int(exc.code or 0)
    status, text = run(args)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.out!r}: {exc.strerror}\n")
            return USAGE_ERROR
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
