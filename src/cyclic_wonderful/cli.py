"""Command-line front end.

Subcommands: ``fan`` (emit the fan), ``chow`` (presentation and graded
ranks), ``locate`` (point or curve to chain), ``normal-complex`` (cells of
the truncated support) and ``check`` (the cross-module verification
suites).  Exit status is 0 on success or when no check fails (a check a
feasibility guard refused prints SKIP), 1 when a check fails, 2 on usage or
feasibility errors.

Identical arguments and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction

from . import chow, normal_complex, tropical
from .fan import build_fan, build_fan_stellar, locate_point
from .guards import FeasibilityError, check_fan_spec
from .lattice import ArrangementSpec, BuildingSet, _Record
from .linalg import parse_rational
from .selfcheck import SUITES, run_suites
from .serialize import fan_to_dict

USAGE_ERROR = 2


class RunConfig(_Record):
    _fields = ("command", "r", "n", "format", "seed", "out", "via_stellar", "oracle",
               "betti_only", "curve", "point", "union_extremes", "suite", "lines")

    def __init__(
        self, command: str, r: int, n: int, format: str = "text", seed: int = 0,
        out: str | None = None, via_stellar: bool = False, oracle: bool = False,
        betti_only: bool = False, curve: str | None = None, point: str | None = None,
        union_extremes: bool = False, suite: str = "all", lines: list[str] | None = None,
    ) -> None:
        self.command = command
        self.r = r
        self.n = n
        self.format = format
        self.seed = seed
        self.out = out
        self.via_stellar = via_stellar
        self.oracle = oracle
        self.betti_only = betti_only
        self.curve = curve
        self.point = point
        self.union_extremes = union_extremes
        self.suite = suite
        self.lines = [] if lines is None else lines

    def __eq__(self, other):  # no __hash__: a mutable config is unhashable
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def emit(self, text: str) -> None:
        self.lines.append(text)

    def output(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def _spec(config: RunConfig) -> ArrangementSpec:
    return ArrangementSpec(config.r, config.n)


def _emit_json(config: RunConfig, payload: dict) -> None:
    config.emit(json.dumps(payload, indent=2))


def _parse_point(text: str, spec: ArrangementSpec) -> tuple[Fraction, ...]:
    # an empty text is the one point of R^0, the ambient space at n = 0
    parts = text.split(",") if text.strip() else []
    coords = tuple(parse_rational(part) for part in parts)
    if len(coords) != spec.ambient_dim:
        raise ValueError(
            f"point needs {spec.ambient_dim} coordinates, got {len(coords)}"
        )
    return coords


def _cmd_fan(config: RunConfig) -> int:
    spec = _spec(config)
    check_fan_spec(spec)
    g = BuildingSet.maximal(spec)
    fan = build_fan_stellar(spec, g) if config.via_stellar else build_fan(spec, g)
    payload = fan_to_dict(fan)
    if config.format == "json":
        _emit_json(config, payload)
    else:
        config.emit(f"fan for r={spec.r}, n={spec.n}")
        config.emit("basis: " + " ".join(payload["basis"]))
        config.emit(f"rays ({len(payload['rays'])}):")
        for ray in payload["rays"]:
            vec = ",".join(str(x) for x in ray["vector"])
            config.emit(f"  [{ray['id']}] {ray['subset']} -> ({vec})")
        config.emit(f"cones ({len(payload['cones'])}):")
        for cone in payload["cones"]:
            ids = ",".join(str(i) for i in cone["ray_ids"])
            config.emit(f"  dim {cone['dim']} rays [{ids}] chain {cone['chain']}")
    return 0


def _betti_rows(pres: chow.ChowPresentation, want_oracle: bool) -> list[dict]:
    closed = chow.betti_closed_form(pres.spec)
    try:
        oracle_dims: tuple[int, ...] | None = chow.betti_oracle(
            pres.spec, _presentation=pres
        ).dims
    except FeasibilityError:
        if want_oracle:
            raise
        oracle_dims = None
    rows = []
    for k, b in enumerate(closed.dims):
        o = oracle_dims[k] if oracle_dims is not None else None
        rows.append(
            {
                "k": k,
                "closed_form": b,
                "oracle": o,
                "match": (o == b) if o is not None else None,
            }
        )
    return rows


def _cmd_chow(config: RunConfig) -> int:
    spec = _spec(config)
    check_fan_spec(spec)
    pres = chow.presentation(spec)
    rows = _betti_rows(pres, config.oracle)
    if config.format == "json":
        payload: dict = {"r": spec.r, "n": spec.n, "betti": rows}
        if not config.betti_only:
            payload["generators"] = [d.text() for d in pres.generators]
            payload["linear_relations"] = [
                {
                    "i": rel.i,
                    "a": rel.a,
                    "b": rel.b,
                    "coefficients": {str(k): v for k, v in rel.coeffs},
                }
                for rel in pres.linear_relations
            ]
            payload["reduced_relation_indices"] = list(pres.reduced_indices)
        _emit_json(config, payload)
    else:
        if not config.betti_only:
            config.emit(f"generators ({len(pres.generators)}):")
            for k, d in enumerate(pres.generators):
                config.emit(f"  [{k}] D{d.text()}")
            config.emit(
                "products D_x . D_y vanish exactly when x and y are incomparable"
            )
            config.emit(
                f"linear relations ({len(pres.linear_relations)} emitted, "
                f"{len(pres.reduced_indices)} independent):"
            )
            for idx, rel in enumerate(pres.linear_relations):
                terms = " ".join(
                    f"{'+' if c > 0 else '-'}D[{k}]" for k, c in rel.coeffs
                )
                star = "*" if idx in pres.reduced_indices else " "
                config.emit(f" {star}(i={rel.i}, {rel.a}~{rel.b}) {terms} = 0")
        config.emit(f"{'k':<4}{'closed_form':<13}{'oracle':<8}match")
        for row in rows:
            oracle = "-" if row["oracle"] is None else str(row["oracle"])
            match = "-" if row["match"] is None else ("yes" if row["match"] else "NO")
            config.emit(f"{row['k']:<4}{row['closed_form']:<13}{oracle:<8}{match}")
    mismatched = [r for r in rows if r["match"] is False]
    return 1 if mismatched else 0


def _cmd_locate(config: RunConfig) -> int:
    spec = _spec(config)
    check_fan_spec(spec)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    if config.curve is not None:
        curve = tropical.parse_curve(config.curve, spec)
        point = tropical.embed(curve, spec)
        chain = tropical.combinatorial_type(curve, spec)
        located = locate_point(fan, point)
        if located != chain:
            config.emit("error: combinatorial type disagrees with point location")
            return 1
    else:
        assert config.point is not None
        point = _parse_point(config.point, spec)
        located = locate_point(fan, point)
        chain = located
    coords = [str(x) for x in point]
    if config.format == "json":
        _emit_json(
            config,
            {
                "r": spec.r,
                "n": spec.n,
                "chain": chain.text() if chain is not None else None,
                "point": coords,
                "in_support": chain is not None,
            },
        )
    else:
        config.emit("point: (" + ",".join(coords) + ")")
        if chain is None:
            config.emit("outside the fan support")
        else:
            config.emit(f"chain: {chain.text()}")
    return 0


def _cmd_normal_complex(config: RunConfig) -> int:
    spec = _spec(config)
    complex_ = normal_complex.complex_cells(spec)
    cells = []
    for cell in complex_.cells:
        cells.append(
            {
                "chain": cell.label.text(),
                "h_rep": [
                    {
                        "normal": [str(x) for x in normal],
                        "bound": str(bound),
                    }
                    for normal, bound in cell.h_rep
                ],
                "vertices": [
                    [str(x) for x in v] for v in cell.v_rep
                ],
            }
        )
    payload: dict = {"r": spec.r, "n": spec.n, "cells": cells}
    if config.union_extremes:
        payload["union_extremes"] = [
            [str(x) for x in p] for p in normal_complex.union_extreme_points(spec)
        ]
    if config.format == "json":
        _emit_json(config, payload)
    else:
        config.emit(f"normal complex for r={spec.r}, n={spec.n}: {len(cells)} cells")
        for cell in cells:
            verts = " ".join("(" + ",".join(v) + ")" for v in cell["vertices"])
            config.emit(f"  {cell['chain']}: vertices {verts}")
        if config.union_extremes:
            pts = " ".join("(" + ",".join(p) + ")" for p in payload["union_extremes"])
            config.emit(f"union extreme points: {pts}")
    return 0


def _cmd_check(config: RunConfig) -> int:
    spec = _spec(config)
    suites = SUITES if config.suite == "all" else (config.suite,)
    results = run_suites(spec, suites, config.seed)
    for res in results:
        detail = f" ({res.detail})" if res.detail else ""
        config.emit(f"{res.status} [{res.suite}] {res.name}{detail}")
    count = Counter(res.status for res in results)
    skipped = f", {count['SKIP']} skipped" if count["SKIP"] else ""
    config.emit(
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


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the exit status."""
    try:
        status = _COMMANDS[config.command](config)
    except FeasibilityError as exc:
        config.emit(f"feasibility error: {exc}")
        return USAGE_ERROR
    except ValueError as exc:
        config.emit(f"error: {exc}")
        return USAGE_ERROR
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic-wonderful",
        description="Exact fans, Chow rings, tropical curves and normal "
        "complexes for moduli of rational curves with cyclic action.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--r", type=int, required=True, help="points per factor, r >= 2")
        p.add_argument("--n", type=int, required=True, help="number of factors, n >= 0")
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
    p_check.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_check.add_argument("--suite", choices=["all", *SUITES], default="all")

    return parser


def config_from_args(argv: list[str]) -> RunConfig:
    return RunConfig(**vars(build_parser().parse_args(argv)))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = config_from_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors
        return int(exc.code or 0)
    status = run(config)
    text = config.output()
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {config.out!r}: {exc.strerror}\n")
            return USAGE_ERROR
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
