"""Command-line front end.

Subcommands: ``fan`` (emit the fan), ``chow`` (presentation and graded
ranks), ``locate`` (point or curve to chain, read off the tropical curve
and certified on the chain's own cone), ``normal-complex`` (cells of
the truncated support) and ``check`` (the cross-module verification
suites).  Exit status is 0 on success or when no check fails (a check a
feasibility guard refused prints SKIP), 1 when a check fails, 2 on usage or
feasibility errors and when the output cannot be written (an ``--out``
path, or a reader that closed early), with one line on stderr.

Every command writes its output as it goes, through one ``write``
callable: ``main`` passes stdout's, or with ``--out`` a new file's beside
the target, which replaces the target at the end; ``run`` passes an
``io.StringIO``'s and returns the text.  Every guard and validation runs
before the first byte, and a refusal's line follows what was written.

Identical arguments and seed produce byte-identical output.  A process
parses with one parser, built by ``build_parser`` on its first ``main``
call (not at import) and reused by every later call; ``build_parser``
itself returns a new parser each time.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import os
import stat
import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TextIO

from . import chow, normal_complex, serialize, tropical
from .fan import basis_labels, build_fan, build_fan_stellar, in_relative_interior
from .guards import FeasibilityError, check_fan_spec
from .lattice import ArrangementSpec, BuildingSet
from .linalg import _integer_field, parse_rational
from .selfcheck import SUITES, run_suites

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


def _cmd_fan(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    spec = _spec(args)
    check_fan_spec(spec)
    g = BuildingSet.maximal(spec)
    fan = build_fan_stellar(spec, g) if args.via_stellar else build_fan(spec, g)
    if args.format == "json":
        serialize.write_fan(fan, write)
        return 0
    subsets, texts, cones = serialize.fan_listing(fan)
    write(f"fan for r={spec.r}, n={spec.n}\n")
    write("basis: " + " ".join(basis_labels(spec)) + "\n")
    write(f"rays ({len(subsets)}):\n")
    for k, d in enumerate(subsets):
        vec = ",".join(map(str, fan.rays[d]))
        write(f"  [{k}] {texts[k]} -> ({vec})\n")
    write(f"cones ({len(cones)}):\n")
    for ids in cones:
        chain = serialize.chain_text(ids, texts)
        write(f"  dim {len(ids)} rays [{','.join(map(str, ids))}] chain {chain}\n")
    return 0


def _betti_rows(spec: ArrangementSpec, want_oracle: bool) -> list[serialize.BettiRow]:
    closed = chow.betti_closed_form(spec)
    try:
        oracle: tuple[int, ...] | None = chow.betti_oracle(spec)
    except FeasibilityError:
        if want_oracle:
            raise
        oracle = None
    if oracle is None:
        return [(k, b, None, None) for k, b in enumerate(closed)]
    return [(k, b, o, o == b) for k, (b, o) in enumerate(zip(closed, oracle))]


def _cmd_chow(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    spec = _spec(args)
    check_fan_spec(spec)
    rows = _betti_rows(spec, args.oracle)
    pres = None if args.betti_only else chow.presentation(spec)
    if args.format == "json":
        serialize.write_chow(spec, rows, pres, write)
    else:
        if pres is not None:
            generators, relations = pres
            write(f"generators ({len(generators)}):\n")
            for k, d in enumerate(generators):
                write(f"  [{k}] D{d.text()}\n")
            write("products D_x . D_y vanish exactly when x and y are incomparable\n")
            reduced = sum(1 for _, a, _ in relations if a == 0)
            write(f"linear relations ({len(relations)} emitted, {reduced} independent):\n")
            for (i, a, b), coeffs in relations.items():
                terms = " ".join(f"{'+' if c > 0 else '-'}D[{k}]" for k, c in coeffs)
                star = "*" if a == 0 else " "
                write(f" {star}(i={i}, {a}~{b}) {terms} = 0\n")
        write(f"{'k':<4}{'closed_form':<13}{'oracle':<8}match\n")
        for k, closed, oracle, match in rows:
            oracle_text = "-" if oracle is None else str(oracle)
            match_text = "-" if match is None else ("yes" if match else "NO")
            write(f"{k:<4}{closed:<13}{oracle_text:<8}{match_text}\n")
    return 1 if any(match is False for *_, match in rows) else 0


def _cmd_locate(args: argparse.Namespace, write: Callable[[str], object]) -> int:
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
        write("error: combinatorial type disagrees with point location\n")
        return 1
    if args.format == "json":
        serialize.write_point(spec, chain, point, write)
    else:
        write("point: (" + ",".join(map(str, point)) + ")\n")
        write("outside the fan support\n" if chain is None else f"chain: {chain.text()}\n")
    return 0


def _points_text(points: Iterable[Sequence[Fraction]]) -> str:
    return " ".join("(" + ",".join(str(x) for x in p) + ")" for p in points)


def _cmd_normal_complex(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    spec = _spec(args)
    cells = normal_complex.complex_cells(spec).cells
    extremes = normal_complex.union_extreme_points(spec) if args.union_extremes else None
    if args.format == "json":  # the one output that prints each cell's rows
        serialize.write_cells(spec, cells, extremes, write)
        return 0
    write(f"normal complex for r={spec.r}, n={spec.n}: {len(cells)} cells\n")
    for cell in cells:
        write(f"  {cell.label.text()}: vertices {_points_text(cell.v_rep)}\n")
    if extremes is not None:
        write(f"union extreme points: {_points_text(extremes)}\n")
    return 0


def _cmd_check(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    spec = _spec(args)
    suites = SUITES if args.suite == "all" else (args.suite,)
    results = run_suites(spec, suites, args.seed)
    for res in results:
        detail = f" ({res.detail})" if res.detail else ""
        write(f"{res.status} [{res.suite}] {res.name}{detail}\n")
    count = Counter(res.status for res in results)
    skipped = f", {count['SKIP']} skipped" if count["SKIP"] else ""
    write(
        f"{count['PASS']}/{len(results)} checks passed{skipped} for "
        f"r={spec.r}, n={spec.n}\n"
    )
    return 1 if count["FAIL"] else 0


_COMMANDS = {
    "fan": _cmd_fan,
    "chow": _cmd_chow,
    "locate": _cmd_locate,
    "normal-complex": _cmd_normal_complex,
    "check": _cmd_check,
}


def _execute(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    """Run a parsed command line, writing its output through ``write``;
    returns the exit status.  A refusal's line follows what was written."""
    try:
        return _COMMANDS[args.command](args, write)
    except FeasibilityError as exc:
        write(f"feasibility error: {exc}\n")
    except ValueError as exc:
        write(f"error: {exc}\n")
    return USAGE_ERROR


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Run a parsed command line; returns the exit status and the output text."""
    buf = io.StringIO()
    status = _execute(args, buf.write)
    return status, buf.getvalue()


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


def _scratch_beside(path: str) -> tuple[str, TextIO]:
    """A new file in ``path``'s directory, made as ``open(path, "w")``
    would make it (its mode follows the umask), under a name no file has."""
    head, tail = os.path.split(path)
    k = 0
    while True:
        name = os.path.join(head, f".{tail}.{os.getpid()}-{k}.tmp")
        try:
            return name, open(name, "x", encoding="utf-8")
        except FileExistsError:
            k += 1


def _execute_to_file(args: argparse.Namespace) -> int:
    """``--out``: the output goes to a new file beside the target, which
    then replaces the target whatever the status, so the target holds all
    that stdout would or, when a write fails, is left as it was.  Only a
    regular file or a new path is replaced: a device, a pipe or a symlink
    is written in place, as ``open`` writes it.  A directory is refused
    before the command runs."""
    path = args.out
    try:
        mode: int | None = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            return _execute(args, fh.write)
    scratch, fh = _scratch_beside(path)
    try:
        with fh:
            status = _execute(args, fh.write)
        os.replace(scratch, path)
    except BaseException:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        raise
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors
        return int(exc.code or 0)
    if args.out:
        try:
            return _execute_to_file(args)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.out!r}: {exc.strerror}\n")
            return USAGE_ERROR
    try:
        status = _execute(args, sys.stdout.write)
        sys.stdout.flush()
    except OSError as exc:  # a reader that closed early, a full disk
        null = os.open(os.devnull, os.O_WRONLY)
        try:  # what is left in the buffer is flushed at exit, to the null device
            os.dup2(null, sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):  # stdout is not a file
            pass
        os.close(null)
        sys.stderr.write(f"error: cannot write to stdout: {exc.strerror}\n")
        return USAGE_ERROR
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
