"""The benchmark's workloads: seeded inputs, the ops that consume them, and
the independent checks of each op's output.

Inputs come from the benchmark's own generator (SplitMix64), never from
``cyclic_wonderful.sampling``, so a change to the program cannot change what
the benchmark feeds it.  The program sees only the generated inputs.
"""

import contextlib
import io
import itertools
import json
from fractions import Fraction
from math import factorial
from typing import NamedTuple

WORKLOADS = ("query", "ranks", "verify")

# (r, n) of every fan the query workload builds in set-up.  (2, 4) has a
# complete fan, so a scan stops at the cone that holds the point; for r > 2
# most box points are off the support and every maximal cone is tried.
QUERY_SPECS = ((3, 3), (4, 3), (2, 4))
QUERY_KINDS = ("box", "support", "curve")
QUERY_BLOCKS = 30  # one block = every (spec, kind) pair once, seeded order

# Each ranks and verify op has its own (r, n), so nothing a call could cache
# is reused by a later op of the same pass.  Their order is fixed: the first
# op of a fresh process also pays the interpreter's warm-up, and a seeded
# order would move that cost between ops from run to run.
RANKS_SPECS = ((3, 3), (4, 3), (2, 4))
VERIFY_OPS = (
    ("check", (3, 2)),
    ("check", (2, 3)),
    ("extremes", (4, 2)),
    ("extremes", (2, 2)),
    ("stellar", (3, 3)),
)

_MASK = (1 << 64) - 1


class SplitMix64:
    """Steele, Lea and Flood's SplitMix64; the stream depends only on the seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, m: int) -> int:
        return self.next() % m

    def shuffled(self, items) -> list:
        out = list(items)
        for k in range(len(out) - 1, 0, -1):
            j = self.below(k + 1)
            out[k], out[j] = out[j], out[k]
        return out


class Op(NamedTuple):
    """One request: ``kind`` and ``spec`` say what to run, ``args`` the input."""

    kind: str
    spec: tuple[int, int]
    args: object


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def _direction(r: int, i: int, a: int, length, dim: int) -> list:
    """length * e_i^a in the package's coordinates (e_i^0 = -sum_j e_i^j)."""
    vec = [0] * dim
    block = r - 1
    off = (i - 1) * block
    if a == 0:
        for j in range(block):
            vec[off + j] = -length
    else:
        vec[off + a - 1] = length
    return vec


def _box_point(rng: SplitMix64, r: int, n: int) -> tuple:
    out = []
    for _ in range(n * (r - 1)):
        den = 1 + rng.below(3)
        out.append(Fraction(rng.below(12 * den + 1) - 6 * den, den))
    return tuple(out)


def _support_point(rng: SplitMix64, r: int, n: int) -> tuple:
    dim = n * (r - 1)
    vec = [Fraction(0)] * dim
    for i in range(1, n + 1):
        a = rng.below(r + 1)  # r: this factor stays at the origin
        if a == r:
            continue
        step = _direction(r, i, a, Fraction(1 + rng.below(24), 4), dim)
        vec = [x + y for x, y in zip(vec, step)]
    return tuple(vec)


def _curve(rng: SplitMix64, r: int, n: int) -> tuple[tuple, tuple]:
    spokes, lengths = [], []
    for _ in range(n):
        s = rng.below(r + 1)  # r: the orbit sits on the central vertex
        if s == r:
            spokes.append(None)
            lengths.append(Fraction(0))
        else:
            den = 1 + rng.below(4)
            spokes.append(s)
            lengths.append(Fraction(1 + rng.below(6 * den), den))
    return tuple(spokes), tuple(lengths)


def make_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one pass; the same seed always gives the same list."""
    rng = SplitMix64(seed)
    if workload == "query":
        makers = {"box": _box_point, "support": _support_point, "curve": _curve}
        ops = []
        for _ in range(QUERY_BLOCKS):
            block = [(k, s) for s in QUERY_SPECS for k in QUERY_KINDS]
            for kind, spec in rng.shuffled(block):
                ops.append(Op(kind, spec, makers[kind](rng, *spec)))
        return ops
    if workload == "ranks":
        return [
            Op("chow", spec, ["chow", "--r", str(spec[0]), "--n", str(spec[1]), "--format", "json"])
            for spec in RANKS_SPECS
        ]
    if workload == "verify":
        ops = []
        for kind, (r, n) in VERIFY_OPS:
            argv = ["--r", str(r), "--n", str(n)]
            if kind == "check":
                argv = ["check", *argv, "--suite", "all", "--seed", str(rng.below(1 << 31))]
            elif kind == "extremes":
                argv = ["normal-complex", *argv, "--union-extremes", "--format", "json"]
            else:
                argv = ["fan", *argv, "--via-stellar", "--format", "json"]
            ops.append(Op(kind, (r, n), argv))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Set-up and ops (the timed part)
# ---------------------------------------------------------------------------


def setup(workload: str, cw) -> dict:
    """Work a user pays once before the first request: query builds its fans."""
    if workload != "query":
        return {}
    fans = {}
    for r, n in QUERY_SPECS:
        spec = cw.ArrangementSpec(r, n)
        fan = cw.build_fan(spec, cw.BuildingSet.maximal(spec))
        fan.maximal_cones  # computed on first access; a scan needs it
        fans[(r, n)] = fan
    return fans


def run_op(op: Op, fans: dict, cw) -> tuple[int, str, object]:
    """Run one op; returns (exit status, stdout text, value for the check)."""
    if op.kind in ("box", "support"):
        chain = cw.locate_point(fans[op.spec], op.args)
        return 0, _chain_text(chain) + "\n", (op.args, chain)
    if op.kind == "curve":
        spec = cw.ArrangementSpec(*op.spec)
        curve = cw.TropicalCurve.of(*op.args)
        point = cw.embed(curve, spec)
        located = cw.locate_point(fans[op.spec], point)
        chain = cw.combinatorial_type(curve, spec)
        # the agreement `locate --curve` asserts before it prints
        status = 0 if located == chain else 1
        return status, _chain_text(chain) + "\n", (point, located)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cw.cli.main(op.args)
    return status, out.getvalue(), None


def _chain_text(chain) -> str:
    return "outside" if chain is None else chain.text()


# ---------------------------------------------------------------------------
# Checks by an independent route (outside the timed region)
# ---------------------------------------------------------------------------


def check_op(op: Op, status: int, stdout: str, value, cw) -> str | None:
    """None when the output is right, else a one-line reason."""
    if status != 0:
        return f"exit status {status}"
    if op.kind in ("box", "support", "curve"):
        point, chain = value
        spec = cw.ArrangementSpec(*op.spec)
        if cw.support_decomposition(point, spec) is None:
            return None if chain is None else "located a point off the support"
        expect = cw.combinatorial_type(cw.curve_from_point(point, spec), spec)
        return None if chain == expect else "located chain is not the curve's type"
    if op.kind == "chow":
        return _check_ranks(op.spec, stdout)
    if op.kind == "check":
        return _check_suites(stdout)
    if op.kind == "extremes":
        return _check_extremes(op.spec, stdout, cw)
    return _check_stellar(op.spec, stdout, cw)


def _check_ranks(spec: tuple[int, int], stdout: str) -> str | None:
    r, n = spec
    rows = json.loads(stdout)["betti"]
    dims = [row["closed_form"] for row in rows]
    if not all(row["match"] is True for row in rows):
        return "closed form and oracle disagree"
    if len(dims) != n + 1 or dims[0] != 1 or dims[n] != 1:
        return f"b_0 and b_n must be 1, got {dims}"
    if dims[1] != (1 + r) ** n - 1 - n * (r - 1):
        return f"b_1 = {dims[1]} breaks (1+r)^n - 1 - n(r-1)"
    return None


def _check_suites(stdout: str) -> str | None:
    *checks, summary = stdout.splitlines()
    if not checks or not all(line.startswith("PASS ") for line in checks):
        return "a check did not pass"
    if not summary.startswith(f"{len(checks)}/{len(checks)} checks passed"):
        return "summary line does not count every check"
    return None


def _check_extremes(spec: tuple[int, int], stdout: str, cw) -> str | None:
    r, n = spec
    payload = json.loads(stdout)
    extremes = {tuple(Fraction(x) for x in p) for p in payload["union_extremes"]}
    vertices = {
        tuple(Fraction(x) for x in v) for cell in payload["cells"] for v in cell["vertices"]
    }
    if not extremes or not extremes <= vertices:
        return "an extreme point is not a cell vertex"
    arrangement = cw.ArrangementSpec(r, n)
    if not all(cw.in_delta(p, arrangement) for p in extremes):
        return "an extreme point lies outside the truncated support"
    if r == 2:
        signed = {
            tuple(Fraction(s * x) for s, x in zip(signs, perm))
            for perm in itertools.permutations(range(1, n + 1))
            for signs in itertools.product((1, -1), repeat=n)
        }
        if extremes != signed:
            return "r = 2 extremes are not the signed permutations"
    return None


def _check_stellar(spec: tuple[int, int], stdout: str, cw) -> str | None:
    r, n = spec
    direct = io.StringIO()
    with contextlib.redirect_stdout(direct):
        status = cw.cli.main(["fan", "--r", str(r), "--n", str(n), "--format", "json"])
    if status != 0 or direct.getvalue() != stdout:
        return "stellar route differs from the direct route"
    payload = json.loads(stdout)
    maximal = sum(1 for cone in payload["cones"] if cone["dim"] == n)
    if len(payload["rays"]) != (1 + r) ** n - 1 or maximal != factorial(n) * r**n:
        return "ray or maximal cone count is wrong"
    return None


def input_properties(ops: list[Op], values: list, cw) -> dict:
    """Properties a later gain may depend on, measured on this op list."""
    props = {
        "ops": len(ops),
        "r2_share": sum(1 for op in ops if op.spec[0] == 2) / len(ops),
    }
    located = [(op.spec, v[0]) for op, v in zip(ops, values) if v is not None]
    if located:
        off = sum(
            1
            for spec, point in located
            if cw.support_decomposition(point, cw.ArrangementSpec(*spec)) is None
        )
        props["off_support_share"] = off / len(located)
    return props
