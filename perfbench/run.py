"""Benchmark for cyclic_wonderful: three workloads, checked outputs,
end-to-end metrics from untraced passes and per-layer metrics from traced ones.

    python3 perfbench/run.py [--workload query|ranks|verify] [--seed N]
                             [--seconds S] [--trace 0|1]

Without ``--workload`` it runs all three, one after another.  Each workload
runs as a number of passes.  A pass is one fresh Python process (see
``worker.py``) that imports the package from ``src/``, does the workload's
set-up and then its whole seeded op list; passes run one after another and
every pass of a run gets the same op list.  The pass count is sized so that a
run measures about ``--seconds`` seconds on a 2-core x86 machine with
Python 3.11, and is fixed for a given ``--seconds``, so every run pools the
same number of latency samples.

Timings are taken on a reference scale.  An untraced pass runs a small speed
probe through its whole length (``speed.py``), leaves the probe's time out of
every timing and multiplies each timing by the probe's mean speed relative to
a fixed reference (``speed.REF_S``).  The host this benchmark was
made on runs the same code at speeds up to about 1.8x apart for tens of
seconds at a time; raw seconds mostly measured that, the scaled ones measure
the program.  The raw seconds are printed too.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the ``end_to_end`` metrics of BENCHMARK.json, with ``--trace 1`` its
``per_layer`` metrics.  The lines above it print the same numbers with
their units, ``fail_frac``, the input properties and the environment; a copy
of the full result goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"

# Seconds one pass takes on the reference machine; sets the pass count.
PASS_SECONDS = {"query": 7.5, "ranks": 5.8, "verify": 9.5}
MIN_PASSES = 3  # set-up is reported as a median, so it needs several passes
DEADLINE_S = 170.0  # a run must end within 180 s

# Every end-to-end number a run prints.  BENCHMARK.json gates setup_s, wall_s
# and peak_rss_mib.  The per-op percentiles are printed, not gated: on ranks
# and verify they are single commands of 1 to 5 s each, and over ten seeds on
# a shared 2-vCPU host the query p50 spread by 9% of its median, more than a
# third of the largest bound allowed.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mib": "MiB"}


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def run_pass(workload: str, seed: int, traced: bool, index: int, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("CYCLIC_WONDERFUL_MAX_CELLS", "PYTHONPATH")}
    spans_path = OUT / f"spans-{workload}-pass{index}.tsv"
    argv = [sys.executable, str(WORKER), workload, str(seed), "1" if traced else "0", str(SRC), str(spans_path)]
    proc = subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} pass {index} exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def count_failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Ops attempted and failed over all passes.  An op also fails when its
    stdout digest differs from the first pass's digest for the same op."""
    attempted = failed = 0
    reasons = []
    first = passes[0]["digests"]
    for k, report in enumerate(passes):
        bad = {f["op"]: f["reason"] for f in report["failures"]}
        for op, digest in enumerate(report["digests"]):
            if op not in bad and digest != first[op]:
                bad[op] = "stdout differs from the first pass"
        attempted += len(report["digests"])
        failed += len(bad)
        reasons += [f"pass {k} op {op}: {why}" for op, why in sorted(bad.items())]
    return attempted, failed, reasons


def end_to_end(passes: list[dict]) -> tuple[dict, str]:
    # Every pass runs the same op list, so each op's latency is taken as its
    # median over the passes; the percentiles are over those per-op values.
    scaled = [[t * p["speed"] for t in p["latencies_s"]] for p in passes]
    per_op_ms = [statistics.median(lat) * 1000 for lat in zip(*scaled)]
    pct, tail_ms, beyond = stats.tail(per_op_ms)
    values = {
        "setup_s": statistics.median(p["setup_s"] * p["speed"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] * p["speed"] for p in passes),
        "op_p50_ms": statistics.median(per_op_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    note = f"p{pct:g} of {len(per_op_ms)} ops, {beyond} beyond, each the median of {len(passes)} passes"
    return values, note


def per_layer(names: list[str], traced: list[dict], untraced: list[dict]) -> dict:
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
                p["wall_s"] for p in untraced
            )
        elif name == "trace.unaccounted_s":
            values[name] = statistics.median(p["wall_s"] - p["op_self_sum_s"] for p in traced)
        else:
            target, stat = name.rsplit(".", 1)
            per_pass = []
            for p in traced:
                row = p["layers"].get(target, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "flagged": 0})
                if stat in ("calls", "total_s", "self_s"):
                    per_pass.append(row[stat])
                else:
                    per_pass.append(row["flagged"] / row["calls"] if row["calls"] else 0.0)
            values[name] = statistics.median(per_pass)
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool, bench: dict) -> None:
    deadline = time.monotonic() + DEADLINE_S
    count = pass_count(workload, seconds)
    # traced runs alternate traced and untraced passes, for the overhead
    plan = [trace and k % 2 == 0 for k in range(count)]
    passes = [run_pass(workload, seed, traced, k, deadline) for k, traced in enumerate(plan)]
    untraced = [p for p, traced in zip(passes, plan) if not traced]
    traced = [p for p, traced in zip(passes, plan) if traced]
    attempted, failed, reasons = count_failures(passes)
    e2e, tail_note = end_to_end(untraced)

    units = dict(E2E_UNITS, **{m["name"]: m["unit"] for m in bench["per_layer"]})
    if trace:
        metrics = per_layer([m["name"] for m in bench["per_layer"]], traced, untraced)
        shown, notes = metrics, {}
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in bench["end_to_end"]}
        shown, notes = e2e, {"op_tail_ms": tail_note}

    print(
        f"== {workload}: seed {seed}, {count} passes ({len(traced)} traced), "
        f"python {platform.python_version()}, nproc {os.cpu_count()}"
    )
    print("inputs: " + ", ".join(f"{k} {v:g}" for k, v in passes[0]["inputs"].items()))
    print(
        f"raw: setup_s {statistics.median(p['setup_s'] for p in untraced):.6g} s, "
        f"wall_s {statistics.median(p['wall_s'] for p in untraced):.6g} s; "
        f"host speed {min(p['speed'] for p in untraced):.3f}-{max(p['speed'] for p in untraced):.3f} "
        f"of the reference ({untraced[0]['probes']} probes in the first pass)"
    )
    for name, value in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(f"fail_frac {failed / attempted:g} ({failed} of {attempted} ops)")
    if trace:
        print(
            f"trace: self time under ops {statistics.median(p['op_self_sum_s'] for p in traced):.4f} s "
            f"of traced wall_s {statistics.median(p['wall_s'] for p in traced):.4f} s, "
            f"{traced[0]['spans']} spans per pass"
        )
    for line in reasons[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    detail = dict(
        result,
        workload=workload,
        seed=seed,
        passes=count,
        inputs=passes[0]["inputs"],
        pass_speed=[p["speed"] for p in untraced],
        pass_raw_setup_s=[p["setup_s"] for p in untraced],
        pass_raw_wall_s=[p["wall_s"] for p in untraced],
        end_to_end=e2e,
        tail=tail_note,
        fail_frac=failed / attempted,
        failures=reasons,
        python=platform.python_version(),
        nproc=os.cpu_count(),
    )
    (OUT / f"result-{workload}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cyclic_wonderful" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'cyclic_wonderful'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    OUT.mkdir(exist_ok=True)
    # compile once up front, so no pass pays for writing bytecode in set-up
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("the package source does not compile", file=sys.stderr)
        return 2
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        try:
            run_workload(workload, args.seed, seconds, bool(args.trace), bench)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
