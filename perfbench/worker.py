"""One pass of a workload, in a fresh Python process.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> <src dir> <spans file>

The process times ``import cyclic_wonderful`` and the workload's set-up,
runs every op of the seeded op list one after another (one client, closed
loop), then checks each output by an independent route outside the timed
region.  It prints one JSON object on stdout.  With trace 0 a speed probe
(``speed.py``) runs through the pass; its time is left out of every timing
and its mean speed is reported.  With trace 1 there is no probe: the pass
wraps the functions that the per-layer metrics of BENCHMARK.json name and
writes its spans to the spans file.
"""

import sys
import time


def main(argv: list[str]) -> int:
    workload, seed, trace, src, spans_path = argv[0], int(argv[1]), argv[2] == "1", argv[3], argv[4]
    sys.path.insert(0, src)
    import speed

    probe = None if trace else speed.Probe()
    if probe is not None:
        probe.start()
    t0 = time.perf_counter()
    import cyclic_wonderful as cw

    if workload != "query":
        import cyclic_wonderful.cli  # noqa: F401  (the ranks and verify ops enter here)

    t0_end = time.perf_counter()

    import hashlib
    import json
    import os
    import resource

    import workloads

    if not os.path.realpath(cw.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"imported {cw.__file__}, not the package under {src}", file=sys.stderr)
        return 2

    store = None
    if trace:
        import spans

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            layer_names = [m["name"] for m in json.load(fh)["per_layer"]]
        store = spans.SpanStore()
        spans.install(store, [n for n in layer_names if not n.startswith("trace.")])
        setup_span = store.open(store.name_id("bench.setup"))
    t1 = time.perf_counter()
    fans = workloads.setup(workload, cw)
    t1_end = time.perf_counter()
    if store is not None:
        store.close(setup_span)

    ops = workloads.make_ops(workload, seed)
    results = []
    bounds = []
    if store is not None:
        op_name = store.name_id("bench.op")
    start = time.perf_counter()
    for k, op in enumerate(ops):
        t = time.perf_counter()
        if store is not None:
            store.op_id = k
            span = store.open(op_name)
        try:
            results.append(workloads.run_op(op, fans, cw))
        except Exception as exc:  # an op that raises is counted as failed
            results.append((None, "", f"{type(exc).__name__}: {exc}"))
        finally:
            if store is not None:
                store.close(span)
        bounds.append((t, time.perf_counter()))
    end = time.perf_counter()
    if probe is not None:
        probe.stop()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for k, (op, (status, stdout, value)) in enumerate(zip(ops, results)):
        if status is None:
            reason = value
        else:
            try:
                reason = workloads.check_op(op, status, stdout, value, cw)
            except Exception as exc:  # malformed output fails the check
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append({"op": k, "kind": op.kind, "spec": op.spec, "reason": reason})
    values = [value if status == 0 else None for status, _, value in results]

    def timed(a: float, b: float) -> float:
        return b - a - (probe.time_in(a, b) if probe is not None else 0.0)

    report = {
        "setup_s": timed(t0, t0_end) + timed(t1, t1_end),
        "wall_s": timed(start, end),
        "latencies_s": [timed(a, b) for a, b in bounds],
        "speed": probe.speed() if probe is not None else None,
        "probes": len(probe.starts) if probe is not None else 0,
        "peak_rss_mib": rss_mib,
        "digests": [hashlib.sha256(stdout.encode()).hexdigest() for _, stdout, _ in results],
        "failures": failures,
        "inputs": workloads.input_properties(ops, values, cw),
    }
    if store is not None:
        per_name, under_ops = spans.summarize(store, {"bench.setup", "bench.op"}, "bench.op")
        report["layers"] = per_name
        report["op_self_sum_s"] = under_ops
        report["spans"] = len(store.start)
        store.dump(spans_path)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
