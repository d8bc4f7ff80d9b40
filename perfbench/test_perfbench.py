"""Tests of the arithmetic the benchmark adds: span self time, the tail rule
and the speed probe's scaling.

Run with ``python3 -m pytest perfbench``.
"""

import json
from pathlib import Path

import pytest

import spans
import speed
import stats


def test_self_time_subtracts_each_child():
    # parent [0, 10] with disjoint children [1, 3] and [5, 6]
    selfs = spans.self_times([0.0, 1.0, 5.0], [10.0, 3.0, 6.0], [-1, 0, 0])
    assert selfs == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # children [1, 4] and [3, 6] overlap on [3, 4]: together they cover 5
    selfs = spans.self_times([0.0, 1.0, 3.0], [10.0, 4.0, 6.0], [-1, 0, 0])
    assert selfs == pytest.approx([5.0, 3.0, 3.0])


def test_self_time_of_nested_children_is_per_level():
    # parent [0, 10] > child [1, 8] > grandchild [2, 3]
    selfs = spans.self_times([0.0, 1.0, 2.0], [10.0, 8.0, 3.0], [-1, 0, 1])
    assert selfs == pytest.approx([3.0, 6.0, 1.0])


def test_self_time_clips_a_child_to_its_parent():
    selfs = spans.self_times([0.0, 8.0], [10.0, 12.0], [-1, 0])
    assert selfs == pytest.approx([8.0, 4.0])


def test_summarize_keeps_only_spans_under_roots():
    store = spans.SpanStore()
    store.start.extend([0.0, 1.0, 20.0])
    store.end.extend([10.0, 4.0, 21.0])
    store.parent.extend([-1, 0, -1])
    store.name.extend([store.name_id("bench.op"), store.name_id("f"), store.name_id("f")])
    store.op.extend([0, 0, 0])
    store.flag.extend([spans.NO_FLAG, 1, 0])
    per_name, timed_self = spans.summarize(store, {"bench.op"}, "bench.op")
    assert per_name["f"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0, "flagged": 1}
    assert timed_self == pytest.approx(10.0)


def test_wrapped_function_records_a_span_and_its_ratio_flag():
    store = spans.SpanStore()
    traced = store.wrap(lambda x: x if x > 0 else None, "f", spans.RATIO_TESTS["hit_ratio"])
    assert traced(2) == 2 and traced(-1) is None
    assert list(store.flag) == [1, 0]
    assert all(e >= s for s, e in zip(store.start, store.end))


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    samples = list(range(1, 1001))  # 1000 samples: p99 leaves exactly 10 beyond
    assert stats.tail(samples) == (99.0, 990, 10)
    samples = list(range(1, 1000))  # 999 samples: p99 leaves 9, p98 leaves 19
    assert stats.tail(samples) == (98.0, 980, 19)


def test_tail_is_the_maximum_when_no_percentile_has_ten_beyond():
    assert stats.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    assert stats.tail(list(range(19))) == (100.0, 18, 0)
    assert stats.tail(list(range(20))) == (50.0, 9, 10)


def test_tail_ignores_sample_order():
    assert stats.tail([5, 1, 4, 2, 3] * 10) == stats.tail(sorted([5, 1, 4, 2, 3] * 10))


def test_probe_time_is_taken_out_of_a_region_and_speed_is_the_mean_ratio():
    probe = speed.Probe()
    probe.starts.extend([0.0, 1.0, 2.0])
    probe.ends.extend([0.0 + speed.REF_S, 1.0 + 2 * speed.REF_S, 2.0 + 4 * speed.REF_S])
    assert probe.time_in(0.5, 1.5) == pytest.approx(2 * speed.REF_S)
    assert probe.time_in(-1.0, 3.0) == pytest.approx(7 * speed.REF_S)
    assert probe.speed() == pytest.approx((1 + 1 / 2 + 1 / 4) / 3)


def test_every_layer_metric_has_a_row_in_the_layer_table():
    root = Path(__file__).resolve().parent
    bench = json.loads((root.parent / "BENCHMARK.json").read_text())
    table = json.loads((root / "definition.json").read_text())["layer_table"]
    prefixes = [m.rstrip("*") for row in table for m in row["layer_metrics"]]
    for metric in bench["per_layer"]:
        if not metric["name"].startswith("trace."):
            assert any(metric["name"].startswith(p) for p in prefixes), metric["name"]
