"""The benchmark's own arithmetic, driven by injected timings (no wall clock).

Run: python3 -m pytest cqnbench/tests -q
"""

import json
import pathlib

import numpy as np
import pytest

import run
import stats
from spans import per_request

ROOT = pathlib.Path(__file__).resolve().parents[2]


# -- tail percentiles ----------------------------------------------------------


def test_p99_of_1000_samples_has_ten_beyond_it():
    values = [float(i) for i in range(1, 1001)]  # 1..1000 ms, shuffled below
    values = values[500:] + values[:500]
    assert stats.percentile(values, 99) == 990.0
    assert stats.samples_beyond(len(values), 99) == 10
    assert sum(v > 990.0 for v in values) == 10


def test_p99_of_too_few_samples_has_fewer_than_ten_beyond():
    assert stats.samples_beyond(999, 99) == 9
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9


def test_percentile_is_nearest_rank_and_never_interpolates():
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
    assert stats.percentile([5.0], 99) == 5.0
    assert stats.percentile([1.0, 2.0], 100) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_children():
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    # Two parallel shard fills under one fetch_batch.
    assert stats.self_time(0.0, 10.0, [(2.0, 6.0), (4.0, 8.0)]) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    assert stats.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == (
        pytest.approx(2.0)
    )
    assert stats.self_time(0.0, 4.0, []) == 4.0


def test_per_request_folds_spans_into_self_times():
    spans = [
        # name, span, parent, request, start, end, cpu, extra
        ("fetch", 1, None, 7, 0.0, 10.0, 9.0, None),
        ("lookup", 2, 1, 7, 1.0, 2.0, 1.0, None),
        ("decode_many", 3, 1, 7, 3.0, 9.0, 5.0, 5),
        ("decode_records", 4, 3, 7, 4.0, 8.0, 2.5, 640),
        ("lookup", 5, None, 8, 0.0, 0.5, 0.5, None),
        ("unowned", 6, None, None, 0.0, 1.0, 1.0, None),
    ]
    rows = per_request(spans)
    assert set(rows) == {7, 8}
    row = rows[7]
    assert row["fetch"] == pytest.approx(10.0)
    assert row["fetch.self"] == pytest.approx(3.0)
    assert row["decode_many.self"] == pytest.approx(2.0)
    assert row["decode_records.extra"] == 640
    assert row["decode_records.cpu"] == 2.5
    assert row["lookup.n"] == 1
    assert rows[8]["lookup"] == pytest.approx(0.5)


def test_sliced_p99_is_the_median_of_per_slice_p99s():
    # Three slices of 1000; the middle one holds a burst of slow batches.
    quiet = [1.0] * 985 + [2.0] * 15
    burst = [1.0] * 900 + [50.0] * 100
    values = quiet + burst + quiet
    assert stats.sliced_percentile(values, 99, 1000) == 2.0
    assert stats.percentile(values, 99) == 50.0
    # Fewer samples than one slice: the plain percentile.
    assert stats.sliced_percentile(quiet[:999], 99, 1000) == stats.percentile(
        quiet[:999], 99
    )


def test_sliced_rate_is_the_median_of_per_slice_rates():
    # Three slices of 4 batches of 10 items, 1 s apart; the middle slice stalls.
    done = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 40.0, 41.0, 42.0, 43.0, 44.0]
    sizes = [10] * 12
    assert stats.sliced_rate(done, sizes, 0.0, 4) == pytest.approx(10.0)
    # The whole-run rate would be dragged down by the stall.
    assert sum(sizes) / done[-1] == pytest.approx(120 / 44)
    # Slices tile the run: the first slice starts at ``start``.
    assert stats.sliced_rate([3.0, 4.0], [10, 10], 2.0, 4) == pytest.approx(10.0)
    assert stats.slice_bounds(10, 4) == [(0, 5), (5, 10)]
    assert stats.slice_bounds(3, 4) == [(0, 3)]


# -- failed share --------------------------------------------------------------


def test_failed_share():
    assert stats.failed_share(200, 0) == 0.0
    assert stats.failed_share(200, 3) == pytest.approx(0.015)
    assert stats.failed_share(0, 0) == 0.0
    with pytest.raises(ValueError):
        stats.failed_share(2, 3)


def _phase(tallies, steps=(), start=0.0, end=2.0):
    snapshot = {"counters": {}}
    return run.Phase(start, end, list(tallies), list(steps), snapshot, snapshot)


REPORT = {"rss_mb": 100.0, "store_bytes": 1000, "pulses": 10}


def test_end_to_end_counts_errors_mismatches_and_failed_commits():
    reader = run.Tally(attempted=100, failed=2, mismatches=3)
    reader.latencies = [0.001] * 98
    reader.completions = [(0.02 * (i + 1), 64) for i in range(98)]
    steps = [run.Step(due=0.0, began=0.0, done=0.1, ok=ok) for ok in (True, False)]
    metrics = run.end_to_end(_phase([reader], steps), [1.0, 3.0, 2.0], REPORT)
    # 102 operations attempted (100 batches + 2 commits), 3 failed.
    assert metrics["ok_share"] == pytest.approx(1 - 3 / 102)
    # One slice (fewer than run.SLICE batches): 64 pulses every 20 ms.
    assert metrics["pulses_per_s"] == pytest.approx(64 / 0.02)
    assert metrics["batch_ms_p50"] == pytest.approx(1.0)
    assert metrics["setup_s"] == 2.0
    assert metrics["store_bytes_per_pulse"] == 100.0


def test_result_line_has_exactly_the_contract_keys():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "workload": "warm_hit",
        "trace": False,
        "correct": True,
        "attempted": 5,
        "failed": 0,
        "metrics": {e["name"]: 1.0 for e in spec["end_to_end"]},
    }
    line = run.result_line([record])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [e["name"] for e in spec["end_to_end"]]
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


# -- the writer's schedule -------------------------------------------------------


def test_due_times_cover_the_horizon():
    assert stats.due_times(10.0, 0.25, 1.0) == [10.0, 10.25, 10.5, 10.75]
    assert len(stats.due_times(0.0, 0.25, 28.0)) == 112


def test_a_stalled_step_is_charged_to_the_steps_behind_it():
    due = [0.0, 0.25, 0.5, 0.75]
    # Step 0 compacts for 0.6 s; steps 1 and 2 start late, step 3 recovers.
    began = [0.0, 0.6, 0.7, 0.75]
    done = [0.6, 0.7, 0.8, 0.85]
    assert stats.lateness(due, began) == pytest.approx([0.0, 0.35, 0.2, 0.0])
    assert stats.since_due(due, done) == pytest.approx([0.6, 0.45, 0.3, 0.1])


def test_early_wakeup_is_not_negative_lateness():
    assert stats.lateness([1.0], [0.999]) == [0.0]


def test_writer_metrics_from_injected_steps():
    steps = [
        run.Step(due=0.25 * k, began=0.25 * k, done=0.25 * k + 0.1, ok=True,
                 commit_s=0.03, written=1000)
        for k in range(20)
    ]
    steps[15].compact_s = 0.6
    steps[15].reclaimed = 5000
    out = run.writer_metrics(steps, [10.0, 12.0, 14.0])
    assert out["publish_ms_p50"] == pytest.approx(100.0)
    assert out["store.writable.commit_ms"] == pytest.approx(30.0)
    assert out["store.writable.compact_ms"] == pytest.approx(600.0)
    assert out["store.writable.compact_bytes_reclaimed"] == 5000
    assert out["store.server.refresh_ms"] == 12.0
    assert out["bench.writer_late_ms"] == 0.0
    assert run.writer_metrics([], [])["publish_ms_p50"] == 0.0


# -- spread and windows ------------------------------------------------------------


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, median, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / median)
    assert stats.quartile_spread([1.0, 1.0, 1.0]) == 0.0


# -- the oracle ------------------------------------------------------------------


def test_oracle_is_bit_exact_and_accepts_any_recorded_version():
    oracle = run.Oracle()
    key = ("x", (0,))
    v1 = np.array([0.5 + 0.25j, 0.0 + 0.0j])
    v2 = np.array([0.5 + 0.25j, 0.125 + 0.0j])
    oracle.record(key, v1, 1e-6, adopted_at=-np.inf)
    assert oracle.check(key, v1.copy(), 0.0) == 1e-6
    assert oracle.check(key, v2.copy(), 0.0) is None
    # Recorded but not yet adopted: both versions are acceptable.
    oracle.record(key, v2, 2e-6)
    assert oracle.check(key, v1.copy(), 5.0) == 1e-6
    assert oracle.check(key, v2.copy(), 5.0) == 2e-6
    # -0.0 == 0.0 numerically, but it is not the same bits.
    assert oracle.check(key, np.array([0.5 + 0.25j, complex(-0.0, 0.0)]), 0.0) is None
    assert oracle.check(("y", (1,)), v1.copy(), 0.0) is None


def test_oracle_rejects_a_version_superseded_before_the_send():
    oracle = run.Oracle()
    key = ("x", (0,))
    v1 = np.array([1.0 + 0.0j])
    v2 = np.array([2.0 + 0.0j])
    v3 = np.array([3.0 + 0.0j])
    oracle.record(key, v1, 1e-6, adopted_at=-np.inf)
    oracle.record(key, v2, 2e-6)
    oracle.adopted([key], 10.0)
    # Sent before v2 was adopted: the old version may still be served.
    assert oracle.check(key, v1.copy(), 9.0) == 1e-6
    # Sent after: a server that did not invalidate would serve v1.
    assert oracle.check(key, v1.copy(), 11.0) is None
    assert oracle.check(key, v2.copy(), 11.0) == 2e-6
    # v3 is recorded, not adopted: acceptable early, v2 stays the floor.
    oracle.record(key, v3, 3e-6)
    assert oracle.check(key, v3.copy(), 11.0) == 3e-6
    assert oracle.check(key, v2.copy(), 12.0) == 2e-6
    assert oracle.check(key, v1.copy(), 12.0) is None
