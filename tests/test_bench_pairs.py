"""``tools/bench_pairs.py``: pair order, raw lines and the summary, on canned results."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_pairs",
                                               os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"run_s": "lower", "quality": "higher"}


def result(run_s, quality, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "quality": {"value": quality, "unit": "fraction"}}}


def record(pair, side, run_s, quality, failed=0, workload="w"):
    return {"workload": workload, "pair": pair, "seed": 100 + pair, "side": side,
            "position": 0, "result": result(run_s, quality, failed)}


# parent run_s 1, 2, 3, 4 and change 0.5, 2.5, 2, 3: the change is faster in
# pairs 0, 2 and 3; quality is higher in pair 1 only
CANNED = [
    record(0, "parent", 1.0, 0.5), record(0, "change", 0.5, 0.5),
    record(1, "change", 2.5, 0.7), record(1, "parent", 2.0, 0.6),
    record(2, "parent", 3.0, 0.5), record(2, "change", 2.0, 0.4, failed=1),
    record(3, "parent", 4.0, 0.5), record(3, "change", 3.0, 0.5),
    record(4, "parent", 9.0, 0.9),  # its change run never finished
]


def test_summary_of_canned_pairs():
    entry = bench_pairs.summarize(CANNED, BETTER)["w"]
    assert entry["pairs"] == 4
    assert entry["failed"] == {"parent": [0, 0, 0, 0], "change": [0, 0, 1, 0]}
    assert entry["correct"] == {"parent": True, "change": False}
    run_s = entry["metrics"]["run_s"]
    assert run_s["parent"] == [1.0, 2.0, 3.0, 4.0]
    assert run_s["median_parent"] == 2.5 and run_s["median_change"] == 2.25
    assert run_s["parent_iqr"] == pytest.approx(3.25 - 1.75)  # inclusive quartiles
    assert run_s["median_change_pct"] == pytest.approx(-10.0)
    assert run_s["change_wins"] == 3
    assert entry["metrics"]["quality"]["change_wins"] == 1


def test_format_names_every_metric():
    text = bench_pairs.format_summary(bench_pairs.summarize(CANNED, BETTER))
    assert text.splitlines()[0].startswith("w: 4 pairs, failed parent 0 change 1")
    assert "run_s" in text and "change wins 3/4" in text and "(-10.00%)" in text


def test_pairs_alternate_and_every_run_is_saved(tmp_path, monkeypatch):
    calls = []

    def fake_run_one(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed))
        return result(1.0, 0.5)

    monkeypatch.setattr(bench_pairs, "run_one", fake_run_one)
    raw = tmp_path / "raw.jsonl"
    records = bench_pairs.run_pairs({"parent": "P", "change": "C"}, ["a", "b"], 3, 1.0, 7, raw)
    assert [c[0] for c in calls[:6]] == ["P", "C", "C", "P", "P", "C"]
    assert [c[2] for c in calls[:6]] == [7, 7, 8, 8, 9, 9]
    assert [c[1] for c in calls] == ["a"] * 6 + ["b"] * 6
    assert [json.loads(line) for line in raw.read_text().splitlines()] == records
    assert bench_pairs.summarize(bench_pairs.read_records(raw), BETTER)["b"]["pairs"] == 3


def test_directions_come_from_the_benchmark_spec():
    better = bench_pairs.directions(os.path.join(ROOT, "BENCHMARK.json"))
    assert better["peak_rss_mb"] == "lower" and better["quality"] == "higher"


def series(parent_run_s, change_run_s, parent_quality=None, change_quality=None):
    """Records of len(parent_run_s) pairs of one workload "w"."""
    n = len(parent_run_s)
    pq, cq = parent_quality or [0.5] * n, change_quality or [0.5] * n
    return [rec for i in range(n) for rec in (record(i, "parent", parent_run_s[i], pq[i]),
                                              record(i, "change", change_run_s[i], cq[i]))]


PARENT = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, IQR 0.045


@pytest.mark.parametrize("change, gain", [
    ([p - 0.1 for p in PARENT], True),  # 10 of 10 wins, gap 0.1 > IQR
    ([p - 0.1 for p in PARENT[:9]] + [PARENT[9] + 1], True),  # 9 of 10 is enough
    ([p - 0.1 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]], False),  # 8 of 10
    ([p - 0.01 for p in PARENT], False),  # 10 of 10, but the gap is inside the IQR
    ([p + 0.1 for p in PARENT], False),  # worse
])
def test_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_iqr(change, gain):
    metric = bench_pairs.summarize(series(PARENT, change), BETTER)["w"]["metrics"]["run_s"]
    assert metric["gain"] is gain
    assert metric["worse_beyond_bound"] is None  # no bounds given


@pytest.mark.parametrize("factor, worse", [(1.2, False), (1.3, True), (0.5, False)])
def test_worse_beyond_bound_is_relative_to_the_parent_median(factor, worse):
    change = [factor * p for p in PARENT]
    entry = bench_pairs.summarize(series(PARENT, change), BETTER, {"run_s": 0.25})["w"]
    assert entry["metrics"]["run_s"]["worse_beyond_bound"] is worse
    assert entry["metrics"]["quality"]["worse_beyond_bound"] is None


@pytest.mark.parametrize("change_quality, gain, worse", [
    ([0.9] * 10, True, False), ([0.48] * 10, False, False), ([0.45] * 10, False, True)])
def test_verdicts_follow_a_higher_is_better_metric(change_quality, gain, worse):
    records = series(PARENT, PARENT, [0.5] * 10, change_quality)
    metric = bench_pairs.summarize(records, BETTER, {"quality": 0.05})["w"]["metrics"]["quality"]
    assert (metric["gain"], metric["worse_beyond_bound"]) == (gain, worse)


def test_format_prints_the_verdicts():
    records = series(PARENT, [p - 0.1 for p in PARENT], [0.5] * 10, [0.4] * 10)
    text = bench_pairs.format_summary(
        bench_pairs.summarize(records, BETTER, {"run_s": 0.25, "quality": 0.05}))
    run_s, quality = text.splitlines()[1:]
    assert run_s.endswith("change wins 10/10  gain")
    assert quality.endswith("change wins 0/10  no gain, WORSE BEYOND BOUND")


def test_bounds_come_from_the_benchmark_spec():
    bounds = bench_pairs.directions(os.path.join(ROOT, "BENCHMARK.json"), "bound")
    assert bounds["request_ms_mean"] == 0.25 and bounds["quality"] == 0.05
