"""``scripts/bench_baseline.py``'s pair comparison, on made-up runs: no harness runs."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_baseline", os.path.join(ROOT, "scripts", "bench_baseline.py")
)
bench_baseline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_baseline)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    METRICS = {m["name"]: m for m in json.load(_fh)["end_to_end"]}


def _pairs(parent: dict, change: dict, workload="predict-polysemous", seed=1) -> list[dict]:
    """Pair i holds each side's i-th attempted op count and i-th value of each metric;
    ``parent`` and ``change`` map ``attempted`` and metric names to those lists."""

    def result(side: dict, i: int) -> dict:
        metrics = {k: {"value": v[i], "unit": "u"} for k, v in side.items() if k != "attempted"}
        return {"attempted": side["attempted"][i], "failed": 0, "metrics": metrics}

    return [
        {"workload": workload, "seed": seed, "first": "parent",
         "parent": result(parent, i), "change": result(change, i)}
        for i in range(len(parent["attempted"]))
    ]


def _row(rows: list[dict], metric: str) -> dict:
    (row,) = [r for r in rows if r["metric"] == metric]
    return row


def test_wins_count_in_the_direction_benchmark_json_gives():
    """Lower op time and higher throughput both win for the checkout."""
    assert METRICS["op_p50_cu"]["better"] == "lower"
    assert METRICS["items_per_cu"]["better"] == "higher"
    parent = {"attempted": [100] * 10, "op_p50_cu": [1.0] * 10, "items_per_cu": [1.0] * 10}
    change = {"attempted": [100] * 10, "op_p50_cu": [0.9] * 10, "items_per_cu": [1.1] * 10}
    rows = bench_baseline.compare_pairs(_pairs(parent, change), METRICS)
    assert _row(rows, "op_p50_cu")["change_won"] == 10
    assert _row(rows, "items_per_cu")["change_won"] == 10
    swapped = bench_baseline.compare_pairs(_pairs(change, parent), METRICS)
    assert _row(swapped, "op_p50_cu")["change_won"] == 0
    assert _row(swapped, "items_per_cu")["change_won"] == 0


def test_ties_count_for_neither_side():
    parent = {"attempted": [100] * 10, "op_p50_cu": [1.0] * 10}
    change = {"attempted": [100] * 10, "op_p50_cu": [1.0] * 6 + [0.5] * 4}
    row = _row(bench_baseline.compare_pairs(_pairs(parent, change), METRICS), "op_p50_cu")
    assert row["change_won"] == 4 and row["pairs"] == 10 and not row["claimable"]


PARENT_CU = [0.9, 0.95, 0.98, 1.0, 1.0, 1.0, 1.0, 1.02, 1.05, 1.1]  # median 1, IQR 0.03


@pytest.mark.parametrize(
    "change, claimable",
    [
        ([0.5] * 9 + [2.0], True),
        ([0.5] * 8 + [2.0] * 2, False),
        ([p - 0.01 for p in PARENT_CU], False),
    ],
    ids=["9_of_10_gap_above_iqr", "8_of_10", "10_of_10_gap_inside_iqr"],
)
def test_claimable_needs_nine_tenths_of_wins_and_a_gap_above_the_parent_iqr(change, claimable):
    parent = {"attempted": [100] * 10, "op_p50_cu": PARENT_CU}
    rows = bench_baseline.compare_pairs(
        _pairs(parent, {"attempted": [100] * 10, "op_p50_cu": change}), METRICS
    )
    row = _row(rows, "op_p50_cu")
    p1, pm, p3 = row["parent"]
    assert (pm, p3 - p1) == (1.0, pytest.approx(0.03))
    assert row["claimable"] is claimable


def test_ratio_is_none_when_the_parent_median_is_zero():
    parent = {"attempted": [100] * 10, "op_p50_cu": [0.0] * 10, "success_rate": [1.0] * 10}
    change = {"attempted": [100] * 10, "op_p50_cu": [0.5] * 10, "success_rate": [0.5] * 10}
    rows = bench_baseline.compare_pairs(_pairs(parent, change), METRICS)
    assert _row(rows, "op_p50_cu")["ratio"] is None
    assert _row(rows, "success_rate")["ratio"] == 0.5


def test_peak_rss_row_carries_the_attempted_op_ratio_per_workload_and_seed():
    """More ops in a run mean more per-op bookkeeping in the harness, so peak RSS is
    read beside the ratio of the median attempted op counts."""
    pairs = []
    for seed, change_ops in ((1, [110] * 10), (2, [90] * 9 + [300])):
        parent = {"attempted": [100] * 10, "peak_rss_mb": [50.0] * 10, "op_p50_cu": [1.0] * 10}
        change = {"attempted": change_ops, "peak_rss_mb": [51.0] * 10, "op_p50_cu": [1.0] * 10}
        pairs += _pairs(parent, change, seed=seed)
    rows = bench_baseline.compare_pairs(pairs, METRICS)
    ratios = {r["seed"]: r["attempted_ratio"] for r in rows if r["metric"] == "peak_rss_mb"}
    assert ratios == {1: pytest.approx(1.1), 2: pytest.approx(0.9)}
    assert all("attempted_ratio" not in r for r in rows if r["metric"] != "peak_rss_mb")


def _marks(parent_values, change_values, metric):
    parent = {"attempted": [100] * 10, metric: parent_values}
    change = {"attempted": [100] * 10, metric: change_values}
    row = _row(bench_baseline.compare_pairs(_pairs(parent, change), METRICS), metric)
    return row["worse_past_bound"], row["noisy"]


@pytest.mark.parametrize(
    "metric, parent, change, worse",
    [
        ("op_p50_cu", [1.0] * 10, [1.19] * 10, False),  # lower is better, bound 0.2
        ("op_p50_cu", [1.0] * 10, [1.21] * 10, True),
        ("op_p50_cu", [1.0] * 10, [0.5] * 10, False),  # better by any margin is never worse
        ("items_per_cu", [1.0] * 10, [0.76] * 10, False),  # higher is better, bound 0.25
        ("items_per_cu", [1.0] * 10, [0.74] * 10, True),
        ("success_rate", [1.0] * 10, [0.98] * 10, True),  # bound 0.01
    ],
    ids=["slower_inside", "slower_past", "faster", "fewer_inside", "fewer_past", "failures"],
)
def test_worse_past_bound_compares_the_medians_with_the_bound_share(metric, parent, change, worse):
    assert METRICS[metric]["bound"] in (0.2, 0.25, 0.01)
    assert _marks(parent, change, metric) == (worse, False)


def test_noisy_marks_a_parent_iqr_wider_than_the_bound_share():
    """peak_rss_mb's bound is 10% of the parent's median: a parent whose quartiles
    span 85-95 MB around 90 is noisy, one within 2 MB is not, whatever the change."""
    assert METRICS["peak_rss_mb"]["bound"] == 0.1
    wide = [80.0, 85.0, 85.0, 86.0, 90.0, 90.0, 94.0, 95.0, 95.0, 99.0]  # IQR 10, median 90
    narrow = [89.0, 89.0, 89.0, 90.0, 90.0, 90.0, 90.0, 91.0, 91.0, 91.0]  # IQR 2
    assert _marks(wide, [90.0] * 10, "peak_rss_mb") == (False, True)
    assert _marks(narrow, [90.0] * 10, "peak_rss_mb") == (False, False)
    # past the bound and noisy at once: both are marked
    assert _marks(wide, [100.0] * 10, "peak_rss_mb") == (True, True)


def test_marks_are_stored_and_printed(tmp_path, monkeypatch, capsys):
    """``--against`` stores both marks in each summary row and prints them by name."""
    wide = [80.0, 85.0, 85.0, 86.0, 90.0, 90.0, 94.0, 95.0, 95.0, 99.0]
    calls: dict[tuple, int] = {}

    def run_once(checkout, workload, seed):  # the parent's i-th run of a cell reads wide[i]
        i = calls[checkout, workload, seed] = calls.get((checkout, workload, seed), -1) + 1
        rss = wide[i] if checkout == "parent" else 100.0
        metrics = {"peak_rss_mb": {"value": rss, "unit": "MB"},
                   "op_p50_cu": {"value": 1.0, "unit": "cu"}}
        return {"result": {"attempted": 100, "failed": 0, "metrics": metrics}}

    monkeypatch.setattr(bench_baseline, "run_once", run_once)
    monkeypatch.setattr(bench_baseline, "head", lambda checkout: checkout)
    monkeypatch.setattr(bench_baseline, "ROOT", str(tmp_path))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": list(METRICS.values())}))
    assert bench_baseline.main(["--against", "parent", "--checkout", "change"]) == 0
    stored = json.loads((tmp_path / "BENCH_pairs.json").read_text())["summary"]
    rss = [row for row in stored if row["metric"] == "peak_rss_mb"]
    assert len(rss) == 6 and all(r["worse_past_bound"] and r["noisy"] for r in rss)
    cu = [row for row in stored if row["metric"] == "op_p50_cu"]
    assert not any(r["worse_past_bound"] or r["noisy"] for r in cu)
    printed = capsys.readouterr().out.splitlines()
    assert sum(line.endswith("worse_past_bound  noisy") for line in printed) == 6


def test_line_counts_of_both_checkouts_are_stored_and_printed(tmp_path, monkeypatch, capsys):
    """``--against`` stores each checkout's ``src/polywsd/*.py`` line count beside the
    summary and prints both with their difference; other files do not count."""
    for side, files in (("parent", {"a.py": 5, "b.py": 3}), ("change", {"a.py": 2})):
        package = tmp_path / side / "src" / "polywsd"
        package.mkdir(parents=True)
        for name, n in files.items():
            (package / name).write_text("x = 1\n" * n)
        (package / "notes.txt").write_text("not code\n" * 50)
        (tmp_path / side / "setup.py").write_text("y = 2\n" * 50)

    def run_once(checkout, workload, seed):
        metrics = {"op_p50_cu": {"value": 1.0, "unit": "cu"}}
        return {"result": {"attempted": 100, "failed": 0, "metrics": metrics}}

    monkeypatch.setattr(bench_baseline, "run_once", run_once)
    monkeypatch.setattr(bench_baseline, "head", lambda checkout: checkout)
    monkeypatch.setattr(bench_baseline, "ROOT", str(tmp_path))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": list(METRICS.values())}))
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    assert bench_baseline.main(["--against", parent, "--checkout", change]) == 0
    stored = json.loads((tmp_path / "BENCH_pairs.json").read_text())
    assert stored["source_lines"] == {"parent": 8, "change": 2}
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "src/polywsd/*.py lines: parent 8  change 2  difference -6"
