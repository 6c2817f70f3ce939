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
    BETTER = {m["name"]: m["better"] for m in json.load(_fh)["end_to_end"]}


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
    assert BETTER["op_p50_cu"] == "lower" and BETTER["items_per_cu"] == "higher"
    parent = {"attempted": [100] * 10, "op_p50_cu": [1.0] * 10, "items_per_cu": [1.0] * 10}
    change = {"attempted": [100] * 10, "op_p50_cu": [0.9] * 10, "items_per_cu": [1.1] * 10}
    rows = bench_baseline.compare_pairs(_pairs(parent, change), BETTER)
    assert _row(rows, "op_p50_cu")["change_won"] == 10
    assert _row(rows, "items_per_cu")["change_won"] == 10
    swapped = bench_baseline.compare_pairs(_pairs(change, parent), BETTER)
    assert _row(swapped, "op_p50_cu")["change_won"] == 0
    assert _row(swapped, "items_per_cu")["change_won"] == 0


def test_ties_count_for_neither_side():
    parent = {"attempted": [100] * 10, "op_p50_cu": [1.0] * 10}
    change = {"attempted": [100] * 10, "op_p50_cu": [1.0] * 6 + [0.5] * 4}
    row = _row(bench_baseline.compare_pairs(_pairs(parent, change), BETTER), "op_p50_cu")
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
        _pairs(parent, {"attempted": [100] * 10, "op_p50_cu": change}), BETTER
    )
    row = _row(rows, "op_p50_cu")
    p1, pm, p3 = row["parent"]
    assert (pm, p3 - p1) == (1.0, pytest.approx(0.03))
    assert row["claimable"] is claimable


def test_ratio_is_none_when_the_parent_median_is_zero():
    parent = {"attempted": [100] * 10, "op_p50_cu": [0.0] * 10, "success_rate": [1.0] * 10}
    change = {"attempted": [100] * 10, "op_p50_cu": [0.5] * 10, "success_rate": [0.5] * 10}
    rows = bench_baseline.compare_pairs(_pairs(parent, change), BETTER)
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
    rows = bench_baseline.compare_pairs(pairs, BETTER)
    ratios = {r["seed"]: r["attempted_ratio"] for r in rows if r["metric"] == "peak_rss_mb"}
    assert ratios == {1: pytest.approx(1.1), 2: pytest.approx(0.9)}
    assert all("attempted_ratio" not in r for r in rows if r["metric"] != "peak_rss_mb")
