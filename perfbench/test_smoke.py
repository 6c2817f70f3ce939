"""Smoke test of the benchmark itself, at a tiny input size.

    python3 -m pytest -q perfbench/test_smoke.py

Not part of the repository's test suite (``testpaths`` names ``tests/``
only); it checks the benchmark, not the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny_run(workload: str, trace: bool, workdir) -> tuple[dict, dict]:
    result, context, _ = workloads.run(
        workload, seed=3, seconds=0.5, trace=trace, workdir=str(workdir), scale=workloads.TINY
    )
    return result, context


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result, context = tiny_run(workload, trace, tmp_path)
    assert result["correct"], context["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_a_broken_reference_prediction_is_a_failed_op(monkeypatch, tmp_path):
    real = workloads.reference_choice

    def off_by_one(model, instance, senses):
        return (real(model, instance, senses) + 1) % len(senses)

    monkeypatch.setattr(workloads, "reference_choice", off_by_one)
    result, context = tiny_run("predict-polysemous", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0
    assert context["error_rate"] > 0
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "bcl-desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
