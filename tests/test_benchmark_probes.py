"""The benchmark in ``perfbench/`` reaches the package by name; those names must exist,
and its workloads must still pass their own checks.

Its traced runs patch each probe at ``owner.__dict__[attr]``, and its
workloads import package functions directly. Renaming or deleting one of
them, or changing what a workload checks (say, a checkpoint round trip),
breaks the benchmark, so this fails first, in the test suite.
"""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_probe_names_a_function_of_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    importlib.import_module("workloads")  # its own imports of package names must resolve
    assert spans.PROBES
    for owner, attr, span_name, _ in spans.PROBES:
        assert attr in vars(owner), f"probe {span_name}: {owner.__name__}.{attr} is gone"


def test_every_workload_runs_correctly_at_tiny_scale(monkeypatch, tmp_path):
    """Each workload checks its own results (a bit-exact checkpoint round trip among
    them), so a package change that breaks one fails here, not only at bench time."""
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    for workload in workloads.WORKLOADS:
        workdir = tmp_path / workload
        workdir.mkdir()
        result, _, _ = workloads.run(
            workload, seed=3, seconds=0.5, trace=False, workdir=str(workdir), scale=workloads.TINY
        )
        assert result["correct"], f"{workload}: {result['failed']} of {result['attempted']} failed"
