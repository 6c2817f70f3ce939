"""The benchmark in ``perfbench/`` reaches the package by name; those names must exist.

Its traced runs patch each probe at ``owner.__dict__[attr]``, and its
workloads import package functions directly. Renaming or deleting one of
them breaks the benchmark, so this fails first, in the test suite.
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
