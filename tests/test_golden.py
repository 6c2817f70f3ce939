"""The golden run: training losses, checkpoint bytes and predictions do not drift.

On the host the fixture was made on (same numpy, BLAS build and BLAS core),
every bit must match. Elsewhere, losses must agree within 1e-12 and the
predictions exactly. ``tests/golden_run.py`` regenerates the fixture.
"""

import json

from golden_run import FIXTURE, golden_run, machine_note


def test_golden_run(tmp_path):
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = golden_run(tmp_path)
    assert sorted(got) == sorted(expected["runs"])
    if machine_note() == expected["note"]:
        assert got == expected["runs"]
        return
    for mode, run in expected["runs"].items():
        losses = [float.fromhex(x) for x in got[mode]["losses"]]
        want = [float.fromhex(x) for x in run["losses"]]
        assert len(losses) == len(want), mode
        assert max(abs(a - b) for a, b in zip(losses, want)) <= 1e-12, mode
        assert got[mode]["predictions"] == run["predictions"], mode
