"""Write ``BENCH_baseline.json``: the benchmark's end-to-end metrics, as medians
and interquartile ranges over repeated runs of the unedited harness.

    python3 scripts/bench_baseline.py [--checkout DIR]

Each of 5 rounds runs ``perfbench/run.py --workload W --seed S --seconds 20
--trace 0`` in ``--checkout`` (default: this repository) once per seed (1 and
2) and workload, the workloads alternating, one run at a time. The summary goes
to ``BENCH_baseline.json`` in this repository: per workload and seed, every
end-to-end metric's median and IQR and the attempted and failed op counts of
each run, with the checkout's commit and the harness's machine note.
Traced (``--trace 1``) metrics are left out: several read 0 on workloads that
exercise them, since the probes they need are not in the harness yet.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("bcl-desk", "allcand-polysemous", "predict-polysemous")
MACHINE_KEYS = ("cores", "python", "numpy", "scipy", "threads", "device_note")
ROUNDS, SEEDS, SECONDS = 5, (1, 2), 20


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One harness run: its context and result lines, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return {"workload": workload, "seed": seed, "context": json.loads(lines[-2])["context"],
            "result": json.loads(lines[-1])}


def summarize(runs: list[dict], commit: str) -> dict:
    """Medians and IQRs (``statistics.quantiles``, inclusive) per workload and seed."""
    cells = {}
    for run in runs:
        cells.setdefault(f"{run['workload']}/seed{run['seed']}", []).append(run)
    summary = {}
    for key, group in cells.items():
        results = [r["result"] for r in group]
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            metrics[name] = {"median": statistics.median(values), "iqr": q3 - q1,
                             "unit": first["unit"], "runs": values}
        summary[key] = {"runs": len(group), "correct": all(r["correct"] for r in results),
                        "attempted": [r["attempted"] for r in results],
                        "failed": [r["failed"] for r in results], "metrics": metrics}
    context = runs[0]["context"]
    return {
        "commit": commit,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "machine": {key: context[key] for key in MACHINE_KEYS if key in context},
        "traced_metrics": "left out: several read 0 on workloads that exercise them",
        "workloads": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", default=ROOT, help="the checkout whose harness runs")
    args = parser.parse_args(argv)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=args.checkout, capture_output=True, text=True, check=True
    ).stdout.strip()
    runs = [
        run_once(args.checkout, workload, seed)
        for _ in range(ROUNDS) for seed in SEEDS for workload in WORKLOADS
    ]
    with open(os.path.join(ROOT, "BENCH_baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(summarize(runs, commit), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
