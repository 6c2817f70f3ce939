"""Write ``BENCH_baseline.json``: the benchmark's end-to-end metrics, as medians
and interquartile ranges over repeated runs of the unedited harness; or, with
``--against``, compare two checkouts in alternating pairs.

    python3 scripts/bench_baseline.py [--checkout DIR]
    python3 scripts/bench_baseline.py --against PARENT [--checkout DIR]

Each of 5 rounds runs ``perfbench/run.py --workload W --seed S --seconds 20
--trace 0`` in ``--checkout`` (default: this repository) once per seed (1 and
2) and workload, the workloads alternating, one run at a time. The summary goes
to ``BENCH_baseline.json`` in this repository: per workload and seed, every
end-to-end metric's median and IQR and the attempted and failed op counts of
each run, with the checkout's commit and the harness's machine note.
Traced (``--trace 1``) metrics are left out: several read 0 on workloads that
exercise them, since the probes they need are not in the harness yet.

``--against PARENT`` runs 10 pairs per workload and seed instead, each pair one
run in ``PARENT`` and one in ``--checkout``, alternating which side runs first.
It prints, per workload, seed and end-to-end metric, each side's median and
quartiles, how many pairs the checkout won (ties count for neither side, and
"better" is the direction ``BENCHMARK.json`` gives), and the ratio of the
medians. A gain may be claimed where the checkout wins at least 9 of 10 pairs
and the medians differ by more than the parent's interquartile range. Beside
``peak_rss_mb`` it gives the ratio of the median attempted op counts
(checkout / parent): the harness keeps bookkeeping per op, so a faster op
raises peak RSS. Each row is also marked ``worse_past_bound`` where the
checkout's median is worse than the parent's by more than that metric's
``BENCHMARK.json`` bound, as a share of the parent's median, and ``noisy``
where the parent's interquartile range alone is wider than that share: there
the bound cannot tell a regression from the spread of one commit's runs.
Per workload and metric, ``claimable_on_both_seeds`` holds where every seed's
row is claimable and their ratios lie on one side of 1, since one seed's 10
pairs alone can clear the rule by chance on a change within noise; it is
printed after the rows, naming each such workload and metric. Every run goes
to ``BENCH_pairs.json`` in this repository with that summary, those flags,
and each checkout's counts of ``src/polywsd/*.py`` lines: all of them
(``source_lines``) and those that hold code (``code_lines``: no docstring,
comment or blank line). It prints both last, with their differences, so a
change quotes its size from the run that times it.
"""

from __future__ import annotations

import argparse
import ast
import glob
import io
import json
import os
import statistics
import subprocess
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("bcl-desk", "allcand-polysemous", "predict-polysemous")
MACHINE_KEYS = ("cores", "python", "numpy", "scipy", "threads", "device_note")
ROUNDS, SEEDS, SECONDS = 5, (1, 2), 20
PAIRS = 10


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


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _ratio(change: float, parent: float) -> float | None:
    return change / parent if parent else None


def _shown(ratio: float | None) -> str:
    return "-" if ratio is None else f"{ratio:.4f}"


def compare_pairs(pairs: list[dict], metrics: dict[str, dict]) -> list[dict]:
    """Per workload, seed and metric: both sides' quartiles, the checkout's wins,
    the ratio of the medians (checkout / parent) and the two bound marks, from
    ``metrics``' entries (``BENCHMARK.json``'s end-to-end ones, by name); the
    ``peak_rss_mb`` row also has ``attempted_ratio``, that of the median attempted
    op counts."""
    cells = {}
    for pair in pairs:
        cells.setdefault((pair["workload"], pair["seed"]), []).append(pair)
    rows = []
    for (workload, seed), group in cells.items():
        attempted = [statistics.median(p[side]["attempted"] for p in group)
                     for side in ("change", "parent")]
        for name, first in group[0]["parent"]["metrics"].items():
            parent = [p["parent"]["metrics"][name]["value"] for p in group]
            change = [p["change"]["metrics"][name]["value"] for p in group]
            spec = metrics.get(name, {})
            sign = -1.0 if spec.get("better") == "lower" else 1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
            # the bound, as a share of the parent's median, in the metric's unit
            share = spec["bound"] * abs(pm) if "bound" in spec else float("inf")
            rows.append({
                "workload": workload, "seed": seed, "metric": name, "unit": first["unit"],
                "parent": [p1, pm, p3], "change": [c1, cm, c3], "pairs": len(group),
                "change_won": wins, "ratio": _ratio(cm, pm),
                "claimable": wins * 10 >= 9 * len(group) and abs(cm - pm) > p3 - p1,
                "worse_past_bound": sign * (pm - cm) > share, "noisy": p3 - p1 > share,
            })
            if name == "peak_rss_mb":
                rows[-1]["attempted_ratio"] = _ratio(*attempted)
    return rows


def _claimable_together(rows: list[dict]) -> bool:
    """Whether ``rows``, one per seed and at least two, are all claimable with their
    ratios all above 1 or all below it."""
    if len(rows) < 2 or not all(r["claimable"] and r["ratio"] is not None for r in rows):
        return False
    return len({r["ratio"] > 1 for r in rows}) == 1


def claimable_on_both_seeds(rows: list[dict]) -> dict[str, dict[str, bool]]:
    """Per workload and metric of ``compare_pairs``' rows: whether a claim holds on
    every seed together (``_claimable_together``)."""
    cells: dict[str, dict[str, list[dict]]] = {}
    for row in rows:
        cells.setdefault(row["workload"], {}).setdefault(row["metric"], []).append(row)
    return {
        workload: {metric: _claimable_together(group) for metric, group in metrics.items()}
        for workload, metrics in cells.items()
    }


def source_lines(checkout: str) -> int:
    """How many lines the checkout's ``src/polywsd/*.py`` hold."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "polywsd", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


# tokens that hold no code: a line of only these is blank or a comment
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(checkout: str) -> int:
    """How many lines of the checkout's ``src/polywsd/*.py`` hold a token that is not
    a comment, a line break or a docstring (found with ``ast``)."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "polywsd", "*.py")):
        with open(path, "rb") as fh:
            source = fh.read()
        docstrings = [
            ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
            for owner in ast.walk(ast.parse(source))
            if isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and owner.body and isinstance(node := owner.body[0], ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
        ]
        lines = set()
        for token in tokenize.tokenize(io.BytesIO(source).readline):
            if token.type in _NOT_CODE or any(
                start <= token.start and token.end <= end for start, end in docstrings
            ):
                continue
            lines.update(range(token.start[0], token.end[0] + 1))
        total += len(lines)
    return total


def run_pairs(parent: str, checkout: str) -> dict:
    """``PAIRS`` alternating pairs per workload and seed, and their comparison."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    pairs = []
    for i in range(PAIRS):
        for seed in SEEDS:
            for workload in WORKLOADS:
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                dirs = {"parent": parent, "change": checkout}
                runs = {side: run_once(dirs[side], workload, seed)["result"] for side in sides}
                pairs.append({"workload": workload, "seed": seed, "first": sides[0], **runs})
    dirs = {"parent": parent, "change": checkout}
    summary = compare_pairs(pairs, metrics)
    return {
        "commits": {side: head(path) for side, path in dirs.items()},
        "source_lines": {side: source_lines(path) for side, path in dirs.items()},
        "code_lines": {side: code_lines(path) for side, path in dirs.items()},
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "summary": summary, "claimable_on_both_seeds": claimable_on_both_seeds(summary),
        "pairs": pairs,
    }


def head(checkout: str) -> str:
    """The checkout's commit, suffixed ``-dirty`` if its tracked files differ from it."""
    return subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", default=ROOT, help="the checkout whose harness runs")
    parser.add_argument("--against", help="compare --checkout with this parent checkout")
    args = parser.parse_args(argv)
    if args.against:
        result = run_pairs(args.against, args.checkout)
        with open(os.path.join(ROOT, "BENCH_pairs.json"), "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
        for row in result["summary"]:
            (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
            line = (f"{row['workload']:<20} seed {row['seed']} {row['metric']:<24} "
                    f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
                    f"won {row['change_won']}/{row['pairs']}  ratio {_shown(row['ratio'])}")
            if "attempted_ratio" in row:
                line += f"  attempted ratio {_shown(row['attempted_ratio'])}"
            marks = [mark for mark in ("claimable", "worse_past_bound", "noisy") if row[mark]]
            print("  ".join([line, *marks]))
        both = [f"{workload} {metric}"
                for workload, metrics in result["claimable_on_both_seeds"].items()
                for metric, claimable in metrics.items() if claimable]
        print(f"claimable on both seeds: {', '.join(both) or 'none'}")
        for key, label in (("code_lines", "code lines"), ("source_lines", "lines")):
            lines = result[key]
            print(f"src/polywsd/*.py {label}: parent {lines['parent']}  change {lines['change']}  "
                  f"difference {lines['change'] - lines['parent']:+d}")
        return 0
    runs = [
        run_once(args.checkout, workload, seed)
        for _ in range(ROUNDS) for seed in SEEDS for workload in WORKLOADS
    ]
    with open(os.path.join(ROOT, "BENCH_baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(summarize(runs, head(args.checkout)), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
