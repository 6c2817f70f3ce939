"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bcl-desk --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``
next to this directory. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. The line before it carries the run's context (machine
note, raw ``calib_ms``, raw op times, failures). Results and, for traced
runs, the spans are also written under ``perfbench/out/``. The exit code is
1 when any output check failed and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("bcl-desk", "allcand-polysemous", "predict-polysemous")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _finite(result: dict) -> dict:
    # a failed run can leave a metric undefined; JSON has no NaN
    for metric in result["metrics"].values():
        if not math.isfinite(metric["value"]):
            metric["value"] = 0.0
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "polywsd", "__init__.py")):
        print(f"error: the program's sources are missing ({src})", file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread: must be set before numpy is first imported
    os.environ.update(
        {
            var: "1"
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS",
            )
        }
    )
    sys.path.insert(0, src)
    import workloads  # noqa: E402  (after the thread pinning above)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, context, tracer = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = _finite(result)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"context": context, "result": result}, fh, indent=1)
    if args.trace:
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
