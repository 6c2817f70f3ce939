"""The golden run: one tiny seeded CLI run per training mode, pinned bit for bit.

Each run is ``polywsd synth`` (10 lemmas x 3 senses x 50 instances, seed 0),
``polywsd train`` for 2 epochs at the CLI defaults, then ``polywsd predict``
on the training corpus. The fixture keeps, per mode, the per-step losses as
float hex, the checkpoint's SHA-256 and the predictions file, next to a note
of what fixes the rounding: numpy's version and its BLAS.

Regenerate the fixture from the repository root with

    PYTHONPATH=src python tests/golden_run.py

A change that moves rounding on purpose regenerates it, and lists the old and
new checkpoint digests and the reason in CHANGES.md.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import tempfile

import numpy as np

from polywsd.cli import main
from polywsd.training import MODES

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "golden_run.json")
SYNTH = ("--lemmas", "10", "--senses", "3", "--instances", "50", "--seed", "0")
EPOCHS = 2


def _blas_core() -> str:
    """The CPU core OpenBLAS chose for its kernels (e.g. "SkylakeX"), if numpy ships it."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"


def machine_note() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_core": _blas_core(),
    }


def _run(*argv: str) -> None:
    if main(list(argv)) != 0:
        raise RuntimeError(f"polywsd {' '.join(argv)} failed")


def golden_run(workdir) -> dict:
    """Per mode: step losses as float hex, the checkpoint's SHA-256, the predictions."""
    world = os.path.join(workdir, "world")
    _run("synth", "--out-dir", world, *SYNTH)
    config = os.path.join(workdir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"train": {"epochs": EPOCHS}}, fh)
    data = (
        "--corpus", os.path.join(world, "corpus.jsonl"),
        "--inventory", os.path.join(world, "inventory.jsonl"),
    )
    runs = {}
    for mode in MODES:
        checkpoint, metrics, predictions = (
            os.path.join(workdir, f"{mode}.{ext}") for ext in ("ckpt", "jsonl", "tsv")
        )
        _run("train", *data, "--config", config, "--mode", mode,
             "--out", checkpoint, "--metrics", metrics)
        _run("predict", "--checkpoint", checkpoint, *data, "--out", predictions)
        with open(metrics, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        with open(checkpoint, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with open(predictions, encoding="utf-8") as fh:
            predicted = fh.read()
        runs[mode] = {
            "losses": [float.hex(r["loss"]) for r in records if r["kind"] == "step"],
            "checkpoint_sha256": digest,
            "predictions": predicted,
        }
    return runs


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        fixture = {"note": machine_note(), "runs": golden_run(workdir)}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for mode, run in fixture["runs"].items():
        print(f"{mode}: {len(run['losses'])} steps, checkpoint {run['checkpoint_sha256']}")
