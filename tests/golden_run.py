"""The golden run: tiny seeded CLI runs per training mode, pinned bit for bit.

Each run is ``polywsd train`` for 2 epochs, then ``polywsd predict`` on the
training corpus, on one of two worlds:

* ``polywsd synth`` (10 lemmas x 3 senses x 50 instances, seed 0) at the CLI
  defaults, run ``<mode>``. Every context has 6 words and every gloss 3, so
  no batch is padded.
* a seeded world of varied lengths that this script writes
  (``write_padded_world``: contexts of 4-30 words, glosses of 2-14) with
  ``max_seq_len`` 32, run ``<mode>/padded``. Its batches pin masked
  self-attention, the gloss side's one-query attention over padded keys and
  the position adjoint under padding.

The fixture keeps, per run, the per-step losses as float hex, the
checkpoint's SHA-256 and the predictions file, next to a note of what fixes
the rounding: numpy's version and its BLAS.

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
from polywsd.data import (
    POS_TAGS, CorpusInstance, SenseEntry, SenseInventory, save_corpus, save_inventory,
)
from polywsd.training import MODES

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "golden_run.json")
SYNTH = ("--lemmas", "10", "--senses", "3", "--instances", "50", "--seed", "0")
EPOCHS = 2
PADDED_SEED, PADDED_LEMMAS, PADDED_SENSES, PADDED_INSTANCES = 0, 4, 3, 48
CONTEXT_WORDS, GLOSS_WORDS = (4, 30), (2, 14)  # inclusive ranges, drawn per item
PADDED_ENCODER = {"max_seq_len": 32}  # the longest context fits with both markers


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


def _words(rng: np.random.Generator, prefix: str, n: int) -> list[str]:
    return [f"{prefix}{j}" for j in rng.integers(8, size=n)]


def write_padded_world(world: str) -> None:
    """Write ``corpus.jsonl`` and ``inventory.jsonl`` into ``world``: 4 lemmas x 3
    senses, 48 instances, every length drawn from ``PADDED_SEED``. A gloss is its
    sense's cue word then filler words; a context holds the lemma at a drawn index
    with the cue word after it (before it at the end)."""
    rng = np.random.default_rng(PADDED_SEED)
    inventory, instances = SenseInventory(), []
    for i in range(PADDED_LEMMAS):
        senses = []
        for k in range(PADDED_SENSES):
            n = int(rng.integers(GLOSS_WORDS[0], GLOSS_WORDS[1] + 1))
            senses.append(SenseEntry(f"term{i}%{k + 1}", [f"cue{i}x{k}", *_words(rng, "g", n - 1)]))
        inventory.add(f"term{i}", POS_TAGS[i % len(POS_TAGS)], senses)
    for n in range(PADDED_INSTANCES):
        i, k = n % PADDED_LEMMAS, (n // PADDED_LEMMAS) % PADDED_SENSES
        tokens = _words(rng, "w", int(rng.integers(CONTEXT_WORDS[0], CONTEXT_WORDS[1] + 1)))
        target = int(rng.integers(len(tokens)))
        tokens[target] = f"term{i}"
        tokens[target + 1 if target + 1 < len(tokens) else target - 1] = f"cue{i}x{k}"
        instances.append(CorpusInstance(
            f"pad{n:04d}", tokens, target, f"term{i}", POS_TAGS[i % len(POS_TAGS)],
            gold=f"term{i}%{k + 1}",
        ))
    os.makedirs(world)
    save_corpus(os.path.join(world, "corpus.jsonl"), instances)
    save_inventory(os.path.join(world, "inventory.jsonl"), inventory)


def _mode_runs(world: str, config: dict, suffix: str) -> dict:
    """Per mode, run ``mode + suffix``: train on the ``world`` directory's corpus and
    inventory with ``config`` and predict, writing every output into ``world``."""
    config_path = os.path.join(world, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    data = (
        "--corpus", os.path.join(world, "corpus.jsonl"),
        "--inventory", os.path.join(world, "inventory.jsonl"),
    )
    runs = {}
    for mode in MODES:
        checkpoint, metrics, predictions = (
            os.path.join(world, f"{mode}.{ext}") for ext in ("ckpt", "jsonl", "tsv")
        )
        _run("train", *data, "--config", config_path, "--mode", mode,
             "--out", checkpoint, "--metrics", metrics)
        _run("predict", "--checkpoint", checkpoint, *data, "--out", predictions)
        with open(metrics, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        with open(checkpoint, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with open(predictions, encoding="utf-8") as fh:
            predicted = fh.read()
        runs[mode + suffix] = {
            "losses": [float.hex(r["loss"]) for r in records if r["kind"] == "step"],
            "checkpoint_sha256": digest,
            "predictions": predicted,
        }
    return runs


def golden_run(workdir) -> dict:
    """Per run: step losses as float hex, the checkpoint's SHA-256, the predictions."""
    world, padded = os.path.join(workdir, "world"), os.path.join(workdir, "padded")
    _run("synth", "--out-dir", world, *SYNTH)
    write_padded_world(padded)
    train = {"train": {"epochs": EPOCHS}}
    return {
        **_mode_runs(world, train, ""),
        **_mode_runs(padded, {**train, "encoder": PADDED_ENCODER}, "/padded"),
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        fixture = {"note": machine_note(), "runs": golden_run(workdir)}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, run in fixture["runs"].items():
        print(f"{name}: {len(run['losses'])} steps, checkpoint {run['checkpoint_sha256']}")
