"""Property tests: any damage to a text input ends as a PolyWsdError, never another exception.

Each test starts from a valid file, replaces one field with arbitrary JSON or
a whole line with arbitrary bytes (invalid UTF-8 included), and loads it.
Loading may succeed; the only exception allowed out is a ``PolyWsdError``.
Examples are derandomized so a failure reproduces.
"""

import argparse
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywsd.cli import DEFAULT_CONFIG, _build_world, _load_config
from polywsd.data import (
    load_corpus,
    load_gold_keys,
    load_inventory,
    load_predictions,
    save_corpus,
    save_inventory,
)
from polywsd.errors import PolyWsdError
from polywsd.evaluation import compare_costs, load_metrics, save_metrics
from polywsd.synthetic import synthetic_corpus
from polywsd.training import RunMetrics, StepRecord

from conftest import JSON_VALUES


def fuzz(max_examples=60):
    return settings(max_examples=max_examples, deadline=None, derandomize=True, database=None)


LINE_BYTES = st.binary(max_size=48)
CORPUS, INVENTORY = synthetic_corpus(n_lemmas=2, senses_per_lemma=2, n_instances=4, seed=0)
METRICS = RunMetrics(
    mode="bcl",
    fingerprint="f",
    records=[StepRecord(i, 0, 0.5, 4, 4, 0.01) for i in range(2)],
    wall_seconds=0.1,
)


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    """A directory holding a valid corpus, inventory and metrics log."""
    root = tmp_path_factory.mktemp("valid")
    save_corpus(root / "corpus.jsonl", CORPUS)
    save_inventory(root / "inventory.jsonl", INVENTORY)
    save_metrics(root / "metrics.jsonl", METRICS)
    return root


@pytest.fixture(scope="module")
def valid(valid_dir):
    """The lines of each valid file, as JSON objects."""
    return {
        name: [json.loads(line) for line in (valid_dir / name).read_text().splitlines()]
        for name in ("corpus.jsonl", "inventory.jsonl", "metrics.jsonl")
    }


def _replaced(record, path, value):
    """A deep copy of ``record`` with the field at key path ``path`` set to ``value``."""
    record = json.loads(json.dumps(record))
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return record


def _load_damaged(tmp_path_factory, lines, load):
    """Write ``lines`` (JSON objects or raw bytes) to a file and ``load`` it; only a
    PolyWsdError may escape."""
    path = tmp_path_factory.getbasetemp() / "damaged"
    path.write_bytes(
        b"\n".join(
            line if isinstance(line, bytes) else json.dumps(line).encode("utf-8")
            for line in lines
        )
    )
    try:
        load(path)
    except PolyWsdError:
        pass


@fuzz()
@given(
    field=st.sampled_from(["id", "tokens", "target_index", "lemma", "pos", "gold"]),
    value=JSON_VALUES,
    index=st.integers(0, len(CORPUS) - 1),
)
def test_corpus_field_replaced_by_any_json(tmp_path_factory, valid, field, value, index):
    lines = list(valid["corpus.jsonl"])
    lines[index] = _replaced(lines[index], [field], value)
    _load_damaged(tmp_path_factory, lines, load_corpus)


@fuzz()
@given(raw=LINE_BYTES, index=st.integers(0, len(CORPUS) - 1))
def test_corpus_line_replaced_by_any_bytes(tmp_path_factory, valid, raw, index):
    lines = list(valid["corpus.jsonl"])
    lines[index] = raw
    _load_damaged(tmp_path_factory, lines, load_corpus)


@fuzz()
@given(
    path=st.sampled_from(
        [["lemma"], ["pos"], ["senses"], ["senses", 0], ["senses", 1, "id"], ["senses", 1, "gloss"]]
    ),
    value=JSON_VALUES,
)
def test_inventory_field_replaced_by_any_json(tmp_path_factory, valid, path, value):
    lines = list(valid["inventory.jsonl"])
    lines[0] = _replaced(lines[0], path, value)
    _load_damaged(tmp_path_factory, lines, load_inventory)


@fuzz()
@given(raw=LINE_BYTES)
def test_inventory_line_replaced_by_any_bytes(tmp_path_factory, valid, raw):
    lines = list(valid["inventory.jsonl"])
    lines[0] = raw
    _load_damaged(tmp_path_factory, lines, load_inventory)


@fuzz()
@given(raw=st.binary(max_size=96))
def test_key_files_of_any_bytes(tmp_path_factory, raw):
    for load in (load_gold_keys, load_predictions):
        _load_damaged(tmp_path_factory, [raw], load)


_TRAIN_OPTIONAL = ("beta1", "beta2", "eps", "clip_norm")
_CONFIG_FIELDS = [[section] for section in DEFAULT_CONFIG] + [
    [section, key]
    for section, values in DEFAULT_CONFIG.items()
    for key in (*values, *(_TRAIN_OPTIONAL if section == "train" else ()))
]


@fuzz(80)
@given(field=st.sampled_from(_CONFIG_FIELDS), value=JSON_VALUES)
def test_config_value_replaced_by_any_json(tmp_path_factory, valid_dir, field, value):
    """The config is checked without training, since valid sizes may be arbitrarily large."""
    config = tmp_path_factory.getbasetemp() / "config.json"
    config.write_text(json.dumps(_replaced(DEFAULT_CONFIG, field, value)), encoding="utf-8")
    args = argparse.Namespace(
        corpus=valid_dir / "corpus.jsonl",
        inventory=valid_dir / "inventory.jsonl",
        config=config,
        seed=0,
    )
    try:
        _build_world(args, _load_config(args.config))
    except PolyWsdError:
        pass


def _use_metrics(path):
    """Load a metrics log and read every derived cost, as ``polywsd bench`` does."""
    metrics = load_metrics(path)
    compare_costs(metrics, metrics)
    return metrics.context_forwards, metrics.gloss_forwards, metrics.device_hours


@fuzz(80)
@given(
    index=st.integers(0, 3),
    field=st.sampled_from(
        ["kind", "mode", "fingerprint", "device_count", "step", "epoch", "loss",
         "context_forwards", "gloss_forwards", "elapsed", "wall_seconds"]
    ),
    value=JSON_VALUES,
)
def test_metrics_field_replaced_by_any_json(tmp_path_factory, valid, index, field, value):
    lines = list(valid["metrics.jsonl"])
    lines[index] = _replaced(lines[index], [field], value)
    _load_damaged(tmp_path_factory, lines, _use_metrics)


@fuzz()
@given(raw=LINE_BYTES, index=st.integers(0, 3))
def test_metrics_line_replaced_by_any_bytes(tmp_path_factory, valid, raw, index):
    lines = list(valid["metrics.jsonl"])
    lines[index] = raw
    _load_damaged(tmp_path_factory, lines, _use_metrics)
