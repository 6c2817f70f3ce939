"""Versioned binary checkpoints with bit-exact tensor round trips.

Layout (all integers little-endian):

    magic   4 bytes  b"PWCK"
    version u32
    hlen    u64      length of the JSON header
    header  hlen bytes of UTF-8 JSON: configs, vocab tokens (id order),
                     run seed, step counter, parameter manifest
                     (names + shapes), optional optimizer hyperparameters
    blobs            one u64 length + raw little-endian float64 payload per
                     parameter in manifest order, then (if optimizer state
                     is present) the first- and second-moment blobs in the
                     same order

Version 2 stores each attention projection as one tensor, its heads in
column blocks; version 1 files, with one tensor per head, are rejected.

Writes go to a temp file in the target directory and are renamed into
place, so a crash never leaves a half-written checkpoint at the final path.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .data import Vocab, parse_json
from .encoder import EncoderConfig
from .errors import CheckpointError, ConfigError, check_optimizer_settings, is_count
from .fusion import FusionConfig
from .model import WsdModel, build_model
from .training import Adam

MAGIC = b"PWCK"
FORMAT_VERSION = 2
_OPTIMIZER_SETTINGS = ("learning_rate", "beta1", "beta2", "eps")


@dataclass
class Checkpoint:
    model: WsdModel
    optimizer: Adam | None
    seed: int
    step: int


def _tensor_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(
    path, model: WsdModel, optimizer: Adam | None, seed: int, step: int
) -> None:
    named = model.named_parameters()
    header = {
        "context_config": asdict(model.context_config),
        "gloss_config": asdict(model.gloss_config),
        "fusion_config": asdict(model.fusion_config),
        "vocab": model.vocab.tokens_in_id_order(),
        "seed": int(seed),
        "step": int(step),
        "params": [
            {"name": name, "shape": list(tensor.shape)} for name, tensor in named
        ],
        "optimizer": None
        if optimizer is None
        else {name: getattr(optimizer, name) for name in (*_OPTIMIZER_SETTINGS, "t")},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for _, tensor in named:
                blob = _tensor_bytes(tensor.data)
                fh.write(struct.pack("<Q", len(blob)))
                fh.write(blob)
            if optimizer is not None:
                for state in (optimizer.m, optimizer.v):
                    for arr in state:
                        blob = _tensor_bytes(arr)
                        fh.write(struct.pack("<Q", len(blob)))
                        fh.write(blob)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def _read_blob(fh, shape, what: str) -> np.ndarray:
    (nbytes,) = struct.unpack("<Q", _read_exact(fh, 8, f"{what} length"))
    expected = int(np.prod(shape, dtype=np.int64)) * 8 if shape else 8
    if nbytes != expected:
        raise CheckpointError(f"{what}: blob of {nbytes} bytes, expected {expected}")
    raw = _read_exact(fh, nbytes, what)
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _check_optimizer_header(header) -> None:
    """The hyperparameters must pass ``check_optimizer_settings`` and the step
    counter ``t`` be a non-negative int; a missing or bad field is a CheckpointError."""
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint optimizer header is not an object: {header!r}")
    for name in (*_OPTIMIZER_SETTINGS, "t"):
        if name not in header:
            raise CheckpointError(f"incomplete checkpoint header: no optimizer field {name!r}")
    if not is_count(header["t"]):
        raise CheckpointError(f"checkpoint optimizer field 't' has bad value {header['t']!r}")
    try:
        check_optimizer_settings(**{name: header[name] for name in _OPTIMIZER_SETTINGS})
    except ConfigError as exc:
        raise CheckpointError(f"bad checkpoint optimizer field: {exc}") from None


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint file")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format version {version} is incompatible with "
                f"supported version {FORMAT_VERSION}"
            )
        (hlen,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if hlen > remaining:
            raise CheckpointError(
                f"header length {hlen} exceeds the {remaining} bytes left in the file"
            )
        header = parse_json(
            _read_exact(fh, hlen, "header"), path, CheckpointError, "checkpoint header"
        )

        try:
            context_config = EncoderConfig(**header["context_config"])
            gloss_config = EncoderConfig(**header["gloss_config"])
            fusion_config = FusionConfig(**header["fusion_config"])
            tokens = header["vocab"]
            manifest = header["params"]
            seed = header["seed"]
            step = header["step"]
            optimizer_header = header["optimizer"]
            for name, value in (("seed", seed), ("step", step)):
                if not is_count(value):
                    raise CheckpointError(f"bad checkpoint header field {name!r}: {value!r}")
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise CheckpointError("checkpoint vocab is not a list of strings")
            if optimizer_header is not None:
                _check_optimizer_header(optimizer_header)
            model = build_model(
                context_config, gloss_config, fusion_config, Vocab.from_tokens(tokens), seed=seed
            )
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"incomplete checkpoint header: {exc}") from None
        except ConfigError as exc:
            raise CheckpointError(f"bad checkpoint config: {exc}") from None
        named = model.named_parameters()
        if not isinstance(manifest, list) or not all(isinstance(e, dict) for e in manifest):
            raise CheckpointError("checkpoint parameter manifest is not a list of objects")
        if [entry.get("name") for entry in manifest] != [name for name, _ in named]:
            raise CheckpointError("checkpoint parameter manifest does not match the model")
        for entry, (name, tensor) in zip(manifest, named):
            if entry.get("shape") != list(tensor.shape):
                raise CheckpointError(
                    f"parameter {name}: stored shape {entry.get('shape')}, "
                    f"model has {list(tensor.shape)}"
                )
            tensor.data = np.ascontiguousarray(_read_blob(fh, tensor.shape, f"parameter {name}"))

        optimizer = None
        if optimizer_header is not None:
            optimizer = Adam(
                model.parameters(), **{k: optimizer_header[k] for k in _OPTIMIZER_SETTINGS}
            )
            optimizer.t = optimizer_header["t"]
            optimizer.m, optimizer.v = (
                [_read_blob(fh, t.shape, f"{which} moment of {n}") for n, t in named]
                for which in ("first", "second")
            )
        if fh.read(1):
            raise CheckpointError("trailing bytes after checkpoint payload")
    return Checkpoint(model=model, optimizer=optimizer, seed=seed, step=step)
