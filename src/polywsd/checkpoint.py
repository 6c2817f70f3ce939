"""Versioned binary checkpoints with bit-exact tensor round trips.

Layout (all integers little-endian):

    magic   4 bytes  b"PWCK"
    version u32
    hlen    u64      length of the JSON header
    header  hlen bytes of UTF-8 JSON: configs, vocab tokens (id order),
                     run seed, step counter, parameter manifest
                     (names + shapes), optional optimizer hyperparameters
    payload          float64 values of every parameter in manifest order, then
                     (with optimizer state) every first and every second moment
    crc     u32      CRC32 (zlib) of all preceding bytes

The manifest shapes alone fix the payload's layout. The checksum makes any
flipped or missing byte a ``CheckpointError``; version 1 files (one tensor per
attention head) and version 2 files (no checksum) are rejected. Writes go to
a temp file in the target directory and are renamed into place, so a crash
never leaves a half-written checkpoint at the final path.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import tempfile
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .data import Vocab, parse_json
from .encoder import EncoderConfig
from .errors import CheckpointError, ConfigError, ContractError, check_optimizer_settings, is_count
from .fusion import FusionConfig
from .model import WsdModel, memory_ceiling, model_on, parameter_count
from .training import Adam

MAGIC = b"PWCK"
FORMAT_VERSION = 3
_PREAMBLE = struct.Struct("<4sIQ")  # magic, version, header length
_CRC = struct.Struct("<I")
_CHUNK_BYTES = 1 << 20  # the read size of a checksum pass over a file of the wrong size
_OPTIMIZER_SETTINGS = ("learning_rate", "beta1", "beta2", "eps")


@dataclass
class Checkpoint:
    model: WsdModel
    optimizer: Adam | None
    seed: int
    step: int


def save_checkpoint(
    path, model: WsdModel, optimizer: Adam | None, seed: int, step: int
) -> None:
    named = model.named_parameters()
    if optimizer is not None and optimizer.values is not model.values:
        raise ContractError("the optimizer does not hold exactly this model's parameters, in order")
    header = {
        "context_config": asdict(model.context.config),
        "gloss_config": asdict(model.gloss.config),
        "fusion_config": asdict(model.fusion.config),
        "vocab": model.vocab.tokens_in_id_order(),
        "seed": int(seed),
        "step": int(step),
        "params": [{"name": name, "shape": list(tensor.shape)} for name, tensor in named],
        "optimizer": None
        if optimizer is None
        else {name: getattr(optimizer, name) for name in (*_OPTIMIZER_SETTINGS, "t")},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [_PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header_bytes)), header_bytes]
    moments = [] if optimizer is None else [optimizer.m_flat, optimizer.v_flat]
    parts += [np.ascontiguousarray(a, dtype="<f8") for a in (model.values, *moments)]

    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            crc = 0  # the parts go out one by one, never joined into one copy
            for part in parts:
                fh.write(part)
                crc = zlib.crc32(part, crc)
            fh.write(_CRC.pack(crc))
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


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


def _check_crc(fh, path, crc: int, count: int) -> None:
    """Raise CheckpointError unless the next ``count`` bytes of ``fh``, read a chunk at
    a time, continue CRC32 ``crc`` to the value of the trailer that ends the file."""
    while count > 0 and (chunk := fh.read(min(count, _CHUNK_BYTES))):
        crc, count = zlib.crc32(chunk, crc), count - len(chunk)
    if count or fh.read(_CRC.size + 1) != _CRC.pack(crc):
        raise CheckpointError(f"{path}: checksum mismatch, the file is truncated or damaged")


def _read_values(fh, out: np.ndarray, crc: int) -> int:
    """Fill float64 ``out`` with the next little-endian values of ``fh``, and return
    CRC32 ``crc`` continued over their bytes; a short read fails the checksum."""
    raw = memoryview(out).cast("B")
    fh.readinto(raw)
    crc = zlib.crc32(raw, crc)
    if sys.byteorder == "big":
        out.byteswap(inplace=True)
    return crc


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path``. Its header is checked against the file's size, and
    the payload it implies against the file and the memory left, before any payload
    byte is read; the payload then goes straight into the model's value buffer and the
    optimizer's moments, the checksum chained over every part. Damage is named first:
    a file whose size is wrong fails as damaged unless its checksum holds."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(_PREAMBLE.size)
        if preamble[:4] != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint file")
        if file_size < _PREAMBLE.size + _CRC.size:
            raise CheckpointError(f"truncated checkpoint of {file_size} bytes")
        _, version, hlen = _PREAMBLE.unpack(preamble)
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format version {version} is incompatible with "
                f"supported version {FORMAT_VERSION}"
            )
        payload = file_size - _CRC.size - _PREAMBLE.size - hlen
        if payload < 0:
            raise CheckpointError(
                f"header length {hlen} exceeds the file size of {file_size} bytes"
            )
        try:
            header_bytes = fh.read(hlen)
            header = parse_json(header_bytes, path, CheckpointError, "checkpoint header")
        except MemoryError:
            raise CheckpointError(f"{path}: a {hlen}-byte header does not fit in memory") from None
        crc = zlib.crc32(header_bytes, zlib.crc32(preamble))
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
            # parameters, then (with optimizer state) both moments: sized before anything is read
            copies = 1 if optimizer_header is None else 3
            size = parameter_count(context_config, gloss_config, fusion_config)
            if payload != (expected := 8 * copies * size):
                _check_crc(fh, path, crc, payload)  # a damaged file is named as such
                raise CheckpointError(f"payload of {payload} bytes, expected {expected} bytes")
            need = 8 * size * (1 if optimizer_header is None else 1 + Adam.BUFFERS)
            if need > (ceiling := memory_ceiling()):
                raise CheckpointError(
                    f"{path}: loading {size} parameter values needs {need} bytes, more than "
                    f"the {ceiling} bytes of memory left"
                )
            vocab = Vocab.from_tokens(tokens)
            model = model_on(np.empty(size), context_config, gloss_config, fusion_config, vocab)
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"incomplete checkpoint header: {exc}") from None
        except ConfigError as exc:
            raise CheckpointError(f"bad checkpoint config: {exc}") from None
        optimizer, parts = None, [model.values]
        if optimizer_header is not None:
            settings = {name: optimizer_header[name] for name in _OPTIMIZER_SETTINGS}
            optimizer = Adam(model.parameters(), **settings)
            optimizer.t = optimizer_header["t"]
            parts += [optimizer.m_flat, optimizer.v_flat]
        for part in parts:
            crc = _read_values(fh, part, crc)
        _check_crc(fh, path, crc, 0)
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
    return Checkpoint(model=model, optimizer=optimizer, seed=seed, step=step)
