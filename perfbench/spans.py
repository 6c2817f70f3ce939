"""Spans around the program's public calls, recorded only in the traced run.

Each probe replaces a function at the name its caller looks it up by
(``encode`` as ``polywsd.model.encode``, ``backward`` as
``polywsd.training.backward``), records one span per call and restores the
original when recording ends. A span is ``[name, start, end, parent, attrs]``
with ``parent`` the index of the enclosing span (-1 at top level). Spans
stay in memory until ``write`` saves them at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import polywsd.model
import polywsd.training

# the package re-exports the function ``predict`` under the submodule's name
predict_module = importlib.import_module("polywsd.predict")


def _backward_attrs(args, kwargs, result):
    return {"records": len(args[1])}


def _mask_attrs(args, kwargs, result):
    return {"masked": int(result.sum()), "cells": result.shape[0] * (result.shape[0] - 1)}


def _encode_attrs(args, kwargs, result):
    return {"real": len(args[1]) + 2, "computed": result.shape[0]}


# (owner, attribute, span name, attrs from (args, kwargs, result))
PROBES = [
    (polywsd.training, "backward", "tensor.backward", _backward_attrs),
    (polywsd.training.Adam, "step", "training.adam", None),
    (polywsd.training, "fusion_matrix", "training.fusion_matrix", None),
    (polywsd.training, "bcl_loss", "training.bcl_loss", None),
    (polywsd.training, "duplicate_gloss_mask", "training.duplicate_gloss_mask", _mask_attrs),
    (polywsd.training, "context_codes", "model.context_codes", None),
    (polywsd.training, "gloss_codes", "model.gloss_codes", None),
    (predict_module, "score_candidates", "predict.score_candidates", None),
    (predict_module, "context_codes", "model.context_codes", None),
    (predict_module, "gloss_codes", "model.gloss_codes", None),
    (polywsd.model, "encode", "encoder.encode", _encode_attrs),
    (polywsd.model, "fuse_context", "fusion.fuse_context", None),
    (polywsd.model, "fuse_gloss", "fusion.fuse_gloss", None),
]


class Tracer:
    """Spans of one run; ``enabled`` is false in an untraced run, which records none."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, attrs: dict | None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself."""
        if not self.enabled:
            yield
            return
        index = self._open(name, None)
        try:
            yield
        finally:
            self._close(index)

    def _probe(self, original, name, describe):
        def probed(*args, **kwargs):
            index = self._open(name, None)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if describe is not None:
                self.spans[index][4] = describe(args, kwargs, result)
            return result

        return probed

    @contextmanager
    def record(self, enabled: bool):
        """Install every probe for the duration of the block."""
        if not (enabled and self.enabled):
            yield
            return
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in PROBES]
        for (owner, attr, name, describe), (_, _, original) in zip(PROBES, originals):
            setattr(owner, attr, self._probe(original, name, describe))
        try:
            yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def summary(self, ranges: list[tuple[int, int]] | None = None) -> dict[str, dict]:
        """Per span name: count, inclusive and self seconds, and summed numeric attrs.

        ``ranges`` limits the summary to those index ranges of spans. An
        ``encoder.encode`` span is also summed under ``encoder.encode.context``
        or ``encoder.encode.gloss`` by the codes call that made it.
        """
        indices = range(len(self.spans)) if ranges is None else [i for a, b in ranges for i in range(a, b)]
        child_time = defaultdict(float)
        for index in indices:
            _, start, end, parent, _ = self.spans[index]
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index in indices:
            name, start, end, parent, attrs = self.spans[index]
            names = [name]
            if name == "encoder.encode" and parent >= 0:
                side = self.spans[parent][0].removeprefix("model.").removesuffix("_codes")
                names.append(f"{name}.{side}")
                attrs = {**(attrs or {}), side: 1}
            for key in names:
                entry = out.setdefault(key, {"count": 0, "total_s": 0.0, "self_s": 0.0})
                entry["count"] += 1
                entry["total_s"] += end - start
                entry["self_s"] += end - start - child_time[index]
                for attr, value in (attrs or {}).items():
                    entry[attr] = entry.get(attr, 0) + value
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, attrs) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    record["attrs"] = attrs
                fh.write(json.dumps(record) + "\n")
