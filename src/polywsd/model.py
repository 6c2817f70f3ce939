"""The full model: two independent encoders plus the fusion projections.

The context side encodes the whole sentence and fuses the target-word row
with its context into one code row; the gloss side encodes a definition and
takes its start-marker row as its code row. A pair scores the inner product
of the two rows. Both phases (training and prediction) use the same
full-context path through the same encoder stack and fusion attention.

Every encode is one padded pass of the encoder, however many layers and
sequences it has; padded positions are masked out of attention and change
no real row. Training builds each side of a batch in one pass, and each
side is one tape record: ``context_code_rows`` runs the context pass, the
target-row pick and the fusion attention as ``tensor`` kernels under one
VJP, and ``gloss_code_rows`` the gloss pass, whose start-marker rows are
the codes, so a forward records 4 ops (the two sides, the score product
``fusion.score_rows`` and the loss). Only the start-marker row of a gloss is
read, so ``gloss_code_rows`` has the last encoder layer compute that row
alone; the context side keeps every row, since fusion attends over them.
Prediction encodes one sequence per call, a batch of one: ``context_codes``
is 1 record, and ``gloss_codes`` 4 (``encode``, the start-marker pick and
``fuse_gloss``), since callers count gloss encodes by wrapping ``encode``
by name. Either way, encoder forwards are counted per sequence, not per pass.

Training tokenizes each distinct text once per model: ``id_index(model)``,
which lives as long as the model does, keeps one ``IdTable`` row of checked,
marker-wrapped ids per distinct gloss text and per distinct (context tokens,
target index), keyed by the word tuples, so an in-place edit is a new key. A
step takes its (b, L) ids by row number. The index assumes the vocabulary is
not edited, as the embedding tables are sized to it. Prediction does not read it.
Both fills and prediction's context rows build their ids, padding and target rows
with ``encoder.marked_ids``, the one builder.

A model owns one flat float64 buffer, ``values``, of which each parameter is
a view, in the order ``model_on`` states. ``build_model`` draws initial values
into a fresh buffer; ``load_checkpoint`` builds the model on the saved values
and draws nothing. An optimizer adopts the buffer; a checkpoint writes it whole.
A built model cannot be rewired: its fields, its encoders' fields and layers
and every tensor's ``data`` refuse assignment, so values are written in place.
So each part binds its kernel arguments when it is built (the model binds the
context side's record inputs, ``context_inputs``): a pass rebuilds no tuple,
and an in-place write lands in the arrays they hold.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from . import tensor as T
from .data import PAD_ID, CorpusInstance, Vocab, content_ids_around, lookup_ids
from .encoder import (
    EncoderConfig,
    EncoderParams,
    block_shapes,
    cls_representation,
    encode,
    encoder_kernel,
    encoder_params,
    init_encoder,
    marked_ids,
)
from .errors import ConfigError
# fuse_context stays a name here for profilers that wrap it; the context rows run its kernel
from .fusion import (
    FusionConfig,
    FusionParams,
    fuse_context,
    fuse_gloss,
    fusion_params,
    init_fusion,
)
from .tensor import Cutter, Tensor


@dataclass(frozen=True, eq=False)
class WsdModel:
    vocab: Vocab
    context: EncoderParams
    gloss: EncoderParams
    fusion: FusionParams
    # every parameter value in manifest order, and the gloss encoder's slice of them
    values: np.ndarray = field(repr=False)
    gloss_values: np.ndarray = field(repr=False)
    # the context encoder's inputs, then the fusion's weights
    context_inputs: tuple[Tensor, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "context_inputs", self.context.inputs + self.fusion.weights)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        named = list(self.context.named_tensors("context."))
        named.extend(self.gloss.named_tensors("gloss."))
        named.extend(self.fusion.named_tensors("fusion."))
        return named

    def parameters(self) -> list[Tensor]:
        return [tensor for _, tensor in self.named_parameters()]

    def parameter_norm(self) -> float:
        return float(np.sqrt(self.values.dot(self.values)))


def parameter_count(context: EncoderConfig, gloss: EncoderConfig, fusion: FusionConfig) -> int:
    """How many values ``model_on`` cuts for these configs, without allocating them."""
    total = 4 * fusion.d_model**2  # the fusion's four (d, d) projections
    for c in (context, gloss):  # embedding tables and output norm, then the layers
        block = sum(math.prod(shape) for shape in block_shapes(c).values())
        total += (c.vocab_size + c.max_seq_len + 2) * c.d_model + c.n_layers * block
    return total


def model_on(
    values: np.ndarray,
    context_config: EncoderConfig,
    gloss_config: EncoderConfig,
    fusion_config: FusionConfig,
    vocab: Vocab,
) -> WsdModel:
    """The model whose parameters are consecutive views of ``values``, an owned
    float64 array of ``parameter_count`` values, which are left as they are: the
    context encoder's, then the gloss encoder's, then the fusion's, each in
    manifest order. This is the one statement of the parameter layout."""
    if not (context_config.d_model == gloss_config.d_model == fusion_config.d_model):
        raise ConfigError(
            f"d_model mismatch: context {context_config.d_model}, "
            f"gloss {gloss_config.d_model}, fusion {fusion_config.d_model}"
        )
    if context_config.vocab_size != vocab.size or gloss_config.vocab_size != vocab.size:
        raise ConfigError(
            f"encoder vocab_size must equal the vocabulary size {vocab.size}"
        )
    cut = Cutter(values)
    context = encoder_params(context_config, cut)
    start = cut.offset
    gloss = encoder_params(gloss_config, cut)
    gloss_values = values[start : cut.offset]
    return WsdModel(vocab, context, gloss, fusion_params(fusion_config, cut), values, gloss_values)


def memory_ceiling() -> float:
    """The bytes this process may still allocate: physical memory, or if lower the
    room its address-space limit leaves beside what it maps now (as Linux reports
    it; elsewhere the whole limit); no ceiling off POSIX."""
    try:
        import resource
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ImportError, AttributeError, ValueError):
        return float("inf")
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit == resource.RLIM_INFINITY:
        return physical
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            limit -= int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    return min(physical, limit)


def build_model(
    context_config: EncoderConfig,
    gloss_config: EncoderConfig,
    fusion_config: FusionConfig,
    vocab: Vocab,
    seed: int,
) -> WsdModel:
    """Seeded construction; the two encoders never share parameters. Values past
    ``memory_ceiling`` are a ConfigError, raised before allocating them."""
    count = parameter_count(context_config, gloss_config, fusion_config)
    if count * 8 > (ceiling := memory_ceiling()):
        raise ConfigError(
            f"{count} parameter values need {count * 8} bytes, more than the {ceiling} bytes "
            f"of memory, for context {context_config} and gloss {gloss_config}"
        )
    values = np.empty(count)
    model = model_on(values, context_config, gloss_config, fusion_config, vocab)
    rng = np.random.default_rng(seed)
    init_encoder(model.context, rng)
    init_encoder(model.gloss, rng)
    init_fusion(model.fusion, rng)
    return model


def _context_window(
    model: WsdModel, tokens: Sequence[str], target_index: int
) -> tuple[list[int], int]:
    limit = model.context.config.max_seq_len - 2
    return content_ids_around(tokens, target_index, model.vocab, limit)


def _gloss_ids(model: WsdModel, gloss_tokens: Sequence[str]) -> list[int]:
    return lookup_ids(gloss_tokens[: model.gloss.config.max_seq_len - 2], model.vocab)


class IdTable:
    """One encoder side's ids: ``row`` numbers each distinct key in fill order, and row
    r of each column holds its ids and padding mask over ``max_seq_len`` positions, its
    length with both markers and its target row (0 for a gloss). A fill, under the
    lock, writes its rows after the last one, first swapping in a copy of at least
    twice the capacity if they do not fit, and publishes its keys after their rows, so
    a lookup, which takes no lock and reads the columns once, sees only whole rows."""

    def __init__(self, max_seq_len: int):
        self.row: dict[tuple, int] = {}
        self._columns = (  # ids, padding, lengths, targets
            np.empty((0, max_seq_len), dtype=np.intp), np.empty((0, max_seq_len), dtype=bool),
            np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
        )
        self._lock = threading.Lock()

    def rows(self, keys: list[tuple], build: Callable) -> np.ndarray:
        """The row number of each key. The keys it has no row for are filled from
        ``build(new_keys)``, which returns their ids, padding and target rows as
        ``marked_ids`` does, or raises what the first bad key earns."""
        if not keys:
            build(keys)  # raises marked_ids' error for an empty batch
        get = self.row.get
        rows = [get(key) for key in keys]
        if None in rows:
            self._fill(keys, build)
            rows = [self.row[key] for key in keys]
        return np.array(rows, dtype=np.intp)

    def _fill(self, keys: list[tuple], build: Callable) -> None:
        with self._lock:
            new = [key for key in dict.fromkeys(keys) if key not in self.row]
            if not new:
                return  # another thread filled them
            ids, padding, targets = build(new)
            (n, width), start, columns = ids.shape, len(self.row), self._columns
            if start + n > len(columns[2]):  # copy: a lookup may hold the old columns
                grown = tuple(
                    np.empty((max(2 * len(c), start + n), *c.shape[1:]), dtype=c.dtype)
                    for c in columns
                )
                for copy, column in zip(grown, columns):
                    copy[:start] = column[:start]
                self._columns = columns = grown
            at = slice(start, start + n)
            columns[0][at, :width], columns[0][at, width:] = ids, PAD_ID
            columns[1][at, :width], columns[1][at, width:] = padding, True
            columns[2][at], columns[3][at] = width - np.add.reduce(padding, axis=1), targets
            self.row.update(zip(new, range(start, start + n)))

    def take(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (n, L) ids and padding of ``rows`` as ``marked_ids`` gives them for
        their sequences, L the longest length, and their target rows."""
        ids, padding, lengths, targets = (c.take(rows, axis=0) for c in self._columns)
        width = np.maximum.reduce(lengths)
        return ids[:, :width], padding[:, :width], targets


@dataclass
class IdIndex:
    """A model's id tables, one per encoder side. It holds no reference to its model."""

    contexts: IdTable
    glosses: IdTable


# per model, for as long as it lives: keys are word tuples, so an edited text is a new key
_id_indexes: WeakKeyDictionary[WsdModel, IdIndex] = WeakKeyDictionary()


def id_index(model: WsdModel) -> IdIndex:
    index = _id_indexes.get(model)
    if index is None:  # setdefault keeps one index if two threads get here
        sides = (IdTable(side.config.max_seq_len) for side in (model.context, model.gloss))
        index = _id_indexes.setdefault(model, IdIndex(*sides))
    return index


def _marked_windows(model: WsdModel, windows: list[tuple[list[int], int]]) -> tuple:
    """``marked_ids`` of (context ids, target index) windows, with their target rows."""
    return marked_ids(model.context, [ids for ids, _ in windows], [t for _, t in windows])


def _marked_glosses(model: WsdModel, keys: list[tuple]) -> tuple[np.ndarray, ...]:
    ids, padding, _ = marked_ids(model.gloss, [_gloss_ids(model, gloss) for gloss in keys])
    return ids, padding, np.zeros(len(keys), dtype=np.intp)


def context_index_rows(model: WsdModel, instances: list[CorpusInstance]) -> np.ndarray:
    """The model's context-index row of each instance's (tokens, target index), new
    ones checked and filled."""
    keys = [(tuple(inst.tokens), inst.target_index) for inst in instances]
    return id_index(model).contexts.rows(
        keys, lambda new: _marked_windows(model, [_context_window(model, *key) for key in new])
    )


def gloss_index_rows(model: WsdModel, glosses: Sequence[Sequence[str]]) -> np.ndarray:
    """The model's gloss-index row of each gloss text, new texts checked and filled."""
    keys = [tuple(gloss) for gloss in glosses]
    return id_index(model).glosses.rows(keys, lambda new: _marked_glosses(model, new))


def _fused_rows(
    model: WsdModel, ids: np.ndarray, padding: np.ndarray, rows: tuple[np.ndarray, np.ndarray]
) -> Tensor:
    """One code row per context in (b, L) ``ids`` whose target rows are ``rows``: one
    record over the context-encoder pass, the target-row pick and the fusion
    attention, with the bits of their op chain (``encode_batch``, a
    ``tensor.gather`` of the target rows, ``fuse_context``)."""
    encoded, encoder_vjp = encoder_kernel(model.context, ids, padding, False)
    targets, pick_vjp = T.gather_kernel(encoded, rows)
    (b, d), fusion = targets.shape, model.fusion
    fused, fuse_vjp = T.attention_kernel(
        targets.reshape(b, 1, d), encoded, *fusion.arrays, fusion.config.n_heads, padding
    )

    def vjp(g: np.ndarray):
        d_targets, d_encoded, *d_weights = fuse_vjp(g.reshape(b, 1, d))
        (d_picked,) = pick_vjp(d_targets.reshape(b, d))
        return (*encoder_vjp(d_encoded + d_picked), *d_weights)

    return T.record(model.context_inputs, fused.reshape(b, d), vjp)


def _window_code_rows(model: WsdModel, windows: list[tuple[list[int], int]]) -> Tensor:
    """One code row per (context ids, target index) window, as ``_fused_rows``."""
    ids, padding, targets = _marked_windows(model, windows)
    return _fused_rows(model, ids, padding, (np.arange(len(windows)), targets))


def context_codes(model: WsdModel, tokens: list[str], target_index: int) -> Tensor:
    """Fused 1 x d_model code row for a target word in its context: a batch of one."""
    return _window_code_rows(model, [_context_window(model, tokens, target_index)])


def gloss_codes(model: WsdModel, gloss_tokens: list[str]) -> Tensor:
    """1 x d_model code row for a sense gloss."""
    encoded = encode(model.gloss, _gloss_ids(model, gloss_tokens))
    return fuse_gloss(cls_representation(encoded))


def context_code_rows(model: WsdModel, instances: list[CorpusInstance]) -> Tensor:
    """b x d_model code rows, row i equal to ``context_codes`` of instance i up to
    rounding, not bit for bit: the padded width and batch size shape the arithmetic.
    Their ids come from the model's id index."""
    ids, padding, targets = id_index(model).contexts.take(context_index_rows(model, instances))
    return _fused_rows(model, ids, padding, (np.arange(len(instances)), targets))


def gloss_code_rows(model: WsdModel, glosses: list[list[str]]) -> Tensor:
    """n x d_model code rows, row j equal to ``gloss_codes`` of gloss j up to rounding,
    as ``gloss_code_rows_at`` of their gloss-index rows."""
    return gloss_code_rows_at(model, gloss_index_rows(model, glosses))


def gloss_code_rows_at(model: WsdModel, rows: np.ndarray) -> Tensor:
    """The code rows of the glosses at ``rows`` of the model's gloss index: one record
    of a padded gloss-encoder pass whose last layer computes only the start-marker
    rows, with the bits of ``encode_batch``, ``cls_representation`` and ``fuse_gloss``."""
    ids, padding, _ = id_index(model).glosses.take(rows)
    codes, encoder_vjp = encoder_kernel(model.gloss, ids, padding, True)
    n, _, d = codes.shape
    # score_rows hands the gloss rows a strided adjoint; the chain's pick copied it
    return T.record(
        model.gloss.inputs, codes.reshape(n, d),
        lambda g: encoder_vjp(np.ascontiguousarray(g).reshape(n, 1, d)),
    )


def randomize_parameters(model: WsdModel, seed: int, scale: float = 0.2) -> None:
    """Overwrite every parameter, in place, with seeded normal draws of the given
    scale, so an optimizer that already holds the parameters steps the new values.

    The training initializer leaves embedding rows nearly collapsed, which
    makes the loss surface extremely curved right at init; gradient checks
    run at these well-scaled random points instead, where central
    differences at h=1e-4 are far from their truncation limit.
    """
    model.values[...] = np.random.default_rng(seed).normal(scale=scale, size=model.values.size)
