"""A miniature transformer encoder trained from scratch.

Two independent instances back the model: one embeds the target word with
its surrounding context, the other embeds sense glosses. ``encode_batch``
takes b bare content-id sequences, wraps each in the start and end markers,
pads them with ``PAD_ID`` to the longest, L = n_max + 2 positions, and runs
the stack once on the (b, L, d) batch. Self-attention masks padded keys,
which get exactly zero weight, so a real position never sees padding and a
padded position passes no gradient back into the real ones: each item's
real rows equal those of encoding it alone. A gloss's code is its
start-marker row, so the gloss side asks ``encoder_kernel`` for that row
alone: the last layer then runs its query, residual, feed-forward and
output norm on one row per sequence, and only its keys and values span
every row. ``marked_ids`` is the one builder of marked, padded ids:
``encode_batch``, the model's id-index fills and prediction's context rows
take their ids, padding mask and target rows from it. ``encode`` is a batch
of one with the batch axis removed, all its (n + 2, d) rows; prediction
encodes each gloss through it, and callers that count encoder forwards wrap
it by name, so it keeps its two-argument form.
Blocks are pre-LayerNorm self-attention plus a GELU feed-forward, both
with residual connections; each attention projection is one (d, d) matrix
whose column blocks are the heads (Vaswani et al. 2017, arXiv:1706.03762).
A block's tensors are named and shaped once, in ``block_shapes``: the
parameter cut, the manifest names and ``model.parameter_count`` read it.
The pass on arrays is ``encoder_kernel``, its forward and VJP made of
``tensor``'s kernels; ``encode_batch`` records it as one tape op, and the
model's code sides run it inside their own one record. Every row's
positions are 0..L-1, so the position table's first L rows are added by
broadcast.
``EncoderParams`` binds its pass's arguments once, when it is built: its
records' ``inputs`` and the ``block_arrays`` that ``encoder_kernel`` reads. They
are the tensors and their own ``data``, which cannot be rebound, so an in-place
write (Adam, a checkpoint load, a gradient check) is seen by the next pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .data import CLS_ID, PAD_ID, SEP_ID
from .errors import ConfigError, ContractError, check_positive_ints
from .tensor import Tensor

_EMBED_INIT_BOUND = 0.05
_EMBED_DRAW_VALUES = 1 << 16  # values per draw into an embedding table


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    max_seq_len: int

    def __post_init__(self):
        check_positive_ints(
            vocab_size=self.vocab_size,
            d_model=self.d_model,
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_ff=self.d_ff,
            max_seq_len=self.max_seq_len,
        )
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must cover the four reserved ids")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.max_seq_len < 3:
            raise ConfigError(f"max_seq_len must be >= 3, got {self.max_seq_len}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


def glorot(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Glorot-uniform draws of ``shape``, a stack of (fan_in, fan_out) matrices."""
    bound = np.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-bound, bound, size=shape)


def block_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """One transformer block's tensors, normed self-attention then normed
    feed-forward, as {name: shape} in manifest order."""
    d, dff = config.d_model, config.d_ff
    return {
        "attn_gain": (d,), "attn_bias": (d,), "wq": (d, d), "wk": (d, d), "wv": (d, d),
        "wo": (d, d), "ffn_gain": (d,), "ffn_bias": (d,), "w1": (d, dff), "b1": (dff,),
        "w2": (dff, d), "b2": (d,),
    }


class Block(SimpleNamespace):
    """One transformer block's tensors, named in ``block_shapes`` order and bound once."""

    def __setattr__(self, name, *_):
        raise AttributeError(f"block tensor {name!r} is bound once; write its values in place")

    __delattr__ = __setattr__


@dataclass(frozen=True)
class EncoderParams:
    config: EncoderConfig
    tok_emb: Tensor
    pos_emb: Tensor
    layers: tuple[Block, ...]
    out_gain: Tensor
    out_bias: Tensor
    # every tensor in manifest order, and each block's arrays in ``block_shapes`` order
    inputs: tuple[Tensor, ...] = field(init=False, repr=False, compare=False)
    block_arrays: tuple[tuple[np.ndarray, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = [tuple(vars(layer).values()) for layer in self.layers]
        layers = [t for block in blocks for t in block]
        inputs = (self.tok_emb, self.pos_emb, *layers, self.out_gain, self.out_bias)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "block_arrays", tuple(tuple(t.data for t in b) for b in blocks))

    def named_tensors(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}tok_emb", self.tok_emb
        yield f"{prefix}pos_emb", self.pos_emb
        for i, layer in enumerate(self.layers):
            for name, tensor in vars(layer).items():
                yield f"{prefix}layer{i}.{name}", tensor
        yield f"{prefix}out_gain", self.out_gain
        yield f"{prefix}out_bias", self.out_bias


def encoder_params(config: EncoderConfig, cut: Callable[..., Tensor]) -> EncoderParams:
    """The encoder's parameters, each ``cut(*shape)`` in manifest order (that of
    ``named_tensors``), holding whatever values ``cut`` gives them."""
    d, shapes = config.d_model, block_shapes(config)
    tok_emb, pos_emb = cut(config.vocab_size, d), cut(config.max_seq_len, d)
    layers = tuple(
        Block(**{name: cut(*shape) for name, shape in shapes.items()})
        for _ in range(config.n_layers)
    )
    return EncoderParams(config, tok_emb, pos_emb, layers, cut(d), cut(d))


def init_encoder(params: EncoderParams, rng: np.random.Generator) -> None:
    """Write fresh values into ``params`` in place: Glorot projections, uniform
    embedding tables (drawn after every layer), gains 1 and biases 0. A layer's
    query, key and value projections are each n_heads (d, d / n_heads) draws side
    by side, every query head drawn first, then the keys, the values."""
    config = params.config
    d, dh, dff = config.d_model, config.head_dim, config.d_ff
    for layer in params.layers:
        for w, draws in zip((layer.wq, layer.wk, layer.wv), glorot(rng, 3, config.n_heads, d, dh)):
            np.concatenate(draws, axis=1, out=w.data)
        layer.wo.data[...] = glorot(rng, d, d)
        layer.w1.data[...] = glorot(rng, d, dff)
        layer.w2.data[...] = glorot(rng, dff, d)
        for gain, bias in ((layer.attn_gain, layer.attn_bias), (layer.ffn_gain, layer.ffn_bias)):
            gain.data[...], bias.data[...] = 1.0, 0.0
        layer.b1.data[...] = layer.b2.data[...] = 0.0
    for table in (params.tok_emb, params.pos_emb):
        # a block of rows at a time, so no temporary is as large as the table (which the
        # model's memory check does not count): the draws of one whole-table draw, in order
        step = max(1, _EMBED_DRAW_VALUES // d)
        for start in range(0, len(table.data), step):
            block = table.data[start : start + step]
            block[...] = rng.uniform(-_EMBED_INIT_BOUND, _EMBED_INIT_BOUND, block.shape)
    params.out_gain.data[...], params.out_bias.data[...] = 1.0, 0.0


def _check_ids(config: EncoderConfig, token_ids: Sequence[int]) -> None:
    """Raise the ContractError that ``token_ids`` earns as one sequence, if any."""
    n = len(token_ids)
    if n < 1:
        raise ContractError("encode needs at least one token")
    if n > config.max_seq_len - 2:
        raise ContractError(
            f"sequence of {n} tokens exceeds capacity {config.max_seq_len - 2}; "
            "truncate before encoding"
        )
    ids = np.array([CLS_ID, *token_ids, SEP_ID])
    # a float id, even an integral one, would be truncated; a str, None or 2**70 is no intp
    if ids.dtype != np.intp or min(token_ids) < 0 or max(token_ids) >= config.vocab_size:
        raise ContractError(f"token ids must be integers in [0, {config.vocab_size})")


def _block(arrays: tuple, x: np.ndarray, n_heads: int, key_mask: np.ndarray, row0: bool):
    """One pre-LN block, its tensors' ``arrays`` in ``block_shapes`` order, on (b, L, d)
    rows ``x`` as ``tensor`` kernels, its queries and residual row 0 alone if ``row0``:
    its output, and its VJP to x and to the block's tensors in that order."""
    ag, ab, wq, wk, wv, wo, fg, fb, w1, b1, w2, b2 = arrays
    normed, ln1 = T.layer_norm_kernel(x, ag, ab)
    queries, residual = normed, x
    if row0:
        queries, pick_q = T.gather_kernel(normed, np.s_[:, :1])
        residual, pick_x = T.gather_kernel(x, np.s_[:, :1])
    attended, attend = T.attention_kernel(queries, normed, wq, wk, wv, wo, n_heads, key_mask)
    mid = residual + attended
    normed2, ln2 = T.layer_norm_kernel(mid, fg, fb)
    pre, bias1 = T.add_kernel(normed2 @ w1, b1)
    hidden, act = T.gelu_kernel(pre)
    ffn, bias2 = T.add_kernel(hidden @ w2, b2)

    def vjp(g: np.ndarray):
        # the ops' VJPs in reverse; each adjoint sum has two terms, and IEEE addition
        # commutes, so it has the bits of the sum ``backward`` makes over the ops
        d_ffn, d_b2 = bias2(g)
        d_hidden, d_w2 = T.matmul_vjp(hidden, w2, d_ffn)
        d_pre, d_b1 = bias1(*act(d_hidden))
        d_normed2, d_w1 = T.matmul_vjp(normed2, w1, d_pre)
        d_mid, d_fg, d_fb = ln2(d_normed2)
        d_mid = g + d_mid
        d_q, d_ctx, *d_attend = attend(d_mid)
        (d_x,), (d_q,) = (pick_x(d_mid), pick_q(d_q)) if row0 else ((d_mid,), (d_q,))
        d_x_ln, d_ag, d_ab = ln1(d_q + d_ctx)
        return d_x + d_x_ln, (d_ag, d_ab, *d_attend, d_fg, d_fb, d_w1, d_b1, d_w2, d_b2)

    return mid + ffn, vjp


def encoder_kernel(
    params: EncoderParams, ids: np.ndarray, key_mask: np.ndarray, first_row_only: bool
) -> tuple[np.ndarray, Callable]:
    """The encoder on (b, L) marker-wrapped ids: (b, L, d) rows, and its VJP to
    ``params.inputs``; ``key_mask`` (b, L) masks padded keys out of self-attention.
    With ``first_row_only`` the last layer queries row 0 alone: (b, 1, d).
    The VJP replays the kernels' VJPs in reverse, with the bits of the op-by-op chain."""
    tok, tok_vjp = T.embed_kernel(params.tok_emb.data, ids)
    x = tok + params.pos_emb.data[: ids.shape[1]]  # every row's positions are 0..L-1
    blocks, last, n_heads = [], params.block_arrays[-1], params.config.n_heads
    for arrays in params.block_arrays:
        x, block_vjp = _block(arrays, x, n_heads, key_mask, first_row_only and arrays is last)
        blocks.append(block_vjp)
    out, out_vjp = T.layer_norm_kernel(x, params.out_gain.data, params.out_bias.data)

    def vjp(g: np.ndarray):
        d_x, d_gain, d_bias = out_vjp(g)
        d_layers = []
        for block_vjp in reversed(blocks):
            d_x, d_layer = block_vjp(d_x)
            d_layers[:0] = d_layer
        d_pos = T.position_vjp(len(params.pos_emb.data), d_x)
        return (*tok_vjp(d_x), d_pos, *d_layers, d_gain, d_bias)

    return out, vjp


def marked_ids(
    params: EncoderParams,
    sequences: Sequence[Sequence[int]],
    target_index: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The (b, L) ids of b bare token-id sequences, each wrapped in the start and end
    markers and padded with ``PAD_ID`` to L = longest + 2, the (b, L) padding mask,
    True past each end marker, and, given each item's target word index, the (b,)
    rows of those words (word t is row t + 1), else None. The one builder of marked
    ids: lengths and targets are checked on the lists, the ids by one array check, and
    a batch with no item padded gets its mask from one ``np.zeros``. A bad batch raises
    what its first bad item does, a bad id or length before any bad target."""
    if not sequences:
        raise ContractError("encode_batch needs at least one sequence")
    rows = [[CLS_ID, *token_ids, SEP_ID] for token_ids in sequences]
    lengths = [len(row) for row in rows]
    width, config = max(lengths), params.config
    if min(lengths) < width:
        for row in rows:
            row += [PAD_ID] * (width - len(row))
        padding = np.arange(width) >= np.array(lengths)[:, None]
    else:  # no item padded, as in any batch of one
        padding = np.zeros((len(rows), width), dtype=bool)
    ids = np.array(rows)
    # one check of the whole batch; only a batch that fails it is checked item by item
    fits = ids.dtype == np.intp and min(lengths) > 2 and width <= config.max_seq_len
    fits = fits and np.minimum.reduce(ids, axis=None) >= 0
    if not (fits and np.maximum.reduce(ids, axis=None) < config.vocab_size):
        for token_ids in sequences:
            _check_ids(config, token_ids)
        ids = np.array(rows, dtype=np.intp)
    if target_index is None:
        return ids, padding, None
    for i, (t, n) in enumerate(zip(target_index, lengths)):
        if not 0 <= t < n - 2:
            raise ContractError(f"item {i}: target index {t} out of range for {n - 2} words")
    return ids, padding, np.array([t + 1 for t in target_index])


def encode_batch(
    params: EncoderParams, sequences: Sequence[Sequence[int]]
) -> tuple[Tensor, np.ndarray]:
    """Embed b bare token-id sequences in one padded pass, one tape record.

    Returns the (b, L, d) encodings, L = longest sequence + 2, and the (b, L)
    padding mask, True past each sequence's end marker. Item i's rows 0 and
    n_i + 1 are its start/end markers; its rows past n_i + 1 are padding and
    hold no meaning. The caller is responsible for truncation: sequences
    longer than max_seq_len - 2 are rejected, never silently shortened.
    """
    ids, padding, _ = marked_ids(params, sequences)
    return T.record(params.inputs, *encoder_kernel(params, ids, padding, False)), padding


def encode(params: EncoderParams, token_ids: Sequence[int]) -> Tensor:
    """Embed one bare token-id sequence as its (n + 2, d) rows; rows 0 and n+1 are
    the start/end markers: ``encode_batch`` of a batch of one, its batch axis removed."""
    encoded, _ = encode_batch(params, [token_ids])
    return T.reshape(encoded, encoded.shape[1:])


def cls_representation(encoded: Tensor) -> Tensor:
    """Row 0, the start-marker embedding used as the whole-sequence representation:
    (d,) for one sequence's (n + 2, d) rows, (b, d) for a (b, L, d) batch."""
    return T.gather(encoded, np.s_[..., 0, :])
