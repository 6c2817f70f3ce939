"""A miniature transformer encoder trained from scratch.

Two independent instances back the model: one embeds the target word with
its surrounding context, the other embeds sense glosses. ``encode`` takes
bare content token ids, prepends the start marker and appends the end
marker itself, and returns one embedding row per position, so the output
always has (input length + 2) rows. Blocks are pre-LayerNorm self-attention
plus a GELU feed-forward, both with residual connections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import tensor as T
from .data import CLS_ID, SEP_ID
from .errors import ConfigError, ContractError
from .tensor import Tensor

_EMBED_INIT_BOUND = 0.05


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    max_seq_len: int

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
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


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _param(arr) -> Tensor:
    return Tensor(arr, requires_grad=True)


@dataclass
class LayerParams:
    """One transformer block: normed self-attention and normed feed-forward."""

    attn_gain: Tensor
    attn_bias: Tensor
    wq: list[Tensor]
    wk: list[Tensor]
    wv: list[Tensor]
    wo: Tensor
    ffn_gain: Tensor
    ffn_bias: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class EncoderParams:
    config: EncoderConfig
    tok_emb: Tensor
    pos_emb: Tensor
    layers: list[LayerParams]
    out_gain: Tensor
    out_bias: Tensor

    def named_tensors(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}tok_emb", self.tok_emb
        yield f"{prefix}pos_emb", self.pos_emb
        for i, layer in enumerate(self.layers):
            base = f"{prefix}layer{i}."
            yield base + "attn_gain", layer.attn_gain
            yield base + "attn_bias", layer.attn_bias
            for h in range(len(layer.wq)):
                yield base + f"wq{h}", layer.wq[h]
                yield base + f"wk{h}", layer.wk[h]
                yield base + f"wv{h}", layer.wv[h]
            yield base + "wo", layer.wo
            yield base + "ffn_gain", layer.ffn_gain
            yield base + "ffn_bias", layer.ffn_bias
            yield base + "w1", layer.w1
            yield base + "b1", layer.b1
            yield base + "w2", layer.w2
            yield base + "b2", layer.b2
        yield f"{prefix}out_gain", self.out_gain
        yield f"{prefix}out_bias", self.out_bias


def init_encoder(config: EncoderConfig, rng: np.random.Generator) -> EncoderParams:
    """Fresh encoder parameters: Glorot projections, uniform embedding tables."""
    d, dh, dff = config.d_model, config.head_dim, config.d_ff
    layers = []
    for _ in range(config.n_layers):
        layers.append(
            LayerParams(
                attn_gain=_param(np.ones(d)),
                attn_bias=_param(np.zeros(d)),
                wq=[_param(glorot(rng, d, dh)) for _ in range(config.n_heads)],
                wk=[_param(glorot(rng, d, dh)) for _ in range(config.n_heads)],
                wv=[_param(glorot(rng, d, dh)) for _ in range(config.n_heads)],
                wo=_param(glorot(rng, d, d)),
                ffn_gain=_param(np.ones(d)),
                ffn_bias=_param(np.zeros(d)),
                w1=_param(glorot(rng, d, dff)),
                b1=_param(np.zeros(dff)),
                w2=_param(glorot(rng, dff, d)),
                b2=_param(np.zeros(d)),
            )
        )
    return EncoderParams(
        config=config,
        tok_emb=_param(rng.uniform(-_EMBED_INIT_BOUND, _EMBED_INIT_BOUND, (config.vocab_size, d))),
        pos_emb=_param(rng.uniform(-_EMBED_INIT_BOUND, _EMBED_INIT_BOUND, (config.max_seq_len, d))),
        layers=layers,
        out_gain=_param(np.ones(d)),
        out_bias=_param(np.zeros(d)),
    )


def _affine_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    return T.add(T.mul(T.layer_norm(x), gain), bias)


def multi_head_attention(
    queries: Tensor,
    context: Tensor,
    wq: list[Tensor],
    wk: list[Tensor],
    wv: list[Tensor],
    wo: Tensor,
) -> Tensor:
    """Scaled dot-product attention of ``queries`` over ``context`` rows, one head per
    ``wq[h], wk[h], wv[h]``; the concatenated head outputs are projected by ``wo``."""
    heads = []
    for q_proj, k_proj, v_proj in zip(wq, wk, wv):
        q = T.matmul(queries, q_proj)
        k = T.matmul(context, k_proj)
        v = T.matmul(context, v_proj)
        logits = T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(q_proj.shape[1]))
        heads.append(T.matmul(T.row_softmax(logits), v))
    return T.matmul(T.concat(heads, axis=1), wo)


def encode(params: EncoderParams, token_ids: Sequence[int]) -> Tensor:
    """Embed a bare token-id sequence; rows 0 and n+1 are the start/end markers.

    The caller is responsible for truncation: sequences longer than
    max_seq_len - 2 are rejected, never silently shortened.
    """
    config = params.config
    n = len(token_ids)
    if n < 1:
        raise ContractError("encode needs at least one token")
    if n > config.max_seq_len - 2:
        raise ContractError(
            f"sequence of {n} tokens exceeds capacity {config.max_seq_len - 2}; "
            "truncate before encoding"
        )
    ids = list(token_ids)
    if any(i < 0 or i >= config.vocab_size for i in ids):
        raise ContractError(f"token id out of range for vocab of {config.vocab_size}")
    full = [CLS_ID] + ids + [SEP_ID]

    x = T.add(T.embed(params.tok_emb, full), T.embed(params.pos_emb, range(len(full))))
    for layer in params.layers:
        normed = _affine_norm(x, layer.attn_gain, layer.attn_bias)
        x = T.add(x, multi_head_attention(normed, normed, layer.wq, layer.wk, layer.wv, layer.wo))
        normed = _affine_norm(x, layer.ffn_gain, layer.ffn_bias)
        hidden = T.gelu(T.add(T.matmul(normed, layer.w1), layer.b1))
        x = T.add(x, T.add(T.matmul(hidden, layer.w2), layer.b2))
    return _affine_norm(x, params.out_gain, params.out_bias)


def target_representation(encoded: Tensor, target_index: int) -> Tensor:
    """Row for the target word; word index t maps to row t+1 past the start marker."""
    n_words = encoded.shape[0] - 2
    if not 0 <= target_index < n_words:
        raise IndexError(f"target index {target_index} out of range for {n_words} words")
    return T.row(encoded, target_index + 1)


def cls_representation(encoded: Tensor) -> Tensor:
    """Row 0, the start-marker embedding used as the whole-sequence representation."""
    return T.row(encoded, 0)
