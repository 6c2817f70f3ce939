"""Attention fusion of a target word's local and global semantics.

The target-word row is the single query of a multi-head scaled dot-product
attention over the full context embedding, which yields one ``d_model``
code row for the word. A gloss is represented by its start-marker row in
the same shape, so both sides are directly comparable: their match score
is the inner product of the two code rows. The b target rows of a padded
batch of b contexts (b = 1 in prediction) form one (b, 1, d) query batch
for one attention, each masked to its own context's real positions, and
give b code rows at once. ``fuse_context`` records it as one
``tensor.attention`` op; the model's context side runs its kernel inside
the side's one record, with the same bits. Like the encoders' self-attention,
the fusion holds one (d, d) matrix per projection, its heads in column
blocks. ``FusionParams`` binds the four once, as ``weights`` and their own
``data`` as ``arrays``, so an in-place write to one is seen by the next pass.

``FusionConfig.poly_m`` is accepted so existing configs load, but it has
no effect: copies of one query attend identically, so any number of
replicated codes gives the same scores as one. The poly-encoder of Humeau
et al. 2020 (arXiv:1905.01969) instead learns ``m`` distinct context
codes; adding those would be a model change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import tensor as T
from .encoder import glorot
from .errors import ConfigError, ShapeError, check_positive_ints
from .tensor import Tensor


@dataclass(frozen=True)
class FusionConfig:
    d_model: int
    poly_m: int
    n_heads: int

    def __post_init__(self):
        check_positive_ints(d_model=self.d_model, poly_m=self.poly_m, n_heads=self.n_heads)
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass(frozen=True)
class FusionParams:
    """The (d, d) query, key and value projections, head i in column block i of
    each, and the output projection; ``config`` gives the head count."""

    config: FusionConfig
    wq: Tensor
    wk: Tensor
    wv: Tensor
    w_o: Tensor
    # the four projections in manifest order, and their ``data``
    weights: tuple[Tensor, ...] = field(init=False, repr=False, compare=False)
    arrays: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = (self.wq, self.wk, self.wv, self.w_o)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "arrays", tuple(w.data for w in weights))

    def named_tensors(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        return zip((prefix + name for name in ("wq", "wk", "wv", "w_o")), self.weights)


def fusion_params(config: FusionConfig, cut: Callable[..., Tensor]) -> FusionParams:
    """The fusion's four (d, d) projections, each ``cut(*shape)`` in manifest order."""
    d = config.d_model
    return FusionParams(config, cut(d, d), cut(d, d), cut(d, d), cut(d, d))


def init_fusion(params: FusionParams, rng: np.random.Generator) -> None:
    """Draw Glorot projections into ``params`` in place; the per-head
    (d, d / n_heads) blocks are drawn head by head, each head's query, key and
    value in turn, then the output projection."""
    config = params.config
    d, dh = config.d_model, config.head_dim
    draws = glorot(rng, config.n_heads, 3, d, dh)
    for i, w in enumerate((params.wq, params.wk, params.wv)):
        np.concatenate(draws[:, i], axis=1, out=w.data)
    params.w_o.data[...] = glorot(rng, config.n_heads * dh, d)


def fuse_context(
    encoded: Tensor, target: Tensor, params: FusionParams, key_mask: np.ndarray
) -> Tensor:
    """Word-side code rows: each target row, as the only query, attends over its
    context. A padded batch (b, L, d) with target rows (b, d) and its (b, L) padding
    ``key_mask`` gives (b, d)."""
    b, d = target.shape
    fused = T.attention(
        T.reshape(target, (b, 1, d)), encoded, params.wq, params.wk, params.wv, params.w_o,
        params.config.n_heads, key_mask,
    )
    return T.reshape(fused, (b, d))


def fuse_gloss(cls_vector: Tensor) -> Tensor:
    """Gloss-side code rows: the start-marker rows themselves, no attention; one
    (d,) row gives (1, d), stacked (b, d) rows stay (b, d)."""
    d = cls_vector.shape[-1]
    return T.reshape(cls_vector, (cls_vector.size // d, d))


def score_pair(word_code: Tensor, gloss_code: Tensor) -> Tensor:
    """Match score: the inner product of the two code rows (scalar tensor)."""
    if word_code.shape != gloss_code.shape:
        raise ShapeError(f"code shapes differ: {word_code.shape} vs {gloss_code.shape}")
    return T.sum_all(T.mul(word_code, gloss_code))


def score_rows(word_codes: Tensor, gloss_codes: Tensor) -> Tensor:
    """All-pairs scores of (b, d) word and (n, d) gloss rows as one record: cell (i, j)
    = word row i . gloss row j, with the adjoints of ``tensor.matmul_vjp``."""
    x, y = word_codes.data, gloss_codes.data
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError(f"score_rows needs rows of one width, got {x.shape} and {y.shape}")
    y_t = np.ascontiguousarray(y.T)  # a strided operand moves the product's bits

    def vjp(g: np.ndarray):
        d_x, d_y_t = T.matmul_vjp(x, y_t, g)
        return d_x, d_y_t.T  # a strided view; gloss_code_rows_at copies it

    return T.record((word_codes, gloss_codes), x @ y_t, vjp)
