"""Tape ops that only the tests run, one record per op: ``add``, ``gelu``,
``layer_norm``, ``embed`` and ``encode_first_rows`` record package kernels,
``matmul`` takes its adjoints from ``tensor.matmul_vjp``; the rest are written
out. None checks its operands' shapes; numpy refuses what it cannot multiply.
Chained, they are the oracles of the package's fused records (the encoder pass,
each code side, ``tensor.attention``, ``fusion.score_rows``), and the op table
checks each gradient. The ``literal_*`` kernels are GELU, its erf and the layer
norm with every constant a Python float: the oracles of the package's 0-d ones.
``padded_ids`` and ``target_rows`` build a batch's ids as the package did before
``encoder.marked_ids`` built them in one pass: that builder's oracles.
"""

import math
from typing import Sequence

import numpy as np

from polywsd import tensor as T
from polywsd.data import CLS_ID, PAD_ID, SEP_ID
from polywsd.encoder import encoder_kernel, marked_ids
from polywsd.errors import ContractError, ShapeError
from polywsd.tensor import Tensor, record


def add(a: Tensor, b: Tensor) -> Tensor:
    return record((a, b), *T.add_kernel(a.data, b.data))


def gelu(a: Tensor) -> Tensor:
    return record((a,), *T.gelu_kernel(a.data))


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    return record((a, gain, bias), *T.layer_norm_kernel(a.data, gain.data, bias.data))


def embed(table: Tensor, ids) -> Tensor:
    return record((table,), *T.embed_kernel(table.data, np.asarray(ids, dtype=np.intp)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(n, k) @ (k, m), a batch (B, n, k) @ (B, k, m), or (B, n, k) @ a shared (k, m)."""
    return record((a, b), a.data @ b.data, lambda g: T.matmul_vjp(a.data, b.data, g))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes; the record stores a C-order copy."""
    return record((a,), a.data.swapaxes(-1, -2), lambda g: (g.swapaxes(-1, -2),))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return record((a,), a.data * c, lambda g: (g * c,))


def row_softmax(m: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, stabilized by per-row max subtraction.

    Entries where ``mask`` (the shape of ``m``) is True are excluded from the
    distribution and get probability exactly 0, so they also get no gradient;
    every row must keep at least one unmasked entry.
    """
    if m.data.ndim not in (2, 3) or m.data.size == 0:
        raise ShapeError(f"row_softmax needs a non-empty rank-2 or 3 tensor, got shape {m.shape}")
    _, _, e, s = T._masked_shift_exp(m.data, mask)
    p = e / s
    return record((m,), p, lambda g: (T._softmax_vjp(p, g),))


def regroup(a: Tensor, grouped: Sequence[int], axes: Sequence[int], shape: Sequence[int]) -> Tensor:
    """Reshape ``a`` to ``grouped``, permute its axes by ``axes``, reshape to ``shape``.

    Folds attention heads into the batch axis and back out of it; ``grouped``
    may be rank 4, as it only shapes an intermediate numpy view.
    """
    try:
        permuted = a.data.reshape(grouped).transpose(axes)
        out = permuted.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot regroup {a.shape} as {grouped} by {axes} into {shape}") from None
    # the inverse permutation, an argsort of a few axes in plain Python
    inverse, old = sorted(range(len(axes)), key=axes.__getitem__), a.shape
    return record((a,), out, lambda g: (g.reshape(permuted.shape).transpose(inverse).reshape(old),))


def _literal_horner(x: np.ndarray, coeffs: tuple[float, ...], monic: bool) -> np.ndarray:
    p = x + coeffs[0] if monic else x * coeffs[0] + coeffs[1]
    for c in coeffs[1 if monic else 2:]:
        p *= x
        p += c
    return p


def literal_erf(x: np.ndarray, z: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    """``tensor._erf`` with every constant a Python float, expression by expression."""
    t, u, p, q = (tuple(map(float, c)) for c in (T._ERF_T, T._ERF_U, T._ERFC_P, T._ERFC_Q))
    a = np.abs(x)
    zc, ac = np.minimum(z, 1.0), np.minimum(a, 6.0)
    near = x * _literal_horner(zc, t, False) / _literal_horner(zc, u, True)
    far = 1.0 - gauss * _literal_horner(ac, p, False) / _literal_horner(ac, q, True)
    return np.where(a < 1.0, near, np.copysign(far, x))


def literal_gelu_kernel(x: np.ndarray):
    """``tensor.gelu_kernel`` with Python float constants."""
    u = x * (1.0 / math.sqrt(2.0))
    z = u * u
    gauss = np.exp(-z)
    cdf = 0.5 * (1.0 + literal_erf(u, z, gauss))
    return x * cdf, lambda g: (g * (cdf + x * gauss * (1.0 / math.sqrt(2.0 * math.pi))),)


def literal_layer_norm_kernel(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """``tensor.layer_norm_kernel`` with Python float constants."""
    shape, d = x.shape, x.shape[-1]
    w = T._column(d, 1.0 / d)
    rows = x.reshape(-1, d)
    centred = rows - rows.dot(w)
    inv = 1.0 / np.sqrt((centred * centred).dot(w) + 1e-5)
    y = centred * inv

    def vjp(g: np.ndarray):
        g = g.reshape(-1, d)
        gy = g * gain
        dx = inv * (gy - gy.dot(w) - y * (gy * y).dot(w))
        return dx.reshape(shape), np.add.reduce(g * y, axis=0), np.add.reduce(g, axis=0)

    return (y * gain + bias).reshape(shape), vjp


def erf(x: np.ndarray) -> np.ndarray:
    """Elementwise error function of a float64 array: the GELU kernel's ``_erf``."""
    x = np.asarray(x, dtype=np.float64)
    z = x * x
    return T._erf(x, z, np.exp(-z))


def _check_ids(config, token_ids: Sequence[int]) -> None:
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
    if ids.dtype != np.intp or min(token_ids) < 0 or max(token_ids) >= config.vocab_size:
        raise ContractError(f"token ids must be integers in [0, {config.vocab_size})")


def padded_ids(params, sequences: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``encoder.marked_ids``' oracle without targets: every row padded as a Python list,
    the mask an arange compared with the lengths, a bad batch checked item by item."""
    if not sequences:
        raise ContractError("encode_batch needs at least one sequence")
    lengths = [len(token_ids) + 2 for token_ids in sequences]
    width = max(lengths)
    rows = [[CLS_ID, *seq, SEP_ID] + [PAD_ID] * (width - 2 - len(seq)) for seq in sequences]
    ids = np.array(rows)
    fits = ids.dtype == np.intp and min(lengths) > 2 and width <= params.config.max_seq_len
    fits = fits and np.minimum.reduce(ids, axis=None) >= 0
    if not (fits and np.maximum.reduce(ids, axis=None) < params.config.vocab_size):
        for token_ids in sequences:
            _check_ids(params.config, token_ids)
        ids = np.array(rows, dtype=np.intp)
    return ids, np.arange(width) >= np.array(lengths)[:, None]


def target_rows(target_index: Sequence[int], padding: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``encoder.marked_ids``' oracle for targets: the (item, row) index of each item's
    target-word row, word index t row t + 1, checked against the words its item's
    ``padding`` row leaves."""
    n_words = padding.shape[1] - 2 - np.add.reduce(padding, axis=1)
    targets = np.asarray(target_index)
    bad = (targets < 0) | (targets >= n_words)
    if np.logical_or.reduce(bad):
        i = int(bad.argmax())
        raise ContractError(
            f"item {i}: target index {int(targets[i])} out of range for {int(n_words[i])} words"
        )
    return np.arange(len(padding)), targets + 1


def target_representation(
    encoded: Tensor, target_index: Sequence[int], padding: np.ndarray
) -> Tensor:
    """Each item's target-word row, (b, d), of a batch from ``encode_batch``: its
    (b, L, d) rows, one word index per item and its (b, L) ``padding`` mask."""
    return T.gather(encoded, target_rows(target_index, padding))


def encode_first_rows(params, sequences) -> tuple[Tensor, np.ndarray]:
    """``encode_batch`` with the last layer querying the start-marker rows alone, as the
    gloss side runs it: the (b, 1, d) rows as one record, and the (b, L) padding mask."""
    ids, padding, _ = marked_ids(params, sequences)
    return record(params.inputs, *encoder_kernel(params, ids, padding, True)), padding
