"""Dense float64 tensors with a reverse-mode differentiation tape.

Everything is 64-bit and row-major, ranks 0 through 3. Every tensor is
differentiable: operations run eagerly on numpy and, when a tape is active,
each appends a record holding the output, the inputs, and a closure computing
the vector-Jacobian product. Masks, ids and targets are numpy arrays instead.
``backward`` takes a loss recorded on the tape, walks the records in exact
reverse execution order and sums adjoints, so a tensor consumed twice receives
both contributions. Every leaf it reaches takes each adjoint as it arrives:
into its ``grad`` in place, or as a copy if it has none.

A tape and its tensors belong to one execution; run independent tapes for
parallel work. The active tape is a context variable, so each thread records
onto the tape it opened. A tensor's ``data`` is bound once, at creation; the
optimizer and the gradient check write parameter values in place between
tapes, never during one.

Row sums in the layer norm, the softmaxes and ``cross_entropy`` are BLAS
products with a constant column, equal to ``sum(axis=-1)`` up to a few ulp at
any buffer alignment; each column is built once per width and value and
shared read-only (``_column``); the layer norm takes them as 2-D dots on its
(rows, d) view. Row maxima and the embedding gradient (``np.bincount``) are
bit-equal to plain numpy. Other reductions call ufunc ``.reduce`` directly:
``ndarray.sum``, ``any``, ``min`` and ``max`` run the same reduction behind
a Python-level wrapper that costs more than these short rows.

The training loss is one op, ``cross_entropy``, and multi-head attention over
a padded batch one op, ``attention``, each with its VJP written out by hand.
The ``*_kernel`` functions (add, GELU, layer norm, embedding, gather and
attention) return the ``(out, vjp)`` of an op on arrays. Callers run them
and record what they compose as one op (``record``): the encoder pass
(``encoder.encode_batch``) and each of the model's two code sides do. No op is
a bare matrix product: the ops that multiply take its adjoints from ``matmul_vjp``.

Every scalar that GELU, erf, the layer norm and attention pass to a ufunc is a
module-level, read-only 0-d float64 array (``_const``; the attention scale is
cached per head width).
numpy 2 converts a Python float operand on every call (NEP 50), which costs
more than the arithmetic at these sizes: ~640 ns a call against ~410 ns, and
GELU's erf makes ~55 calls. Each holds its float literal's value, so no bit
changes; ``tests/ops.py`` keeps the literal forms as oracles. The
position table's adjoint (``position_vjp``) is one sum over the batch axis
from +0.0, item by item: ``embed_vjp``'s bits without its cell ids.

The first ``backward`` of a process sets glibc's allocator (``mallopt``) to
serve blocks of up to 32 MiB from the heap and keep up to 64 MiB of free heap
top, the values its own adaptive threshold reaches after one 32 MiB free.
With the defaults, each all-candidates step faulted ~1 MB of freed blocks
back in, about a tenth of its time; the cost is a few percent of resident
memory. Prediction, which never differentiates, keeps the defaults; off
Linux nothing changes. The arithmetic is the same either way.

GELU needs erf, which numpy lacks; ``_erf`` here is the rational
approximation of Cephes' ``ndtr.c`` (S. Moshier), ``x T(x^2) / U(x^2)``
below |x| = 1 and ``1 - exp(-x^2) P(|x|) / Q(|x|)`` above it, with the
sign restored by ``copysign`` so that erf(-x) == -erf(x) exactly. Over a
dense grid on [-8, 8] it is within 3.3e-16 of ``math.erf`` and bit-equal
to SciPy's erf at 99.96% of points.
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, OracleError, ShapeError

_MAX_RANK = 3


def _const(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, a kernel's ufunc operand."""
    c = np.array(value)
    c.flags.writeable = False
    return c


_HALF, _ONE, _SIX = map(_const, (0.5, 1.0, 6.0))
_LAYER_NORM_EPS = _const(1e-5)
_INV_SQRT2 = _const(1.0 / math.sqrt(2.0))
_INV_SQRT_2PI = _const(1.0 / math.sqrt(2.0 * math.pi))

# Cephes ndtr.c erf coefficients, highest degree first; U and Q are monic.
_ERF_T = tuple(map(_const, (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)))
_ERF_U = tuple(map(_const, (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)))
_ERFC_P = tuple(map(_const, (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)))
_ERFC_Q = tuple(map(_const, (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)))


class Tensor:
    """A dense float64 array with shape, read-only ``data``, and an optional grad slot."""

    __slots__ = ("_data", "grad")

    def __init__(self, data):
        # asarray keeps 0-d shapes; ascontiguousarray would promote them to 1-d.
        arr = np.asarray(data, dtype=np.float64, order="C")
        if arr.ndim > _MAX_RANK:
            raise ShapeError(f"rank {arr.ndim} exceeds supported rank {_MAX_RANK}")
        self._data = arr
        self.grad: np.ndarray | None = None

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Cutter:
    """Cuts consecutive C-order views of one flat float64 ``buffer``: each call
    ``cut(*shape)`` returns a Tensor on the next ``shape`` block of values."""

    def __init__(self, buffer: np.ndarray):
        self.buffer, self.offset = buffer, 0

    def __call__(self, *shape: int) -> Tensor:
        start = self.offset
        self.offset += math.prod(shape)
        return Tensor(self.buffer[start : self.offset].reshape(shape))


_Vjp = Callable[[np.ndarray], tuple]  # an output adjoint to one adjoint (or None) per input


class Tape:
    """Ordered record of executed ops, traversed in reverse by ``backward``."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], _Vjp]] = []

    def __len__(self) -> int:
        return len(self._records)

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.reset(self._token)


_ACTIVE: ContextVar[Tape | None] = ContextVar("active_tape", default=None)

# glibc's mallopt parameters and the ceilings its dynamic threshold rule reaches
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES, _TRIM_THRESHOLD_BYTES = 32 << 20, 64 << 20


@functools.cache
def _keep_freed_pages() -> None:
    """Once per process, let glibc's heap keep freed blocks of up to 32 MiB
    mapped instead of handing them back to the kernel (see the module
    docstring); a no-op off Linux or where ``mallopt`` cannot be found."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def record(inputs: tuple[Tensor, ...], out_data: np.ndarray, vjp: _Vjp) -> Tensor:
    """``out_data`` as a Tensor, appended to the active tape, if any, as the output
    of ``inputs`` whose adjoints ``vjp`` gives, one per input in input order."""
    out = Tensor(out_data)
    if (tape := _ACTIVE.get()) is not None:
        tape._records.append((out, inputs, vjp))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every leaf reachable from ``loss``.

    ``loss`` must be a scalar recorded on ``tape``, else ContractError. Leaves
    (tensors no record of ``tape`` produced, such as parameters) get a ``grad``;
    the tape's outputs do not. A leaf takes each adjoint as it arrives, in place
    into its ``grad`` (such as an optimizer's zeroed view) or, if none, as a copy.
    """
    if loss.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    produced = {id(out) for out, _, _ in tape._records}
    if id(loss) not in produced:
        raise ContractError("backward needs a loss recorded on this tape")
    _keep_freed_pages()
    adjoints: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for out, inputs, vjp in reversed(tape._records):
        # every consumer of ``out`` ran after it, so its adjoint is complete here
        out_adj = adjoints.pop(id(out), None)
        if out_adj is None:
            continue
        for tensor, adj in zip(inputs, vjp(out_adj)):
            if adj is None:
                continue
            key = id(tensor)
            if key in produced:
                adjoints[key] = adjoints[key] + adj if key in adjoints else adj
            elif tensor.grad is None:
                tensor.grad = adj.copy()
            else:
                tensor.grad += adj


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def matmul_vjp(x: np.ndarray, y: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjoints of ``x`` and ``y`` in ``x @ y`` for the output adjoint ``g``."""
    if x.ndim == 3 and y.ndim == 2:  # a shared matrix: one product over all the batch's rows
        return g @ y.T, x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return g @ y.swapaxes(-1, -2), x.swapaxes(-1, -2) @ g


def _rows_sum(g: np.ndarray) -> np.ndarray:
    """Adjoint of a rank-1 operand broadcast over the last axis: sum over all other axes."""
    return np.add.reduce(g.reshape(-1, g.shape[-1]), axis=0)


def add_kernel(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, _Vjp]:
    """``x + y`` and its VJP; ``y`` has x's shape or is a rank-1 bias over x's last axis."""
    return x + y, (lambda g: (g, g)) if x.shape == y.shape else (lambda g: (g, _rows_sum(g)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product of two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} * {b.shape}")
    return record((a, b), a.data * b.data, lambda g: (g * b.data, g * a.data))


@functools.lru_cache(maxsize=256)
def _column(n: int, value: float) -> np.ndarray:
    """A read-only (n, 1) column of ``value``, built once per (n, value)."""
    col = np.full((n, 1), value)
    col.flags.writeable = False
    return col


def _row_dot(x: np.ndarray, col: np.ndarray) -> np.ndarray:
    """The last-axis rows of ``x`` times an (n, 1) column, in one BLAS call: (..., 1)."""
    if x.ndim == 2:
        return x.dot(col)
    return x.reshape(-1, x.shape[-1]).dot(col).reshape(x.shape[:-1] + (1,))


def _masked_shift_exp(x: np.ndarray, mask: np.ndarray | None):
    """Shared stable-softmax plumbing: masked x, per-row max, exp, row sums."""
    if mask is not None:
        if mask.shape != x.shape:
            raise ShapeError(f"mask shape {mask.shape} does not match {x.shape}")
        x = np.where(mask, -np.inf, x)
    # reducing across contiguous rows vectorizes where a last-axis max does not
    mx = np.maximum.reduce(np.ascontiguousarray(x.swapaxes(-1, -2)), axis=-2)[..., None]
    e = np.exp(x - mx)
    return x, mx, e, _row_dot(e, _column(x.shape[-1], 1.0))


def _softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The adjoint of the logits of last-axis softmax ``p`` for its adjoint ``g``."""
    return p * (g - _row_dot(g * p, _column(p.shape[-1], 1.0)))


def cross_entropy(scores: Tensor, mask: np.ndarray | None, targets) -> tuple[Tensor, np.ndarray]:
    """Mean negative log-probability of cell ``targets[i]`` of each row i of rank-2
    ``scores`` under the row softmax that skips the cells where ``mask`` is True,
    and the per-row terms as an array. Target cells must be unmasked."""
    idx = np.asarray(targets, dtype=np.intp)
    if scores.data.ndim != 2 or scores.data.size == 0 or idx.shape != scores.shape[:1]:
        raise ShapeError(f"cross_entropy needs one target per row, got {idx.shape}, {scores.shape}")
    if np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= scores.shape[1]:
        raise ContractError(f"target column out of range for {scores.shape[1]} columns")
    x, mx, e, s = _masked_shift_exp(scores.data, mask)
    rows, n = np.arange(len(idx)), len(idx)
    if mask is not None and (masked := mask[rows, idx].nonzero()[0]).size:
        raise ContractError(f"the target cells of rows {masked.tolist()} are masked")
    target_log = (x[rows, idx] - mx[:, 0]) - np.log(s[:, 0])
    p = e / s

    def vjp(g: np.ndarray):
        gu = np.zeros_like(p)
        gu[rows, idx] = float(-g) / n
        return (gu - p * np.add.reduce(gu, axis=1, keepdims=True),)

    # the ufunc reductions ndarray.mean and .sum run, without their Python wrappers
    return record((scores,), -(np.add.reduce(target_log) / n), vjp), -target_log


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return record((a,), a.data.sum(), lambda g: (np.full(shape, float(g)),))


def _horner(x: np.ndarray, coeffs: tuple[np.ndarray, ...], monic: bool) -> np.ndarray:
    """The polynomial with ``coeffs`` (highest degree first, after an implicit
    leading 1 if ``monic``) at ``x``, in Horner's order."""
    p = x + coeffs[0] if monic else x * coeffs[0] + coeffs[1]
    for c in coeffs[1 if monic else 2:]:
        p *= x
        p += c
    return p


def _erf(x: np.ndarray, z: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    """erf of ``x`` given ``z = x * x`` and ``gauss = exp(-z)``.

    Both branches run on the whole array, on clamped arguments so neither
    overflows; past |x| = 6 the tail term is below half an ulp of 1 and the
    result is exactly +-1. NaN propagates.
    """
    a = np.abs(x)
    zc, ac = np.minimum(z, _ONE), np.minimum(a, _SIX)
    near = x * _horner(zc, _ERF_T, False) / _horner(zc, _ERF_U, True)
    far = _ONE - gauss * _horner(ac, _ERFC_P, False) / _horner(ac, _ERFC_Q, True)
    return np.where(a < _ONE, near, np.copysign(far, x))


def gelu_kernel(x: np.ndarray) -> tuple[np.ndarray, _Vjp]:
    """The Gaussian-error linear unit (exact erf form) of ``x`` and its VJP."""
    u = x * _INV_SQRT2
    z = u * u
    gauss = np.exp(-z)  # the normal density up to 1/sqrt(2 pi); erf's tail uses it too
    cdf = _HALF * (_ONE + _erf(u, z, gauss))
    return x * cdf, lambda g: (g * (cdf + x * gauss * _INV_SQRT_2PI),)


def layer_norm_kernel(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, _Vjp]:
    """Each last-axis row of ``x`` at zero mean and unit variance, scaled by ``gain``
    and shifted by ``bias``, both (d,); and its VJP to x, gain and bias."""
    shape, d = x.shape, x.shape[-1]
    w = _column(d, 1.0 / d)  # row means as 2-D BLAS products on the (rows, d) view
    rows = x.reshape(-1, d)
    centred = rows - rows.dot(w)
    inv = _ONE / np.sqrt((centred * centred).dot(w) + _LAYER_NORM_EPS)
    y = centred * inv

    def vjp(g: np.ndarray):
        g = g.reshape(-1, d)
        gy = g * gain
        dx = inv * (gy - gy.dot(w) - y * (gy * y).dot(w))
        return dx.reshape(shape), np.add.reduce(g * y, axis=0), np.add.reduce(g, axis=0)

    return (y * gain + bias).reshape(shape), vjp


def embed_vjp(shape: tuple[int, int], idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The adjoint of a ``shape`` table whose rows ``table[idx]`` have adjoint ``g``."""
    rows, d = shape  # bincount adds in id order, as np.add.at does
    cells = (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
    return np.bincount(cells, weights=g.ravel(), minlength=rows * d).reshape(rows, d)


def position_vjp(rows: int, g: np.ndarray) -> np.ndarray:
    """``embed_vjp`` of a ``rows``-row table for position ids 0..L-1 in every item of a
    (b, L, d) adjoint ``g``: each sum starts from +0.0 and adds the items in order,
    and the rows past L stay +0.0."""
    table = np.zeros((rows, g.shape[-1]))
    np.add.reduce(g, axis=0, initial=0.0, out=table[: g.shape[1]])
    return table


def embed_kernel(table: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, _Vjp]:
    """The rows ``table[idx]`` for an intp array of in-range ids, and their VJP."""
    return table[idx], lambda g: (embed_vjp(table.shape, idx, g),)


def gather_kernel(x: np.ndarray, index) -> tuple[np.ndarray, _Vjp]:
    """``x[index]`` in C order and its VJP, the adjoint written into zeros shaped like
    ``x``: ``index`` is range-checked by the caller and picks no element twice."""
    def vjp(g: np.ndarray):
        dx = np.zeros_like(x)
        dx[index] = g
        return (dx,)

    return np.asarray(x[index], order="C"), vjp


def gather(a: Tensor, index) -> Tensor:
    """``gather_kernel`` as one record."""
    return record((a,), *gather_kernel(a.data, index))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Stack rank-2 tensors of one width along their rows."""
    if not parts or any(p.data.ndim != 2 for p in parts):
        raise ShapeError("concat needs at least one tensor, all of rank 2")
    splits = np.cumsum([p.shape[0] for p in parts])[:-1]
    out = np.concatenate([p.data for p in parts])
    return record(tuple(parts), out, lambda g: tuple(np.split(g, splits)))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    old = a.shape
    return record((a,), a.data.reshape(shape), lambda g: (g.reshape(old),))


def attention(
    queries: Tensor, context: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
    n_heads: int, key_mask: np.ndarray,
) -> Tensor:
    """Scaled dot-product attention of (b, n_q, d) queries over a padded batch of
    (b, n, d) context rows in ``n_heads`` heads, ``attention_kernel`` as one record.
    Head i uses column block i of ``wq``, ``wk`` and ``wv``; the heads' outputs, side
    by side, are projected by ``wo``. Keys where ``key_mask`` (b, n) is True get
    exactly zero weight and gradient. Forward and VJP repeat, expression by
    expression on arrays of the same layout, a chain of 13 ops (matmuls, head
    regroups, a transpose, a scale and a masked row softmax), its bit-level test oracle."""
    x, c, width = queries.data, context.data, wo.shape[0]
    if not (
        x.ndim == 3 and c.shape[::2] == x.shape[::2] and key_mask.shape == c.shape[:2]
        and wq.shape == wk.shape == wv.shape == (x.shape[2], width) and width % n_heads == 0
    ):
        raise ShapeError(
            f"attention shape mismatch: {queries.shape} over {context.shape}, key mask "
            f"{key_mask.shape}, {n_heads} heads of {wq.shape}, {wk.shape}, {wv.shape}, {wo.shape}"
        )
    out = attention_kernel(x, c, wq.data, wk.data, wv.data, wo.data, n_heads, key_mask)
    return record((queries, context, wq, wk, wv, wo), *out)


@functools.cache
def _attention_scale(dh: int) -> np.ndarray:
    """1 / sqrt(dh), the scores' scale for heads of width ``dh``, as a 0-d constant."""
    return _const(1.0 / math.sqrt(dh))


def attention_kernel(
    x: np.ndarray, c: np.ndarray, wq, wk, wv, wo, n_heads: int, key_mask: np.ndarray
) -> tuple[np.ndarray, _Vjp]:
    """``attention`` on arrays, and its VJP to the queries, context and projections."""
    b, n_q, n, width, axes = x.shape[0], x.shape[1], c.shape[1], wo.shape[0], (0, 2, 1, 3)
    dh = width // n_heads

    def split(a: np.ndarray) -> np.ndarray:  # (b, m, width) -> (b * n_heads, m, dh)
        return a.reshape(b, -1, n_heads, dh).transpose(axes).reshape(b * n_heads, -1, dh)

    def merge(a: np.ndarray) -> np.ndarray:  # and back
        return a.reshape(b, n_heads, -1, dh).transpose(axes).reshape(b, -1, width)

    # split copies into C order or returns a view that is C-order already (one head, one
    # row). A strided kT moves the scores' bits, so it is one transpose-and-copy of
    # c @ wk, (b, n, heads, dh) to (b, heads, dh, n)
    q, v = split(x @ wq), split(c @ wv)
    k4 = (c @ wk).reshape(b, n, n_heads, dh).transpose(0, 2, 3, 1)
    kT, scale = np.ascontiguousarray(k4).reshape(b * n_heads, dh, n), _attention_scale(dh)
    mask = None  # nothing masked (a batch of one, an unpadded batch): no per-head mask
    if np.logical_or.reduce(key_mask, axis=None):
        mask = np.broadcast_to(key_mask.repeat(n_heads, axis=0)[:, None, :], (len(q), n_q, n))
    _, _, e, s = _masked_shift_exp((q @ kT) * scale, mask)
    p = e / s
    merged = merge(p @ v)  # C-order already: only n_q == 1 or one head make it a view

    def vjp(g: np.ndarray):
        d_merged, d_wo = matmul_vjp(merged, wo, g)
        d_p, d_v = matmul_vjp(p, v, split(d_merged))
        d_q, d_kT = matmul_vjp(q, kT, _softmax_vjp(p, d_p) * scale)
        d_ctx_v, d_wv = matmul_vjp(c, wv, merge(d_v))
        d_ctx_k, d_wk = matmul_vjp(c, wk, merge(d_kT.swapaxes(-1, -2)))
        d_x, d_wq = matmul_vjp(x, wq, merge(d_q))
        # the chain's sum; if queries is context, backward adds d_x to it: + commutes
        return d_x, d_ctx_v + d_ctx_k, d_wq, d_wk, d_wv, d_wo

    return merged @ wo, vjp


# ---------------------------------------------------------------------------
# Gradient oracle
# ---------------------------------------------------------------------------


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-4,
) -> float:
    """Compare tape gradients of a scalar function against central differences.

    ``f`` takes no arguments and reads the leaf tensors ``params``. Each entry
    is bumped in place to p_i + h and p_i - h, ``f`` re-evaluated, and the
    entry restored, also when ``f`` raises; grads are cleared for the
    backward pass and restored afterwards. Returns max over entries of
    |analytic - numeric| / max(1, |analytic|), with numeric =
    (f(p + h e_i) - f(p - h e_i)) / (2h). ``f`` must be deterministic; two
    evaluations at identical params that disagree raise OracleError.
    """
    if h <= 0:
        raise ContractError(f"finite-difference step must be positive, got {h}")
    probe_a = f().item()
    probe_b = f().item()
    if probe_a != probe_b and not (math.isnan(probe_a) and math.isnan(probe_b)):
        raise OracleError(f"function is not deterministic: {probe_a!r} != {probe_b!r}")

    saved = [p.grad for p in params]
    try:
        for p in params:
            p.grad = None
        tape = Tape()
        with tape:
            loss = f()
        backward(loss, tape)
        analytic = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    finally:
        for p, grad in zip(params, saved):
            p.grad = grad

    rel = []
    for p, grad in zip(params, analytic):
        numeric = np.zeros_like(grad)
        for index in np.ndindex(p.shape):
            original = p.data[index]
            try:
                p.data[index] = original + h
                f_plus = f().item()
                p.data[index] = original - h
                f_minus = f().item()
            finally:
                p.data[index] = original
            numeric[index] = (f_plus - f_minus) / (2.0 * h)
        rel.append((np.abs(grad - numeric) / np.maximum(1.0, np.abs(grad))).ravel())
    return float(np.concatenate(rel).max()) if any(r.size for r in rel) else 0.0
