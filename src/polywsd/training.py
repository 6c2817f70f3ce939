"""Batch contrastive training and the all-candidates baseline: one step for both.

The regimes differ only in a step's gloss columns, which ``step_columns``
builds from (batch, inventory, mode, model) as rows of the model's gloss id
index (``model.id_index``), so no step re-tokenizes a text it has seen: an
all-candidates step looks up every item's candidate glosses at once and
computes its owners, mask and targets on arrays from the candidate sets'
sizes. BCL scores the batch's b gold glosses: the other items' gold glosses
are each row's negatives, the targets lie on the diagonal, and off-diagonal
cells whose gloss text equals the row's own are false negatives and are
masked. The all-candidates baseline scores the sum(m_i) candidate glosses of
all items, and row i masks every column but its own candidates.
``scored_forward`` is then one path for both: the b contexts as one padded
encoder pass, the glosses as another, the score matrix, and one masked
cross-entropy (``bcl_loss``, one tape op), the mean negative log-probability
of each row's target cell under the masked row softmax. The tape records one
op per code side, not per sequence. A step costs b context encodes either
way, and b gloss encodes against sum(m_i); ``ForwardCounts`` reports these
counts, and ``RunMetrics`` sums them for cost accounting, next to the run's
wall clock (its device-hours, as a run is one process). A step's checks
reduce through ufuncs, not numpy's Python-level wrappers, which cost more
than the arithmetic at these sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from . import tensor as T
from .data import CorpusInstance, SenseInventory, look_up
from .errors import BatchError, ConfigError, DataError, ShapeError, TrainingError
from .errors import ContractError, check_optimizer_settings, check_positive_ints, is_count
from .fusion import score_rows
from .model import WsdModel, context_code_rows, gloss_code_rows_at, gloss_index_rows
from .model import memory_ceiling
# unused here, but the benchmark's probes patch polywsd.training.context_codes/gloss_codes
from .model import context_codes, gloss_codes  # noqa: F401
from .tensor import Tape, Tensor, backward, finite_diff_check

MODE_CONTRASTIVE = "bcl"
MODE_ALL_CANDIDATES = "all-candidates"
MODES = (MODE_CONTRASTIVE, MODE_ALL_CANDIDATES)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int
    epochs: int
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    clip_norm: float | None = None

    def __post_init__(self):
        check_positive_ints(batch_size=self.batch_size, epochs=self.epochs)
        if not is_count(self.seed):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.batch_size < 2:
            raise ConfigError(
                f"batch_size must be >= 2 for contrastive training, got {self.batch_size}"
            )
        check_optimizer_settings(
            learning_rate=self.learning_rate, beta1=self.beta1, beta2=self.beta2, eps=self.eps
        )
        if self.clip_norm is not None:
            check_optimizer_settings(clip_norm=self.clip_norm)


@dataclass
class Batch:
    """Aligned instances and their gold-sense gloss texts."""

    instances: list[CorpusInstance]
    gold_glosses: list[list[str]]

    def __post_init__(self):
        if len(self.instances) < 2:
            raise BatchError(f"contrastive batches need >= 2 items, got {len(self.instances)}")
        if len(self.gold_glosses) != len(self.instances):
            raise BatchError(
                f"{len(self.instances)} instances but {len(self.gold_glosses)} glosses"
            )

    def __len__(self) -> int:
        return len(self.instances)


@dataclass
class ScoreMatrix:
    """Word-vs-gloss scores, one row per item, and the cells each row's softmax skips.

    ``targets[i]`` is the column of row i's correct cell; omitted, it is the
    diagonal. The probability of each target cell is ``exp(-per_example)`` of
    the ``bcl_loss`` over it.
    """

    scores: Tensor
    mask: np.ndarray
    targets: np.ndarray | None = None

    def __post_init__(self):
        if self.targets is None:
            self.targets = np.arange(self.scores.shape[0])


@dataclass
class LossValue:
    """Scalar loss tensor plus the per-example negative-log-prob breakdown."""

    total: Tensor
    per_example: np.ndarray

    @property
    def value(self) -> float:
        return self.total.item()


@dataclass
class ForwardCounts:
    context: int = 0
    gloss: int = 0


@dataclass
class StepRecord:
    step: int
    epoch: int
    loss: float
    context_forwards: int
    gloss_forwards: int
    elapsed: float


@dataclass
class RunMetrics:
    """Per-step records of one training run: the cost accounting reads it directly."""

    mode: str
    fingerprint: str
    records: list[StepRecord] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def context_forwards(self) -> int:
        return sum(r.context_forwards for r in self.records)

    @property
    def gloss_forwards(self) -> int:
        return sum(r.gloss_forwards for r in self.records)

    @property
    def device_hours(self) -> float:
        """Wall-clock hours of the run, which trains in one process on one device."""
        return self.wall_seconds / 3600.0


def duplicate_gloss_mask(gold_glosses: list[list[str]]) -> np.ndarray:
    """True at (i, j), i != j, where gloss j is textually identical to gloss i.

    Those cells would penalize a correct match if left in the softmax.
    """
    index: dict[tuple[str, ...], int] = {}
    ids = np.array([index.setdefault(tuple(g), len(index)) for g in gold_glosses])
    return (ids[:, None] == ids) & ~np.eye(len(ids), dtype=bool)


def fusion_matrix(
    word_codes_list: list[Tensor],
    gloss_codes_list: list[Tensor],
    mask: np.ndarray | None = None,
) -> ScoreMatrix:
    """Stack both sides and score all pairs: cell (i, j) = score_pair(word_i, gloss_j)."""
    if len(word_codes_list) != len(gloss_codes_list):
        raise BatchError(
            f"{len(word_codes_list)} word codes vs {len(gloss_codes_list)} gloss codes"
        )
    if not word_codes_list:
        raise BatchError("empty batch")
    shapes = {c.shape for c in word_codes_list + gloss_codes_list}
    if len(shapes) != 1 or next(iter(shapes))[0] != 1:
        raise ShapeError(f"fusion_matrix needs code rows of one (1, d) shape, got {shapes}")
    scores = score_rows(T.concat(word_codes_list), T.concat(gloss_codes_list))
    b = len(word_codes_list)
    if mask is None:
        mask = np.zeros((b, b), dtype=bool)
    return ScoreMatrix(scores=scores, mask=mask)


def bcl_loss(sm: ScoreMatrix) -> LossValue:
    """Mean negative log-probability of each row's target cell under the masked
    softmax, one tape op (``tensor.cross_entropy``); a masked target cell is a
    ContractError."""
    return LossValue(*T.cross_entropy(sm.scores, sm.mask, sm.targets))


def _value_buffer(params: list[Tensor]) -> np.ndarray:
    """The writable buffer that ``params`` cover whole in list order, as ``tensor.Cutter``
    cuts it: views each starting, by array-interface address, where the last ended,
    none read-only; else a ContractError."""
    buffer = params[0].data.base if params else None
    flat = isinstance(buffer, np.ndarray) and buffer.ndim == 1
    address = buffer.__array_interface__["data"][0] if flat else None
    start = 0
    for i, p in enumerate(params):  # a Tensor's data is C-order, a copy if need be
        if address is None or p.data.base is not buffer or (
            p.data.__array_interface__["data"] != (address + 8 * start, False)
        ):
            raise ContractError(
                f"parameter {i} {p.shape} is not the next view of the value buffer, in list order"
            )
        start += p.size
    if address is None or start != buffer.size:
        raise ContractError("the parameters do not cover one value buffer whole")
    return buffer


class Adam:
    """Standard Adam with bias correction; deterministic given grads.

    Its ``values`` is the model's value buffer, adopted, not copied: the
    parameters must cover it in the layout ``tensor.Cutter`` cuts, as a model's
    do, or construction raises ContractError. It owns flat gradient
    and moment buffers; after ``zero_grad`` each ``grad`` is a view of the first,
    so a step is a few whole-buffer numpy calls. ``m`` and ``v`` read as
    per-parameter views of ``m_flat`` and ``v_flat``, so writing into a view sets
    that moment. Its ``BUFFERS`` buffers must fit in the memory left
    (``memory_ceiling``), else ConfigError before any is allocated.
    """

    BUFFERS = 5  # gradients, two moments and two scratch arrays, each as large as the values

    def __init__(
        self,
        params: list[Tensor],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        check_optimizer_settings(learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps)
        self.params = list(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.values = _value_buffer(self.params)
        size, need = self.values.size, self.BUFFERS * self.values.nbytes
        if need > (ceiling := memory_ceiling()):
            raise ConfigError(
                f"the optimizer's five buffers for {size} parameter values need {need} bytes, "
                f"more than the {ceiling} bytes of memory left"
            )
        # one array each, so a model that outlives its optimizer keeps only grads alive
        self._grads, self.m_flat, self.v_flat = (np.zeros(size) for _ in range(3))
        self._scratch = np.empty(size), np.empty(size)
        self._grad_views = self._views(self._grads)

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        views, start = [], 0  # bare slices in the parameters' layout, as tensor.Cutter cuts
        for p in self.params:
            data = p.data
            views.append(flat[start : start + data.size].reshape(data.shape))
            start += data.size
        return views

    @property
    def m(self) -> list[np.ndarray]:
        return self._views(self.m_flat)

    @property
    def v(self) -> list[np.ndarray]:
        return self._views(self.v_flat)

    @classmethod
    def from_config(cls, params: list[Tensor], config: TrainConfig) -> "Adam":
        return cls(params, config.learning_rate, config.beta1, config.beta2, config.eps)

    def zero_grad(self) -> None:
        """Fill the grad buffer with -0.0, the identity of IEEE addition, so the adjoints
        ``backward`` adds in keep their bits; bind each ``grad`` to its view."""
        self._grads.fill(-0.0)
        for p, view in zip(self.params, self._grad_views):
            p.grad = view

    def step(self) -> bool:
        """One update from the current grads; a missing grad counts as zero.

        A grad that is not its view of the gradient buffer is copied in first.
        Returns False, and changes no parameter, moment or step count, if
        any grad is non-finite.
        """
        for p, grad in zip(self.params, self._grad_views):
            if p.grad is not grad:
                grad[...] = 0.0 if p.grad is None else p.grad
        g, m, v, (a, b) = self._grads, self.m_flat, self.v_flat, self._scratch
        if not np.logical_and.reduce(np.isfinite(g)):
            return False
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=a)
        v *= self.beta2
        v += np.multiply(np.multiply(g, 1.0 - self.beta2, out=a), g, out=a)
        # learning_rate * (m / bias1) / (sqrt(v / bias2) + eps), in that order
        np.multiply(np.divide(m, bias1, out=a), self.learning_rate, out=a)
        np.sqrt(np.divide(v, bias2, out=b), out=b)
        b += self.eps
        a /= b
        self.values -= a
        return True


def _clip_gradients(optimizer: Adam, clip_norm: float | None) -> None:
    """Scale the gradient buffer down to global norm ``clip_norm`` if it is above it."""
    if clip_norm is None:
        return
    total = np.sqrt(sum(float(np.add.reduce(g**2, axis=None)) for g in optimizer._grad_views))
    if total > clip_norm:
        optimizer._grads *= clip_norm / total


def _check_finite(loss: LossValue, model: WsdModel, context: str) -> None:
    if not np.logical_and.reduce(np.isfinite(loss.per_example)):
        raise TrainingError(
            f"non-finite loss at {context}: per-example terms {loss.per_example.tolist()}, "
            f"parameter norm {model.parameter_norm():.6g}"
        )


def _raise_non_finite(model: WsdModel, what: str, array_of, context: str) -> NoReturn:
    """Raise TrainingError naming the first parameter whose ``array_of`` is non-finite."""
    name = next(
        (n for n, t in model.named_parameters() if not np.isfinite(array_of(t)).all()), "?"
    )
    raise TrainingError(
        f"non-finite {what} of parameter {name} at {context}, "
        f"parameter norm {model.parameter_norm():.6g}"
    )


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ConfigError(f"unknown training mode {mode!r}; expected one of {MODES}")


def step_columns(
    batch: Batch, inventory: SenseInventory | None, mode: str, model: WsdModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A step's gloss columns as rows of the model's gloss index, their mask and the
    row targets. BCL: the b gold glosses, the duplicate-gloss mask, the diagonal.
    All-candidates: every item's candidates (from ``inventory``) in one lookup, a
    block per item, row i masking all but its own block, targets at the golds."""
    _check_mode(mode)
    if mode == MODE_CONTRASTIVE:
        glosses = batch.gold_glosses
        mask = duplicate_gloss_mask(glosses)
        return gloss_index_rows(model, glosses), mask, np.arange(len(batch))
    glosses, sizes, golds = [], [], []
    for inst in batch.instances:
        senses = look_up(inst, inventory.candidates)
        for gold, sense in enumerate(senses):
            if sense.id == inst.gold:
                break
        else:
            raise DataError(
                f"instance {inst.id!r}: gold sense {inst.gold!r} not in its candidate set"
            )
        glosses += [sense.gloss for sense in senses]
        sizes.append(len(senses))
        golds.append(gold)
    sizes, items = np.array(sizes), np.arange(len(batch))
    mask = items[:, None] != items.repeat(sizes)
    return gloss_index_rows(model, glosses), mask, np.add.accumulate(sizes) - sizes + golds


def scored_forward(
    batch: Batch, inventory: SenseInventory | None, model: WsdModel, mode: str
) -> tuple[ScoreMatrix, LossValue, ForwardCounts]:
    """Encode the batch's contexts, then the step's gloss columns, one padded pass
    per side; score every (context, gloss) pair and take the masked loss. Cell
    (i, j) scores word i against gloss j, as ``fusion_matrix``."""
    rows, mask, targets = step_columns(batch, inventory, mode, model)
    words = context_code_rows(model, batch.instances)
    scores = score_rows(words, gloss_code_rows_at(model, rows))
    sm = ScoreMatrix(scores=scores, mask=mask, targets=targets)
    return sm, bcl_loss(sm), ForwardCounts(context=len(batch), gloss=len(rows))


def _update(
    batch: Batch, inventory: SenseInventory | None, model: WsdModel, optimizer: Adam,
    mode: str, clip_norm: float | None, context: str,
) -> tuple[LossValue, ForwardCounts]:
    """Record ``scored_forward`` on a fresh tape, then backward, clip and one Adam step.

    A non-finite loss or grad stops the step before any parameter changes; a
    non-finite parameter value after it stops training. Each raises
    TrainingError, the last two naming the first parameter at fault.
    """
    tape = Tape()
    with tape:
        _, loss, counts = scored_forward(batch, inventory, model, mode)
    _check_finite(loss, model, context)
    optimizer.zero_grad()
    backward(loss.total, tape)
    _clip_gradients(optimizer, clip_norm)
    if not optimizer.step():
        _raise_non_finite(model, "gradient", lambda t: t.grad, context)
    if not np.logical_and.reduce(np.isfinite(optimizer.values)):
        _raise_non_finite(model, "value", lambda t: t.data, context)
    return loss, counts


def train_step(
    batch: Batch, model: WsdModel, optimizer: Adam, clip_norm: float | None = None,
    context: str = "step",
) -> tuple[LossValue, ForwardCounts]:
    """One contrastive step: forward, backward, Adam update (params mutate in place)."""
    return _update(batch, None, model, optimizer, MODE_CONTRASTIVE, clip_norm, context)


def train_all_candidates_step(
    batch: Batch, inventory: SenseInventory, model: WsdModel, optimizer: Adam,
    clip_norm: float | None = None, context: str = "step",
) -> tuple[LossValue, ForwardCounts]:
    """One all-candidates step: forward, backward, Adam update."""
    return _update(batch, inventory, model, optimizer, MODE_ALL_CANDIDATES, clip_norm, context)


def check_bcl_gradients(batch: Batch, model: WsdModel, h: float = 1e-4) -> float:
    """Max relative error of the full contrastive-loss gradient against central
    differences, taken over every model parameter; each is bumped in place and
    restored, so the model's data and grads are left as they were."""
    def loss() -> Tensor:
        return scored_forward(batch, None, model, MODE_CONTRASTIVE)[1].total

    return finite_diff_check(loss, model.parameters(), h=h)


def make_batches(
    corpus: list[CorpusInstance],
    inventory: SenseInventory,
    batch_size: int,
    seed: int,
    epoch: int,
) -> list[Batch]:
    """Seeded per-epoch shuffle into batches; a final partial batch of < 2 is dropped."""
    labelled = [inst for inst in corpus if inst.gold is not None]
    if not labelled:
        return []
    order = np.random.default_rng([seed, epoch]).permutation(len(labelled))
    shuffled = [labelled[i] for i in order]
    batches = []
    for start in range(0, len(shuffled), batch_size):
        chunk = shuffled[start : start + batch_size]
        if len(chunk) < 2:
            break
        glosses = [look_up(inst, inventory.gloss_of, inst.gold) for inst in chunk]
        batches.append(Batch(instances=chunk, gold_glosses=glosses))
    return batches


def train(
    model: WsdModel,
    optimizer: Adam,
    corpus: list[CorpusInstance],
    inventory: SenseInventory,
    config: TrainConfig,
    mode: str = MODE_CONTRASTIVE,
    start_step: int = 0,
    max_steps: int | None = None,
    fingerprint: str = "",
) -> RunMetrics:
    """Run the training loop; batch order is a pure function of (seed, epoch),
    so a run resumed at ``start_step`` replays the uninterrupted schedule."""
    _check_mode(mode)
    metrics = RunMetrics(mode=mode, fingerprint=fingerprint)
    run_start = time.perf_counter()
    step = 0
    for epoch in range(config.epochs):
        for batch_index, batch in enumerate(
            make_batches(corpus, inventory, config.batch_size, config.seed, epoch)
        ):
            if step < start_step:
                step += 1
                continue
            if max_steps is not None and step >= max_steps:
                metrics.wall_seconds = time.perf_counter() - run_start
                return metrics
            step_start = time.perf_counter()
            where = f"epoch {epoch}, batch {batch_index}"
            loss, counts = _update(
                batch, inventory, model, optimizer, mode, config.clip_norm, where
            )
            metrics.records.append(StepRecord(
                step=step, epoch=epoch, loss=loss.value, context_forwards=counts.context,
                gloss_forwards=counts.gloss, elapsed=time.perf_counter() - step_start,
            ))
            step += 1
    metrics.wall_seconds = time.perf_counter() - run_start
    return metrics
