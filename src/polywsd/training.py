"""Batch contrastive training and the all-candidates baseline: one step for both.

The regimes differ only in a step's gloss columns, which ``step_columns``
builds from (batch, inventory, mode). BCL scores the batch's b gold glosses:
the other items' gold glosses are each row's negatives, the targets lie on the
diagonal, and off-diagonal cells whose gloss text equals the row's own are
false negatives and are masked. The all-candidates baseline scores the
sum(m_i) candidate glosses of all items, and row i masks every column but its
own candidates. ``scored_forward`` is then one path for both: the b contexts
as one padded encoder pass, the glosses as another, the score matrix, and one
masked cross-entropy (``bcl_loss``, one tape op), the mean negative
log-probability of each row's target cell under the masked row softmax. The
tape records one op per layer op, not per sequence. A step costs b context
encodes either way, and b gloss encodes against sum(m_i); ``ForwardCounts``
reports these counts, and ``RunMetrics`` sums them for cost accounting, next
to the run's wall clock (its device-hours, as a run is one process).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from . import tensor as T
from .data import CorpusInstance, SenseInventory
from .errors import BatchError, ConfigError, DataError, InventoryError, ShapeError, TrainingError
from .errors import check_optimizer_settings, check_positive_ints, is_count
from .fusion import score_rows
from .model import WsdModel, context_code_rows, gloss_code_rows
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


class Adam:
    """Standard Adam with bias correction; deterministic given grads.

    The moments of all parameters live in two flat buffers, so a step is a
    handful of whole-buffer numpy calls plus one in-place update per
    parameter. ``m`` and ``v`` read as per-parameter views of those buffers,
    so writing into a view sets that moment.
    """

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
        ends = np.cumsum([p.data.size for p in self.params], dtype=int)
        self._slices = [slice(end - p.data.size, end) for p, end in zip(self.params, ends)]
        size = int(ends[-1]) if len(ends) else 0
        self._m_flat = np.zeros(size)
        self._v_flat = np.zeros(size)

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[sl].reshape(p.data.shape) for p, sl in zip(self.params, self._slices)]

    @property
    def m(self) -> list[np.ndarray]:
        return self._views(self._m_flat)

    @property
    def v(self) -> list[np.ndarray]:
        return self._views(self._v_flat)

    @classmethod
    def from_config(cls, params: list[Tensor], config: TrainConfig) -> "Adam":
        return cls(params, config.learning_rate, config.beta1, config.beta2, config.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> bool:
        """One update from the current grads; a missing grad counts as zero.

        Returns False, and changes no parameter, moment or step count, if
        any grad is non-finite.
        """
        g = np.concatenate(
            [(p.grad if p.grad is not None else np.zeros_like(p.data)).ravel() for p in self.params]
        )
        if not np.isfinite(g).all():
            return False
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        m, v = self._m_flat, self._v_flat
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        update = self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        for p, u in zip(self.params, self._views(update)):
            p.data -= u
        return True


def _clip_gradients(params: list[Tensor], clip_norm: float | None) -> None:
    if clip_norm is None:
        return
    total = np.sqrt(
        sum(float((p.grad**2).sum()) for p in params if p.grad is not None)
    )
    if total > clip_norm:
        ratio = clip_norm / total
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * ratio


def _check_finite(loss: LossValue, model: WsdModel, context: str) -> None:
    if not np.isfinite(loss.per_example).all():
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
    batch: Batch, inventory: SenseInventory | None, mode: str
) -> tuple[list[list[str]], np.ndarray, np.ndarray]:
    """A step's gloss columns, mask and row targets. BCL: the b gold glosses, the
    duplicate-gloss mask, the diagonal. All-candidates: every item's candidates
    (from ``inventory``), row i masking all but its own, targets at the golds."""
    _check_mode(mode)
    if mode == MODE_CONTRASTIVE:
        glosses = batch.gold_glosses
        return glosses, duplicate_gloss_mask(glosses), np.arange(len(batch))
    glosses, owners, targets = [], [], []
    for i, inst in enumerate(batch.instances):
        senses = inventory.candidates(inst.lemma, inst.pos)
        sense_ids = [s.id for s in senses]
        if inst.gold is None or inst.gold not in sense_ids:
            raise DataError(
                f"instance {inst.id!r}: gold sense {inst.gold!r} not in its candidate set"
            )
        targets.append(len(glosses) + sense_ids.index(inst.gold))
        owners.extend([i] * len(senses))
        glosses.extend(s.gloss for s in senses)
    mask = np.arange(len(batch))[:, None] != np.array(owners)[None, :]
    return glosses, mask, np.array(targets)


def scored_forward(
    batch: Batch, inventory: SenseInventory | None, model: WsdModel, mode: str
) -> tuple[ScoreMatrix, LossValue, ForwardCounts]:
    """Encode the batch's contexts, then the step's gloss columns, one padded pass
    per side; score every (context, gloss) pair and take the masked loss. Cell
    (i, j) scores word i against gloss j, as ``fusion_matrix``."""
    glosses, mask, targets = step_columns(batch, inventory, mode)
    scores = score_rows(context_code_rows(model, batch.instances), gloss_code_rows(model, glosses))
    sm = ScoreMatrix(scores=scores, mask=mask, targets=targets)
    return sm, bcl_loss(sm), ForwardCounts(context=len(batch), gloss=len(glosses))


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
    _clip_gradients(optimizer.params, clip_norm)
    if not optimizer.step():
        _raise_non_finite(model, "gradient", lambda t: 0.0 if t.grad is None else t.grad, context)
    if not np.isfinite(np.concatenate([p.data.ravel() for p in optimizer.params])).all():
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
        glosses = []
        for inst in chunk:
            try:
                glosses.append(inventory.gloss_of(inst.lemma, inst.pos, inst.gold))
            except InventoryError as exc:
                raise DataError(f"instance {inst.id!r}: {exc}") from None
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
