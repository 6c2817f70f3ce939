"""All-words F1 scoring with a per-POS breakdown, and training-cost accounting.

Every prediction must name a gold instance; with full coverage, micro F1
equals plain accuracy. Cost accounting compares two runs' ``RunMetrics``
directly: encoder-forward counts are the primary hardware-independent
metric, next to wall clock. A run trains in one process, so its
``device_hours`` are its own wall-clock hours.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

from .data import POS_TAGS, CorpusInstance, load_gold_keys, load_predictions, read_records
from .errors import ComparisonError, ScoringError, is_count, is_finite_number
from .training import MODES, RunMetrics, StepRecord


@dataclass
class Counts:
    attempted: int
    correct: int
    total_gold: int


@dataclass
class EvalReport:
    micro_f1: float
    precision: float
    recall: float
    counts: Counts
    per_pos: dict[str, float] = field(default_factory=dict)
    per_pos_counts: dict[str, Counts] = field(default_factory=dict)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    if precision == recall:
        # harmonic mean of equal values; bypassing the formula keeps
        # full-coverage micro F1 exactly equal to accuracy
        return precision
    return 2.0 * precision * recall / (precision + recall)


def _score(predictions: dict[str, str], gold: dict[str, str]) -> tuple[float, float, float, Counts]:
    attempted = len(predictions)
    correct = sum(1 for key, sense in predictions.items() if gold[key] == sense)
    total = len(gold)
    precision = correct / attempted if attempted else 0.0
    recall = correct / total if total else 0.0
    return precision, recall, _f1(precision, recall), Counts(attempted, correct, total)


def score_keys(
    predictions: dict[str, str],
    gold: dict[str, str],
    pos_by_id: dict[str, str] | None = None,
) -> EvalReport:
    """Micro precision/recall/F1 of predictions against gold keys.

    ``pos_by_id`` enables the per-POS breakdown; every scored id must then
    carry a POS tag.
    """
    unknown = sorted(set(predictions) - set(gold))
    if unknown:
        raise ScoringError(f"predictions for unknown instance ids: {unknown[:5]}")
    precision, recall, f1, counts = _score(predictions, gold)
    report = EvalReport(
        micro_f1=f1, precision=precision, recall=recall, counts=counts
    )
    if pos_by_id is not None:
        missing = sorted(set(gold) - set(pos_by_id))
        if missing:
            raise ScoringError(f"gold ids missing from the corpus: {missing[:5]}")
        for pos in POS_TAGS:
            gold_pos = {k: v for k, v in gold.items() if pos_by_id[k] == pos}
            if not gold_pos:
                continue
            pred_pos = {k: v for k, v in predictions.items() if k in gold_pos}
            _, _, pos_f1, pos_counts = _score(pred_pos, gold_pos)
            report.per_pos[pos] = pos_f1
            report.per_pos_counts[pos] = pos_counts
    return report


def score_f1(predictions_path, gold_path, corpus: list[CorpusInstance] | None = None) -> EvalReport:
    """File-level wrapper over ``score_keys``; the corpus supplies POS tags."""
    predictions = load_predictions(predictions_path)
    gold = load_gold_keys(gold_path)
    pos_by_id = {inst.id: inst.pos for inst in corpus} if corpus is not None else None
    return score_keys(predictions, gold, pos_by_id)


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


@dataclass
class CostComparison:
    run: RunMetrics
    baseline: RunMetrics
    gloss_forward_reduction: float
    wall_clock_reduction: float


def compare_costs(run: RunMetrics, baseline: RunMetrics) -> CostComparison:
    """Cost of ``run`` relative to ``baseline``: reduction = 1 - run/baseline.

    Both runs must come from the same model config, data, and epochs, which
    is what the fingerprint certifies.
    """
    if run.fingerprint != baseline.fingerprint:
        raise ComparisonError(
            f"runs are not comparable: fingerprints {run.fingerprint[:12]}... "
            f"and {baseline.fingerprint[:12]}... differ"
        )
    if baseline.gloss_forwards == 0 or baseline.wall_seconds == 0.0:
        raise ComparisonError("baseline run recorded no work")
    return CostComparison(
        run=run,
        baseline=baseline,
        gloss_forward_reduction=1.0 - run.gloss_forwards / baseline.gloss_forwards,
        wall_clock_reduction=1.0 - run.wall_seconds / baseline.wall_seconds,
    )


def config_fingerprint(*parts) -> str:
    """Stable hex digest over configs and data descriptors."""
    canonical = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Metrics logs (line-delimited JSON)
# ---------------------------------------------------------------------------


_RUN_FIELDS = ("mode", "fingerprint")


def save_metrics(path, metrics: RunMetrics) -> None:
    """One JSON object per line: the run header, one line per step, the summary."""
    header = {k: getattr(metrics, k) for k in _RUN_FIELDS}
    lines = [
        {"kind": "run", **header},
        *({"kind": "step", **asdict(r)} for r in metrics.records),
        {"kind": "summary", "wall_seconds": metrics.wall_seconds},
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)


_KINDS = ("run", "step", "summary")
_FIELD_CHECKS = {
    "kind": (lambda v: isinstance(v, str) and v in _KINDS, f"one of {_KINDS}"),
    "mode": (lambda v: isinstance(v, str) and v in MODES, f"one of {MODES}"),
    "fingerprint": (lambda v: isinstance(v, str), "a string"),
    **dict.fromkeys(
        ("step", "epoch", "context_forwards", "gloss_forwards"), (is_count, "an integer >= 0")
    ),
    "loss": (is_finite_number, "a finite number"),
    **dict.fromkeys(
        ("elapsed", "wall_seconds"),
        (lambda v: is_finite_number(v) and v >= 0, "a finite number >= 0"),
    ),
}


def _checked(record: dict, name: str):
    """``record[name]`` once it passes its check in ``_FIELD_CHECKS``."""
    check, wanted = _FIELD_CHECKS[name]
    if not check(record[name]):
        raise ComparisonError(f"field {name!r} must be {wanted}, got {record[name]!r}")
    return record[name]


def load_metrics(path) -> RunMetrics:
    """The run a metrics log records: exactly one ``run`` header first, then its
    ``step`` records, then exactly one ``summary`` last. A record out of that
    order, or of another ``kind``, is an error located at its line."""
    runs: list[RunMetrics] = []
    summaries: list[float] = []

    def add(record: dict) -> None:
        kind = _checked(record, "kind")
        if summaries:
            raise ComparisonError(f"{kind} record after the summary")
        if kind == "run" and runs:
            raise ComparisonError("second run header")
        if kind != "run" and not runs:
            raise ComparisonError(f"{kind} record before the run header")
        if kind == "run":
            runs.append(RunMetrics(**{k: _checked(record, k) for k in _RUN_FIELDS}))
        elif kind == "step":
            step = {f.name: _checked(record, f.name) for f in fields(StepRecord)}
            runs[0].records.append(StepRecord(**step))
        else:
            summaries.append(_checked(record, "wall_seconds"))

    read_records(path, ComparisonError, add)
    if not runs:
        raise ComparisonError(f"{path}: no run header found")
    if not summaries:
        raise ComparisonError(f"{path}: the log ends without a summary record")
    runs[0].wall_seconds = summaries[0]
    return runs[0]
