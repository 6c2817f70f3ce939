"""Sense prediction: score every candidate gloss and pick the argmax.

The context is encoded once per instance (full context, target row sliced
out) and the highest-scoring sense wins. Ties break toward the lowest
inventory index, which is the first-sense prior. The frequency and
first-sense baselines live here too.

A gloss's code row depends on the gloss encoder alone, never on the
context, so each distinct gloss is encoded once per model and its row kept
in ``_gloss_rows``, which holds each model's rows for as long as the model
lives, and beside them each candidate set's rows stacked into one read-only
(m, d_model) matrix, keyed by the set's gloss texts. Both are stamped with
the bytes of ``WsdModel.gloss_values``, the gloss encoder's one slice of the
model's value buffer, and dropped whenever they differ, so an optimizer step,
``randomize_parameters`` or an in-place write to a parameter never leaves a
stale row. A second model, even one loaded from the same checkpoint, starts
with no rows. Threads may share a model for prediction (a race at worst
encodes a gloss twice), but not while it is being trained. Training never
reads the cache. Scoring calls ufunc ``.reduce`` and ``ndarray.argmax``, not
numpy's Python-level wrappers, which cost more than the arithmetic here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable
from weakref import WeakKeyDictionary

import numpy as np

from .data import CorpusInstance, SenseEntry, SenseInventory, look_up
from .errors import ContractError
from .model import WsdModel, context_codes, gloss_codes


@dataclass
class CandidateScores:
    """Per-sense match scores, inventory-ordered; chosen_index is the argmax
    with ties broken toward the lowest index."""

    senses: list[SenseEntry]
    scores: list[float]
    chosen_index: int

    @property
    def sense_ids(self) -> list[str]:
        return [s.id for s in self.senses]


@dataclass
class Prediction:
    instance_id: str
    sense_id: str
    gloss: list[str]
    score: float


Predictor = Callable[[CorpusInstance], Prediction]

# per model: the gloss-encoder bytes its rows were encoded under, each gloss's row,
# and each candidate set's rows stacked, keyed by the set's gloss texts
_gloss_rows: WeakKeyDictionary[WsdModel, tuple[bytes, dict, dict]] = WeakKeyDictionary()


def _candidate_rows(model: WsdModel, senses: list[SenseEntry]) -> np.ndarray:
    """The senses' gloss code rows stacked (m, d_model), read-only, each gloss encoded
    by ``gloss_codes`` only if the model has no row for it under its current
    gloss-encoder bytes."""
    stamp = model.gloss_values.tobytes()
    cached = _gloss_rows.get(model)
    if cached is None or cached[0] != stamp:
        cached = _gloss_rows[model] = (stamp, {}, {})
    _, rows, matrices = cached
    keys = tuple(tuple(s.gloss) for s in senses)
    matrix = matrices.get(keys)
    if matrix is None:
        for key, sense in zip(keys, senses):
            if key not in rows:
                rows[key] = gloss_codes(model, sense.gloss).data[0].copy()
        matrix = np.array([rows[key] for key in keys])
        matrix.flags.writeable = False
        matrices[keys] = matrix
    return matrix


def score_candidates(
    instance: CorpusInstance, inventory: SenseInventory, model: WsdModel
) -> CandidateScores:
    senses = look_up(instance, inventory.candidates)
    word = context_codes(model, instance.tokens, instance.target_index)
    # products summed row by row are bit-equal to score_pair per sense; a matmul is not
    scores = np.add.reduce(_candidate_rows(model, senses) * word.data, axis=1)
    if not np.logical_and.reduce(np.isfinite(scores)):
        raise ContractError(f"instance {instance.id!r}: non-finite candidate score")
    chosen = int(scores.argmax())  # argmax returns the first maximum
    return CandidateScores(senses=senses, scores=scores.tolist(), chosen_index=chosen)


def predict(instance: CorpusInstance, inventory: SenseInventory, model: WsdModel) -> Prediction:
    ranked = score_candidates(instance, inventory, model)
    best = ranked.senses[ranked.chosen_index]
    return Prediction(
        instance_id=instance.id,
        sense_id=best.id,
        gloss=best.gloss,
        score=ranked.scores[ranked.chosen_index],
    )


def predict_corpus(
    instances: list[CorpusInstance], inventory: SenseInventory, model: WsdModel
) -> list[Prediction]:
    return [predict(inst, inventory, model) for inst in instances]


def mfs_predictor(
    training_corpus: list[CorpusInstance], inventory: SenseInventory
) -> Predictor:
    """Most-frequent-sense baseline from gold-labelled training counts.

    Ties and unseen (lemma, pos) keys fall back toward the inventory order,
    so an unseen word gets its first listed sense.
    """
    counts: dict[tuple[str, str], Counter] = {}
    for inst in training_corpus:
        if inst.gold is not None:
            counts.setdefault((inst.lemma, inst.pos), Counter())[inst.gold] += 1

    def predictor(instance: CorpusInstance) -> Prediction:
        senses = look_up(instance, inventory.candidates)
        seen = counts.get((instance.lemma, instance.pos), Counter())
        best = max(senses, key=lambda sense: seen[sense.id])  # the first of tied maxima
        return Prediction(
            instance_id=instance.id, sense_id=best.id, gloss=best.gloss, score=float(seen[best.id])
        )

    return predictor


def first_sense_predictor(inventory: SenseInventory) -> Predictor:
    """Always the first listed sense; inventory order encodes sense priority."""

    def predictor(instance: CorpusInstance) -> Prediction:
        first = look_up(instance, inventory.candidates)[0]
        return Prediction(instance_id=instance.id, sense_id=first.id, gloss=first.gloss, score=0.0)

    return predictor
