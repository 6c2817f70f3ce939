"""Deterministic synthetic corpora for smoke tests, benchmarks, and demos.

Each (lemma, sense) pair gets a private cue word that appears both in the
sense's gloss and in every context using that sense, so a desk-scale model
can learn the mapping from scratch. All randomness comes from the seed.
"""

from __future__ import annotations

import numpy as np

from .data import POS_TAGS, CorpusInstance, SenseEntry, SenseInventory
from .errors import check_positive_ints

_FILLERS = ["the", "a", "very", "old", "new", "small", "quiet", "bright"]
_GLOSS_PADDING = ["quality", "of", "being"]


def _cue(lemma_index: int, sense_index: int) -> str:
    return f"cue{lemma_index}x{sense_index}"


def synthetic_corpus(
    n_lemmas: int = 10,
    senses_per_lemma: int = 3,
    n_instances: int = 50,
    seed: int = 0,
) -> tuple[list[CorpusInstance], SenseInventory]:
    """Corpus plus matching inventory; every instance has senses_per_lemma candidates.

    Each size must be a positive integer, else ConfigError."""
    check_positive_ints(
        n_lemmas=n_lemmas, senses_per_lemma=senses_per_lemma, n_instances=n_instances
    )
    rng = np.random.default_rng(seed)
    inventory = SenseInventory()
    for i in range(n_lemmas):
        lemma = f"term{i}"
        pos = POS_TAGS[i % len(POS_TAGS)]
        senses = [
            SenseEntry(
                id=f"{lemma}%{k + 1}",
                gloss=[_cue(i, k), _GLOSS_PADDING[k % len(_GLOSS_PADDING)], f"kind{k}"],
            )
            for k in range(senses_per_lemma)
        ]
        inventory.add(lemma, pos, senses)

    instances = []
    for n in range(n_instances):
        i = n % n_lemmas
        k = (n // n_lemmas) % senses_per_lemma
        lemma = f"term{i}"
        pos = POS_TAGS[i % len(POS_TAGS)]
        cue = _cue(i, k)
        filler = [_FILLERS[int(rng.integers(len(_FILLERS)))] for _ in range(3)]
        tokens = [filler[0], cue, lemma, filler[1], cue, filler[2]]
        instances.append(
            CorpusInstance(
                id=f"syn{n:04d}",
                tokens=tokens,
                target_index=2,
                lemma=lemma,
                pos=pos,
                gold=f"{lemma}%{k + 1}",
            )
        )
    return instances, inventory


def gold_keys(instances: list[CorpusInstance]) -> dict[str, str]:
    return {inst.id: inst.gold for inst in instances if inst.gold is not None}
