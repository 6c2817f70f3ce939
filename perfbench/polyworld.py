"""Seeded generator for the polysemous benchmark world.

Every lemma has 8 to 10 senses. Each sense owns a private cue word: it
opens the sense's gloss and fills one in three words of every context that
uses the sense; filler words pad glosses and contexts to a sampled length.
Contexts run 4 to 30 tokens and glosses 2 to 14, so sequence lengths vary
within a batch. The lengths of one lemma's glosses, and of its contexts in
each split, are spread evenly over those ranges and dealt out in seeded
order: every seed has the same length distribution, so its op costs, and
differs in which instance gets which length and in every word. The
training split holds eight instances per sense, so every sense is seen in
training, and the held-out split four more per sense.

The world reaches the program only as files: ``write_world`` saves it with
``save_corpus``/``save_inventory`` and ``read_world`` loads it back through
``load_corpus``/``load_inventory``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from polywsd.data import (
    POS_TAGS,
    CorpusInstance,
    SenseEntry,
    SenseInventory,
    load_corpus,
    load_inventory,
    save_corpus,
    save_inventory,
)

N_LEMMAS = 3
CONTEXT_LEN = (4, 30)  # including the target word
GLOSS_LEN = (2, 14)
CUE_EVERY = 3  # one cue per this many non-target context words
TRAIN_PER_SENSE = 8
HELD_OUT_PER_SENSE = 4

_CONTEXT_FILLERS = [f"w{i}" for i in range(8)]
_GLOSS_FILLERS = [f"g{i}" for i in range(8)]


@dataclass
class World:
    train: list[CorpusInstance]
    held_out: list[CorpusInstance]
    inventory: SenseInventory


def senses_of(lemma_index: int) -> int:
    """8, 9 or 10 senses, fixed by the lemma's index so the mean is seed-free."""
    return 8 + lemma_index % 3


def _fillers(rng: np.random.Generator, pool: list[str], n: int) -> list[str]:
    return [pool[int(j)] for j in rng.integers(len(pool), size=n)]


def _lengths(rng: np.random.Generator, bounds: tuple[int, int], count: int) -> list[int]:
    """``count`` lengths spread evenly over ``bounds``, in seeded order."""
    return [int(n) for n in rng.permutation(np.linspace(bounds[0], bounds[1], count).round())]


def _gloss(rng: np.random.Generator, cue: str, length: int) -> list[str]:
    return [cue] + _fillers(rng, _GLOSS_FILLERS, length - 1)


def _context(rng: np.random.Generator, lemma: str, cue: str, length: int) -> tuple[list[str], int]:
    n = length - 1
    words = _fillers(rng, _CONTEXT_FILLERS, n)
    for j in rng.choice(n, size=max(1, n // CUE_EVERY), replace=False):
        words[int(j)] = cue
    target = int(rng.integers(n + 1))
    words.insert(target, lemma)
    return words, target


def polysemous_world(seed: int, n_lemmas: int = N_LEMMAS) -> World:
    rng = np.random.default_rng([seed, 0x5EED])
    inventory = SenseInventory()
    train: list[CorpusInstance] = []
    held_out: list[CorpusInstance] = []
    for i in range(n_lemmas):
        lemma, pos = f"lemma{i}", POS_TAGS[i % len(POS_TAGS)]
        cues = [f"cue{i}x{k}" for k in range(senses_of(i))]
        gloss_lengths = _lengths(rng, GLOSS_LEN, len(cues))
        inventory.add(
            lemma,
            pos,
            [
                SenseEntry(id=f"{lemma}%{k + 1}", gloss=_gloss(rng, cue, gloss_lengths[k]))
                for k, cue in enumerate(cues)
            ],
        )
        for split, per_sense, tag in (
            (train, TRAIN_PER_SENSE, "tr"),
            (held_out, HELD_OUT_PER_SENSE, "ho"),
        ):
            lengths = iter(_lengths(rng, CONTEXT_LEN, per_sense * len(cues)))
            for r in range(per_sense):
                for k, cue in enumerate(cues):
                    tokens, target = _context(rng, lemma, cue, next(lengths))
                    split.append(
                        CorpusInstance(
                            id=f"{tag}{i:02d}.{k:02d}.{r}",
                            tokens=tokens,
                            target_index=target,
                            lemma=lemma,
                            pos=pos,
                            gold=f"{lemma}%{k + 1}",
                        )
                    )
    return World(train=train, held_out=held_out, inventory=inventory)


def write_world(world: World, directory: str) -> dict[str, str]:
    os.makedirs(directory, exist_ok=True)
    paths = {
        name: os.path.join(directory, f"{name}.jsonl")
        for name in ("train", "held_out", "inventory")
    }
    save_corpus(paths["train"], world.train)
    save_corpus(paths["held_out"], world.held_out)
    save_inventory(paths["inventory"], world.inventory)
    return paths


def read_world(paths: dict[str, str]) -> World:
    return World(
        train=load_corpus(paths["train"]),
        held_out=load_corpus(paths["held_out"]),
        inventory=load_inventory(paths["inventory"]),
    )
