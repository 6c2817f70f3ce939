"""Corpus, sense-inventory, and vocabulary ingestion, plus the word-to-id mapping.

File formats (all UTF-8):

* corpus: one JSON object per line with fields ``id``, ``tokens`` (array of
  strings), ``target_index`` (int), ``lemma``, ``pos``, and optional ``gold``.
* inventory: one JSON object per line with fields ``lemma``, ``pos``, and
  ``senses`` (ordered array of ``{"id": ..., "gloss": [...]}``); the listed
  order encodes first-sense priority.
* gold keys: lines of ``instance_id<SPACE>sense_id``.
* predictions: lines of ``instance_id<TAB>sense_id``.

Every file the package reads goes through the readers here, each given the
caller's error class: ``read_lines`` (non-blank lines of UTF-8 text),
``parse_json`` (one JSON value) and ``read_records`` (one JSON object per
line). Bytes that are not UTF-8, malformed or too deeply nested JSON, and a
line that is not an object become that error at ``path:line`` (or ``path``),
which the CLI reports with exit code 1, not a traceback.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .errors import DataError, InventoryError, ScoringError

POS_TAGS = ("NOUN", "VERB", "ADJ", "ADV")

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
_RESERVED = ("<pad>", "<unk>", "<cls>", "<sep>")


@dataclass
class CorpusInstance:
    """One disambiguation item: a tagged target word inside its context."""

    id: str
    tokens: list[str]
    target_index: int
    lemma: str
    pos: str
    gold: str | None = None

    def __post_init__(self):
        if self.pos not in POS_TAGS:
            raise DataError(f"instance {self.id!r}: pos {self.pos!r} not in {POS_TAGS}")
        if not self.tokens:
            raise DataError(f"instance {self.id!r}: empty token list")
        if not 0 <= self.target_index < len(self.tokens):
            raise DataError(
                f"instance {self.id!r}: target_index {self.target_index} out of range "
                f"for {len(self.tokens)} tokens"
            )


@dataclass
class SenseEntry:
    """A sense id with its gloss text."""

    id: str
    gloss: list[str]

    def __post_init__(self):
        if not self.gloss:
            raise DataError(f"sense {self.id!r}: empty gloss")


class SenseInventory:
    """Ordered candidate senses per (lemma, pos); order is first-sense priority."""

    def __init__(self):
        self._entries: dict[tuple[str, str], list[SenseEntry]] = {}

    def add(self, lemma: str, pos: str, senses: list[SenseEntry]) -> None:
        key = (lemma, pos)
        if key in self._entries:
            raise DataError(f"duplicate inventory entry for {key}")
        seen = set()
        for sense in senses:
            if sense.id in seen:
                raise DataError(f"duplicate sense id {sense.id!r} under {key}")
            seen.add(sense.id)
        if not senses:
            raise InventoryError(f"inventory entry {key} lists no senses")
        self._entries[key] = senses

    def candidates(self, lemma: str, pos: str) -> list[SenseEntry]:
        """The senses of (lemma, pos); an InventoryError for a missing key, or for an
        entry whose list was emptied in place after ``add``."""
        senses = self._entries.get((lemma, pos))
        if not senses:
            if senses is None:
                raise InventoryError(f"no senses for lemma {lemma!r} with pos {pos!r}")
            raise InventoryError(f"inventory entry {(lemma, pos)} lists no senses")
        return senses

    def items(self):
        return self._entries.items()

    def gloss_of(self, lemma: str, pos: str, sense_id: str) -> list[str]:
        for sense in self.candidates(lemma, pos):
            if sense.id == sense_id:
                return sense.gloss
        raise InventoryError(f"sense {sense_id!r} not listed for ({lemma!r}, {pos!r})")


def look_up(instance: CorpusInstance, lookup: Callable, *args):
    """``lookup(instance.lemma, instance.pos, *args)``, an inventory method; an
    InventoryError it raises is raised again naming the instance."""
    try:
        return lookup(instance.lemma, instance.pos, *args)
    except InventoryError as exc:
        raise InventoryError(f"instance {instance.id!r}: {exc}") from None


@dataclass
class Vocab:
    """Token-to-id map with fixed reserved ids 0..3 (pad, unk, cls, sep)."""

    token_to_id: dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.token_to_id) + len(_RESERVED)

    def tokens_in_id_order(self) -> list[str]:
        return sorted(self.token_to_id, key=self.token_to_id.__getitem__)

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocab":
        return cls({tok: i + len(_RESERVED) for i, tok in enumerate(tokens)})


# ---------------------------------------------------------------------------
# Loading and saving
# ---------------------------------------------------------------------------


def read_lines(path, error):
    """(line number, line) for each non-blank line of the UTF-8 text file at ``path``,
    with newlines translated as in text mode; bytes that are not UTF-8 raise ``error``."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:  # an undecodable byte, kept as a lone surrogate
                    raise error(f"{path}:{lineno}: bytes that are not UTF-8") from None
            if line.strip():
                yield lineno, line


def parse_json(text, where, error, what: str = "JSON"):
    """One JSON value from ``text`` (str, or bytes decoded as UTF-8); malformed JSON,
    bytes that are not UTF-8 and nesting too deep to parse raise ``error`` at ``where``."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: malformed {what}: {exc}") from None


def read_records(path, error, build) -> list:
    """``build`` applied to each object of a JSON-lines file, one per non-blank line;
    a field it finds missing, or an ``error`` it raises, is located at ``path:line``:
    the latter keeps its own class, such as ``InventoryError`` under ``DataError``."""
    built = []
    for lineno, line in read_lines(path, error):
        record = parse_json(line, f"{path}:{lineno}", error, "record")
        if not isinstance(record, dict):
            raise error(f"{path}:{lineno}: record is not an object")
        try:
            built.append(build(record))
        except KeyError as exc:
            raise error(f"{path}:{lineno}: missing field {exc.args[0]!r}") from None
        except error as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
    return built


def _strings(value, field: str) -> list[str]:
    """A JSON array of strings; a bare string is rejected, not split into characters."""
    if not isinstance(value, list):
        raise DataError(f"{field} must be an array of strings, got {type(value).__name__}")
    for item in value:  # a plain loop: this runs once per token of every file
        if type(item) is not str:
            _typed(item, f"{field}[{value.index(item)}]")
    return value


def _typed(value, field: str, kind: type = str):
    """``value`` if its type is exactly ``kind`` (so a bool is no int); nothing is converted."""
    if type(value) is not kind:
        raise DataError(f"{field} must be of type {kind.__name__}, got {value!r}")
    return value


def _instance(obj: dict) -> CorpusInstance:
    return CorpusInstance(
        id=_typed(obj["id"], "id"),
        tokens=_strings(obj["tokens"], "tokens"),
        target_index=_typed(obj["target_index"], "target_index", int),
        lemma=_typed(obj["lemma"], "lemma"),
        pos=_typed(obj["pos"], "pos"),
        gold=None if obj.get("gold") is None else _typed(obj["gold"], "gold"),
    )


def load_corpus(path) -> list[CorpusInstance]:
    return read_records(path, DataError, _instance)


def save_corpus(path, instances: list[CorpusInstance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            record = {
                "id": inst.id,
                "tokens": inst.tokens,
                "target_index": inst.target_index,
                "lemma": inst.lemma,
                "pos": inst.pos,
            }
            if inst.gold is not None:
                record["gold"] = inst.gold
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_inventory(path) -> SenseInventory:
    inventory = SenseInventory()

    def add(obj: dict) -> None:
        if not isinstance(obj["senses"], list) or not all(
            isinstance(s, dict) for s in obj["senses"]
        ):
            raise DataError("senses must be an array of objects")
        senses = [
            SenseEntry(id=_typed(s["id"], "sense id"), gloss=_strings(s["gloss"], "gloss"))
            for s in obj["senses"]
        ]
        inventory.add(_typed(obj["lemma"], "lemma"), _typed(obj["pos"], "pos"), senses)

    read_records(path, DataError, add)
    return inventory


def save_inventory(path, inventory: SenseInventory) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for (lemma, pos), senses in inventory.items():
            record = {
                "lemma": lemma,
                "pos": pos,
                "senses": [{"id": s.id, "gloss": s.gloss} for s in senses],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _read_pairs(path, sep, layout: str, kind: str) -> dict[str, str]:
    """A two-column key file as {id: sense_id}; ``sep`` None splits on any whitespace."""
    pairs: dict[str, str] = {}
    for lineno, line in read_lines(path, ScoringError):
        parts = line.rstrip("\n").split(sep)
        if len(parts) != 2:
            raise ScoringError(f"{path}:{lineno}: expected {layout!r}")
        if parts[0] in pairs:
            raise ScoringError(f"{path}:{lineno}: duplicate {kind} id {parts[0]!r}")
        pairs[parts[0]] = parts[1]
    return pairs


def load_gold_keys(path) -> dict[str, str]:
    return _read_pairs(path, None, "id sense_id", "gold")


def save_gold_keys(path, gold: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for instance_id, sense_id in gold.items():
            fh.write(f"{instance_id} {sense_id}\n")


def load_predictions(path) -> dict[str, str]:
    return _read_pairs(path, "\t", "id<TAB>sense_id", "prediction")


def save_predictions(path, predictions: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for instance_id, sense_id in predictions.items():
            fh.write(f"{instance_id}\t{sense_id}\n")


# ---------------------------------------------------------------------------
# Vocabulary and tokenization
# ---------------------------------------------------------------------------


def build_vocab(
    corpus: list[CorpusInstance], inventory: SenseInventory, min_freq: int = 1
) -> Vocab:
    """Count corpus tokens plus all gloss tokens; keep those at or above min_freq.

    Ids >= 4 are assigned by descending frequency, ties broken lexicographically,
    so identical inputs always produce the identical mapping.
    """
    if min_freq < 1:
        raise DataError(f"min_freq must be >= 1, got {min_freq}")
    counts: Counter[str] = Counter()
    for inst in corpus:
        counts.update(inst.tokens)
    for _, senses in inventory.items():
        for sense in senses:
            counts.update(sense.gloss)
    kept = sorted(
        (tok for tok, n in counts.items() if n >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocab.from_tokens(kept)


def _window(n: int, target_index: int, capacity: int) -> tuple[int, int]:
    """Start/stop of a capacity-sized window over n words that keeps the target."""
    if n <= capacity:
        return 0, n
    start = max(0, min(target_index - capacity // 2, n - capacity))
    return start, start + capacity


def lookup_ids(words: list[str], vocab: Vocab) -> list[int]:
    """The id of each word, ``UNK_ID`` if it is not in ``vocab``; the dict's bound
    ``get`` and the unknown id are locals, so no Python-level call or global lookup
    runs per word."""
    get, unk = vocab.token_to_id.get, UNK_ID
    return [get(w, unk) for w in words]


def content_ids_around(
    words: list[str], target_index: int, vocab: Vocab, capacity: int
) -> tuple[list[int], int]:
    """Map words to ids, centrally truncated so the target word survives.

    Returns the ids and the target's index within the kept window.
    """
    if not 0 <= target_index < len(words):
        raise DataError(f"target_index {target_index} out of range for {len(words)} words")
    start, stop = _window(len(words), target_index, capacity)
    return lookup_ids(words[start:stop], vocab), target_index - start
