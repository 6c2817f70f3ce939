"""Corpus/inventory/vocab loading and the word-to-id mapping."""

import json
from types import SimpleNamespace

import pytest

from polywsd import data
from polywsd.data import (
    CLS_ID,
    SEP_ID,
    UNK_ID,
    CorpusInstance,
    SenseEntry,
    SenseInventory,
    Vocab,
    build_vocab,
    content_ids_around,
    load_corpus,
    load_inventory,
    lookup_ids,
    save_inventory,
)
from polywsd.errors import DataError, InventoryError, ScoringError
from polywsd.model import _gloss_ids


def _write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _corpus_record(i, tokens=("the", "bank", "closed"), target=1, gold="bank%1"):
    return {
        "id": f"d{i}",
        "tokens": list(tokens),
        "target_index": target,
        "lemma": "bank",
        "pos": "NOUN",
        "gold": gold,
    }


class TestLoadCorpus:
    def test_three_valid_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_lines(path, [_corpus_record(i) for i in range(3)])
        instances = load_corpus(path)
        assert [inst.id for inst in instances] == ["d0", "d1", "d2"]

    def test_target_index_at_length_is_rejected_with_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_lines(path, [_corpus_record(0), _corpus_record(1, target=3)])
        with pytest.raises(DataError) as err:
            load_corpus(path)
        assert ":2:" in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_corpus(path) == []

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(_corpus_record(0)) + "\n{not json\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_corpus(path)
        assert ":2:" in str(err.value)

    def test_bad_pos_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rec = _corpus_record(0)
        rec["pos"] = "PRON"
        _write_lines(path, [rec])
        with pytest.raises(DataError):
            load_corpus(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rec = _corpus_record(0)
        del rec["lemma"]
        _write_lines(path, [rec])
        with pytest.raises(DataError) as err:
            load_corpus(path)
        assert "lemma" in str(err.value)

    @pytest.mark.parametrize("value", ["x", "1", 1.5, None, True])
    def test_non_integer_target_index_rejected_with_line(self, tmp_path, value):
        path = tmp_path / "corpus.jsonl"
        _write_lines(path, [_corpus_record(0), _corpus_record(1, target=value)])
        with pytest.raises(DataError) as err:
            load_corpus(path)
        assert f"{path}:2: " in str(err.value) and "target_index" in str(err.value)

    def test_string_tokens_rejected_not_split(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rec = _corpus_record(0, target=0)
        rec["tokens"] = "riverbank"
        _write_lines(path, [rec])
        with pytest.raises(DataError) as err:
            load_corpus(path)
        assert f"{path}:1: " in str(err.value) and "tokens" in str(err.value)


    @pytest.mark.parametrize(
        "field, value",
        [
            ("id", ["a"]),
            ("id", 7),
            ("id", None),
            ("lemma", 5),
            ("pos", ["NOUN"]),
            ("gold", [1, 2]),
            ("gold", 3),
            ("tokens", ["the", {"k": 1}, "closed"]),
            ("tokens", ["the", 2, "closed"]),
        ],
    )
    def test_non_string_field_rejected_with_line(self, tmp_path, field, value):
        path = tmp_path / "corpus.jsonl"
        rec = _corpus_record(1)
        rec[field] = value
        _write_lines(path, [_corpus_record(0), rec])
        with pytest.raises(DataError) as err:
            load_corpus(path)
        assert f"{path}:2: " in str(err.value) and field in str(err.value)

    def test_valid_records_load_as_given(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        no_gold = _corpus_record(1, gold=None)
        del no_gold["gold"]
        _write_lines(path, [_corpus_record(0), no_gold, _corpus_record(2, gold=None)])
        assert load_corpus(path) == [
            CorpusInstance("d0", ["the", "bank", "closed"], 1, "bank", "NOUN", "bank%1"),
            CorpusInstance("d1", ["the", "bank", "closed"], 1, "bank", "NOUN", None),
            CorpusInstance("d2", ["the", "bank", "closed"], 1, "bank", "NOUN", None),
        ]

class TestInventory:
    def _record(self, lemma="bank", pos="NOUN", n=3):
        return {
            "lemma": lemma,
            "pos": pos,
            "senses": [{"id": f"{lemma}%{k}", "gloss": ["gloss", f"s{k}"]} for k in range(n)],
        }

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "inventory.jsonl"
        _write_lines(path, [self._record()])
        inv = load_inventory(path)
        senses = inv.candidates("bank", "NOUN")
        assert [s.id for s in senses] == ["bank%0", "bank%1", "bank%2"]

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "inventory.jsonl"
        _write_lines(path, [self._record(), self._record()])
        with pytest.raises(DataError):
            load_inventory(path)

    def test_a_located_error_keeps_its_class(self, tmp_path):
        """An entry that lists no senses is the InventoryError ``SenseInventory.add``
        raises, located at its line; a duplicate key stays a plain DataError."""
        path = tmp_path / "inventory.jsonl"
        rec = self._record()
        rec["senses"] = []
        _write_lines(path, [rec])
        with pytest.raises(InventoryError) as err:
            load_inventory(path)
        assert str(err.value) == f"{path}:1: inventory entry ('bank', 'NOUN') lists no senses"
        _write_lines(path, [self._record(), self._record()])
        with pytest.raises(DataError) as err:
            load_inventory(path)
        assert type(err.value) is DataError and str(err.value).startswith(f"{path}:2: ")

    def test_duplicate_sense_id_rejected(self, tmp_path):
        path = tmp_path / "inventory.jsonl"
        rec = self._record()
        rec["senses"][1]["id"] = rec["senses"][0]["id"]
        _write_lines(path, [rec])
        with pytest.raises(DataError):
            load_inventory(path)

    def test_round_trip(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        _write_lines(first, [self._record(), self._record(lemma="run", pos="VERB", n=2)])
        inv = load_inventory(first)
        save_inventory(second, inv)
        again = load_inventory(second)
        assert list(inv.items()) == list(again.items())

    def test_string_gloss_rejected_not_split(self, tmp_path):
        path = tmp_path / "inventory.jsonl"
        rec = self._record()
        rec["senses"][2]["gloss"] = "riverbank"
        _write_lines(path, [self._record(lemma="run"), rec])
        with pytest.raises(DataError) as err:
            load_inventory(path)
        assert f"{path}:2: " in str(err.value) and "gloss" in str(err.value)

    @pytest.mark.parametrize(
        "where, value, field",
        [
            ((), {"lemma": 5}, "lemma"),
            ((), {"pos": None}, "pos"),
            (("senses", 1), {"id": 1}, "sense id"),
            (("senses", 1), {"id": ["bank%1"]}, "sense id"),
            (("senses", 2), {"gloss": ["gloss", 3]}, "gloss"),
        ],
    )
    def test_non_string_field_rejected_with_line(self, tmp_path, where, value, field):
        path = tmp_path / "inventory.jsonl"
        rec = self._record()
        target = rec
        for key in where:
            target = target[key]
        target.update(value)
        _write_lines(path, [self._record(lemma="run"), rec])
        with pytest.raises(DataError) as err:
            load_inventory(path)
        assert f"{path}:2: " in str(err.value) and field in str(err.value)

    def test_valid_records_load_as_given(self, tmp_path):
        path = tmp_path / "inventory.jsonl"
        _write_lines(path, [self._record(n=2)])
        assert list(load_inventory(path).items()) == [
            (
                ("bank", "NOUN"),
                [SenseEntry("bank%0", ["gloss", "s0"]), SenseEntry("bank%1", ["gloss", "s1"])],
            )
        ]

    @pytest.mark.parametrize("senses", ["bank%0", [3]])
    def test_senses_not_an_array_of_objects_rejected(self, tmp_path, senses):
        path = tmp_path / "inventory.jsonl"
        rec = self._record()
        rec["senses"] = senses
        _write_lines(path, [rec])
        with pytest.raises(DataError) as err:
            load_inventory(path)
        assert f"{path}:1: " in str(err.value)

    def test_missing_key_raises_inventory_error(self):
        inv = SenseInventory()
        with pytest.raises(InventoryError):
            inv.candidates("ghost", "NOUN")

    def test_empty_sense_list_raises_inventory_error_on_add_and_on_lookup(self):
        """An entry emptied in place after ``add`` is refused on lookup as ``add``
        refuses an empty list: the same InventoryError, not a failure further on."""
        inv = SenseInventory()
        with pytest.raises(InventoryError, match=r"entry \('bank', 'NOUN'\) lists no senses"):
            inv.add("bank", "NOUN", [])
        inv.add("bank", "NOUN", [SenseEntry("bank%1", ["river", "side"])])
        inv.candidates("bank", "NOUN").clear()
        with pytest.raises(InventoryError, match=r"entry \('bank', 'NOUN'\) lists no senses"):
            inv.candidates("bank", "NOUN")
        with pytest.raises(InventoryError, match="lists no senses"):
            inv.gloss_of("bank", "NOUN", "bank%1")

    def test_gloss_lookup(self):
        inv = SenseInventory()
        inv.add("bank", "NOUN", [SenseEntry("bank%1", ["river", "side"])])
        assert inv.gloss_of("bank", "NOUN", "bank%1") == ["river", "side"]
        with pytest.raises(InventoryError):
            inv.gloss_of("bank", "NOUN", "bank%9")


class TestVocab:
    def _corpus(self, tokens):
        return [
            CorpusInstance(id="x", tokens=list(tokens), target_index=0, lemma=tokens[0], pos="NOUN")
        ]

    def test_min_freq_one_counts_and_orders(self):
        vocab = build_vocab(self._corpus(["a", "a", "b"]), SenseInventory(), min_freq=1)
        assert "a" in vocab.token_to_id and "b" in vocab.token_to_id
        assert vocab.token_to_id["a"] < vocab.token_to_id["b"]

    def test_min_freq_two_excludes_rare(self):
        vocab = build_vocab(self._corpus(["a", "a", "b"]), SenseInventory(), min_freq=2)
        assert "b" not in vocab.token_to_id
        assert lookup_ids(["b"], vocab) == [UNK_ID]

    def test_deterministic(self):
        corpus = self._corpus(["c", "a", "b", "a"])
        v1 = build_vocab(corpus, SenseInventory(), min_freq=1)
        v2 = build_vocab(corpus, SenseInventory(), min_freq=1)
        assert v1.token_to_id == v2.token_to_id

    def test_gloss_tokens_included(self):
        inv = SenseInventory()
        inv.add("bank", "NOUN", [SenseEntry("bank%1", ["riverbed"])])
        vocab = build_vocab([], inv, min_freq=1)
        assert "riverbed" in vocab.token_to_id

    def test_reserved_ids_fixed(self):
        vocab = build_vocab(self._corpus(["a"]), SenseInventory())
        assert vocab.token_to_id["a"] >= 4
        assert vocab.size == 5

    def test_round_trip_through_token_list(self):
        vocab = build_vocab(self._corpus(["b", "a", "b"]), SenseInventory())
        again = Vocab.from_tokens(vocab.tokens_in_id_order())
        assert again.token_to_id == vocab.token_to_id


class TestTokenize:
    @pytest.fixture
    def vocab(self):
        return Vocab.from_tokens(["the", "bank", "w0", "w1", "w2", "w3", "w4", "w5"])

    def test_known_words(self, vocab):
        ids = lookup_ids(["the", "bank"], vocab)
        assert ids == [vocab.token_to_id["the"], vocab.token_to_id["bank"]]

    def test_oov_maps_to_unk(self, vocab):
        ids = lookup_ids(["the", "xyzzy"], vocab)
        assert ids == [vocab.token_to_id["the"], UNK_ID]

    def test_never_exceeds_max_len_with_single_markers(self, vocab):
        # a gloss's ids keep its first max_len - 2 words and never hold a marker,
        # so encode's wrapped sequence has exactly one start and one end marker
        import numpy as np

        rng = np.random.default_rng(21)
        words = [f"w{k}" for k in range(6)] * 12
        for _ in range(100):
            max_len = int(rng.integers(3, 20))
            n = int(rng.integers(1, len(words) + 1))
            gloss = SimpleNamespace(config=SimpleNamespace(max_seq_len=max_len))
            ids = _gloss_ids(SimpleNamespace(vocab=vocab, gloss=gloss), words[:n])
            assert len(ids) == min(n, max_len - 2)
            assert ids == lookup_ids(words[: len(ids)], vocab)  # the tail is what goes
            assert CLS_ID not in ids and SEP_ID not in ids

    def test_central_truncation_keeps_target(self, vocab):
        import numpy as np

        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(1, 80))
            target = int(rng.integers(0, n))
            max_len = int(rng.integers(3, 40))
            words = [f"w{k % 6}" for k in range(n)]
            words[target] = "bank"
            ids, new_target = content_ids_around(words, target, vocab, capacity=max_len - 2)
            assert len(ids) <= max_len - 2
            assert ids[new_target] == vocab.token_to_id["bank"]

    def test_windowing_case_from_tail(self, vocab):
        # 60 words, window of 30 content slots, target deep in the tail
        words = [f"w{k % 6}" for k in range(60)]
        words[50] = "bank"
        ids, new_target = content_ids_around(words, 50, vocab, capacity=30)
        assert len(ids) == 30
        assert ids[new_target] == vocab.token_to_id["bank"]


class TestKeyFiles:
    def test_gold_round_trip(self, tmp_path):
        path = tmp_path / "gold.key"
        data.save_gold_keys(path, {"d0": "bank%1", "d1": "run%2"})
        assert data.load_gold_keys(path) == {"d0": "bank%1", "d1": "run%2"}

    def test_duplicate_gold_rejected(self, tmp_path):
        path = tmp_path / "gold.key"
        path.write_text("d0 a\nd0 b\n", encoding="utf-8")
        with pytest.raises(ScoringError):
            data.load_gold_keys(path)

    def test_predictions_round_trip(self, tmp_path):
        path = tmp_path / "pred.tsv"
        data.save_predictions(path, {"d0": "bank%1"})
        assert data.load_predictions(path) == {"d0": "bank%1"}

    def test_duplicate_prediction_rejected(self, tmp_path):
        path = tmp_path / "pred.tsv"
        path.write_text("d0\ta\nd0\tb\n", encoding="utf-8")
        with pytest.raises(ScoringError):
            data.load_predictions(path)


class TestLineEnds:
    """CRLF line ends and blank lines read as they do in text mode."""

    def test_corpus_with_crlf_and_blank_lines_loads_like_plain_lines(self, tmp_path):
        records = [_corpus_record(i) for i in range(3)]
        plain, crlf = tmp_path / "plain.jsonl", tmp_path / "crlf.jsonl"
        _write_lines(plain, records)
        body = "\r\n".join(json.dumps(r) for r in records)
        crlf.write_bytes(("\r\n" + body + "\r\n  \r\n").encode("utf-8"))
        assert load_corpus(crlf) == load_corpus(plain)

    @pytest.mark.parametrize(
        "load,text",
        [
            (data.load_gold_keys, "d0 a\r\n\r\nd1 b\r\n"),
            (data.load_predictions, "d0\ta\r\n\r\nd1\tb\r\n"),
        ],
    )
    def test_key_file_with_crlf_and_blank_lines(self, tmp_path, load, text):
        path = tmp_path / "keys"
        path.write_bytes(text.encode("utf-8"))
        assert load(path) == {"d0": "a", "d1": "b"}
