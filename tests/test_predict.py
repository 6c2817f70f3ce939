"""Prediction path: candidate scoring, argmax rules, the gloss-row cache, baselines."""

import cProfile
import os
import pstats
import sys
import threading

import numpy as np
import pytest

import polywsd.model
from polywsd.checkpoint import load_checkpoint, save_checkpoint
from polywsd.data import CorpusInstance, SenseEntry, SenseInventory
from polywsd.errors import InventoryError
from polywsd.fusion import score_pair
from polywsd.predict import (
    CandidateScores,
    _gloss_rows,
    first_sense_predictor,
    mfs_predictor,
    predict,
    predict_corpus,
    score_candidates,
)
from polywsd.synthetic import synthetic_corpus
from polywsd.training import Adam, fusion_matrix, make_batches, train_step
from polywsd.model import context_codes, gloss_codes, model_on, randomize_parameters

from conftest import tiny_model


def _monosemous_world():
    inventory = SenseInventory()
    inventory.add("rock", "NOUN", [SenseEntry("rock%1", ["a", "stone"])])
    instance = CorpusInstance(
        id="m0", tokens=["the", "rock", "fell"], target_index=1, lemma="rock", pos="NOUN"
    )
    model = tiny_model([instance], inventory, seed=4)
    return instance, inventory, model


class TestScoreCandidates:
    def test_monosemous_always_index_zero(self):
        instance, inventory, model = _monosemous_world()
        ranked = score_candidates(instance, inventory, model)
        assert ranked.chosen_index == 0
        assert ranked.sense_ids == ["rock%1"]

    def test_zero_output_projection_ties_to_first_sense(self, small_world):
        corpus, inventory, model = small_world
        model.fusion.w_o.data[...] = 0.0
        ranked = score_candidates(corpus[0], inventory, model)
        assert all(s == 0.0 for s in ranked.scores)
        assert ranked.chosen_index == 0

    def test_missing_key_raises_inventory_error(self, small_world):
        _, inventory, model = small_world
        stranger = CorpusInstance(
            id="x", tokens=["unknown", "words"], target_index=0, lemma="unknown", pos="ADV"
        )
        with pytest.raises(InventoryError):
            score_candidates(stranger, inventory, model)

    def test_scores_match_fusion_matrix_column(self, small_world):
        corpus, inventory, model = small_world
        inst = corpus[0]
        ranked = score_candidates(inst, inventory, model)
        word = context_codes(model, inst.tokens, inst.target_index)
        senses = inventory.candidates(inst.lemma, inst.pos)
        sm = fusion_matrix(
            [word] * len(senses), [gloss_codes(model, s.gloss) for s in senses]
        )
        np.testing.assert_allclose(np.diag(sm.scores.data), ranked.scores, atol=1e-12)


class TestPredict:
    def test_argmax(self, small_world):
        corpus, inventory, model = small_world
        senses = [SenseEntry(s, ["gloss"]) for s in ("a", "b", "c")]
        ranked = CandidateScores(senses=senses, scores=[0.2, 0.9, 0.1], chosen_index=0)
        assert int(np.argmax(ranked.scores)) == 1

    def test_tie_breaks_to_first(self):
        assert int(np.argmax([0.5, 0.5])) == 0

    def test_prediction_carries_gloss(self, small_world):
        corpus, inventory, model = small_world
        out = predict(corpus[0], inventory, model)
        assert out.instance_id == corpus[0].id
        assert out.gloss == inventory.gloss_of(corpus[0].lemma, corpus[0].pos, out.sense_id)

    def test_argmax_invariant_under_increasing_transforms(self, small_world):
        corpus, inventory, model = small_world
        for inst in corpus[:5]:
            scores = np.array(score_candidates(inst, inventory, model).scores)
            base = int(np.argmax(scores))
            assert int(np.argmax(scores + 3.7)) == base
            assert int(np.argmax(scores * 51.0)) == base

    def test_word_side_scaling_keeps_choice(self, small_world):
        """score_pair is linear in the word side, so scaling the fused word
        code by c > 0 scales every candidate score equally."""
        corpus, inventory, model = small_world
        rng = np.random.default_rng(8)
        for inst in corpus[:5]:
            word = context_codes(model, inst.tokens, inst.target_index)
            senses = inventory.candidates(inst.lemma, inst.pos)
            glosses = [gloss_codes(model, s.gloss) for s in senses]
            base = [float((word.data * g.data).sum()) for g in glosses]
            c = float(rng.uniform(0.1, 10.0))
            scaled = [float((c * word.data * g.data).sum()) for g in glosses]
            assert int(np.argmax(base)) == int(np.argmax(scaled))

    def test_full_coverage(self, small_world):
        corpus, inventory, model = small_world
        predictions = predict_corpus(corpus, inventory, model)
        assert len(predictions) == len(corpus)
        for inst, pred in zip(corpus, predictions):
            assert pred.sense_id in [s.id for s in inventory.candidates(inst.lemma, inst.pos)]


class TestBaselines:
    def _world(self):
        inventory = SenseInventory()
        inventory.add(
            "bank",
            "NOUN",
            [SenseEntry("bank%1", ["money", "place"]), SenseEntry("bank%2", ["river", "side"])],
        )
        inventory.add("run", "VERB", [SenseEntry("run%1", ["move", "fast"])])

        def inst(i, lemma, pos, gold=None):
            return CorpusInstance(
                id=f"t{i}", tokens=["x", lemma, "y"], target_index=1, lemma=lemma, pos=pos, gold=gold
            )

        return inventory, inst

    def test_mfs_counting(self):
        inventory, inst = self._world()
        train = [
            inst(0, "bank", "NOUN", "bank%2"),
            inst(1, "bank", "NOUN", "bank%2"),
            inst(2, "bank", "NOUN", "bank%1"),
        ]
        predictor = mfs_predictor(train, inventory)
        out = predictor(inst(9, "bank", "NOUN"))
        assert out.sense_id == "bank%2"
        assert out.score == 2.0

    def test_mfs_unseen_falls_back_to_first_sense(self):
        inventory, inst = self._world()
        predictor = mfs_predictor([], inventory)
        assert predictor(inst(9, "bank", "NOUN")).sense_id == "bank%1"

    def test_mfs_tie_prefers_lower_inventory_index(self):
        inventory, inst = self._world()
        train = [inst(0, "bank", "NOUN", "bank%1"), inst(1, "bank", "NOUN", "bank%2")]
        predictor = mfs_predictor(train, inventory)
        assert predictor(inst(9, "bank", "NOUN")).sense_id == "bank%1"

    def test_first_sense(self):
        inventory, inst = self._world()
        predictor = first_sense_predictor(inventory)
        assert predictor(inst(0, "bank", "NOUN")).sense_id == "bank%1"
        assert predictor(inst(1, "run", "VERB")).sense_id == "run%1"

    def test_mfs_agrees_with_first_sense_when_counts_follow_order(self):
        inventory, inst = self._world()
        train = [
            inst(0, "bank", "NOUN", "bank%1"),
            inst(1, "bank", "NOUN", "bank%1"),
            inst(2, "bank", "NOUN", "bank%2"),
        ]
        mfs = mfs_predictor(train, inventory)
        s1 = first_sense_predictor(inventory)
        probe = inst(9, "bank", "NOUN")
        assert mfs(probe).sense_id == s1(probe).sense_id

    def test_first_sense_missing_key(self):
        inventory, inst = self._world()
        with pytest.raises(InventoryError):
            first_sense_predictor(inventory)(inst(0, "ghost", "NOUN"))


def test_cross_path_consistency_on_random_fixtures():
    """Candidate scores equal the matching score-matrix cells within 1e-12."""
    corpus, inventory = synthetic_corpus(n_lemmas=5, senses_per_lemma=3, n_instances=15, seed=9)
    model = tiny_model(corpus, inventory, seed=10)
    for inst in corpus:
        ranked = score_candidates(inst, inventory, model)
        word = context_codes(model, inst.tokens, inst.target_index)
        glosses = [
            gloss_codes(model, s.gloss) for s in inventory.candidates(inst.lemma, inst.pos)
        ]
        sm = fusion_matrix([word] * len(glosses), glosses)
        np.testing.assert_allclose(np.diag(sm.scores.data), ranked.scores, atol=1e-12)


def _assert_scores_equal_uncached_reference(corpus, inventory, model):
    """Per-sense reference: one gloss encode and one ``score_pair`` per candidate."""
    for inst in corpus:
        word = context_codes(model, inst.tokens, inst.target_index)
        reference = [
            score_pair(word, gloss_codes(model, s.gloss)).item()
            for s in inventory.candidates(inst.lemma, inst.pos)
        ]
        assert score_candidates(inst, inventory, model).scores == reference


def _acceptance_world():
    """The acceptance suite's overfit fixture: 10 lemmas x 3 senses, 50 instances."""
    corpus, inventory = synthetic_corpus(n_lemmas=10, senses_per_lemma=3, n_instances=50, seed=0)
    return corpus, inventory, tiny_model(corpus, inventory, seed=0, d_model=16, max_seq_len=16)


def _counting_encode(monkeypatch, gloss_params):
    """Patch ``polywsd.model.encode`` as the benchmark does; count gloss encodes by ids."""
    counts: dict[tuple, int] = {}
    original = polywsd.model.encode

    def counted(params, token_ids):
        if params is gloss_params():
            counts[tuple(token_ids)] = counts.get(tuple(token_ids), 0) + 1
        return original(params, token_ids)

    monkeypatch.setattr(polywsd.model, "encode", counted)
    return counts


class TestGlossRowCache:
    """Each distinct gloss is encoded once per model, and a cached row is never stale."""

    @pytest.mark.parametrize("world", ["synth", "acceptance"])
    def test_cached_scores_equal_the_uncached_reference_exactly(self, world, small_world):
        corpus, inventory, model = small_world if world == "synth" else _acceptance_world()
        predict_corpus(corpus, inventory, model)  # every row now comes from the cache
        _assert_scores_equal_uncached_reference(corpus, inventory, model)

    def test_each_distinct_gloss_encoded_once_per_model(self, monkeypatch, tmp_path, small_world):
        corpus, inventory, model = small_world
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, None, seed=0, step=0)
        loaded = load_checkpoint(path).model
        counts = _counting_encode(monkeypatch, lambda: loaded.gloss)
        predict_corpus(corpus, inventory, loaded)
        predict_corpus(corpus, inventory, loaded)
        distinct = {
            tuple(s.gloss) for inst in corpus for s in inventory.candidates(inst.lemma, inst.pos)
        }
        assert len(counts) == len(distinct) and set(counts.values()) == {1}

        loaded = load_checkpoint(path).model  # a second model keeps no rows of the first
        counts.clear()
        predict_corpus(corpus, inventory, loaded)
        assert len(counts) == len(distinct) and set(counts.values()) == {1}

    def test_encode_sees_each_uncached_gloss_once_and_no_context(self, monkeypatch, small_world):
        """The benchmark counts prediction's gloss forwards by wrapping
        ``polywsd.model.encode`` and divides by that count. On a fresh model,
        ``score_candidates`` calls it with the gloss encoder once per distinct candidate
        gloss not yet cached, on a warm cache not at all, and never for a context."""
        corpus, inventory, model = small_world
        calls, original = [], polywsd.model.encode

        def counted(params, token_ids):
            calls.append(params)
            return original(params, token_ids)

        monkeypatch.setattr(polywsd.model, "encode", counted)
        cached: set[tuple] = set()
        for inst in corpus:
            calls.clear()
            score_candidates(inst, inventory, model)
            glosses = {tuple(s.gloss) for s in inventory.candidates(inst.lemma, inst.pos)}
            assert len(calls) == len(glosses - cached)
            assert all(params is model.gloss for params in calls)
            cached |= glosses
        assert len(cached) > 0
        for inst in corpus:
            calls.clear()
            score_candidates(inst, inventory, model)
            assert calls == []

    def test_candidate_sets_sharing_a_gloss_encode_it_once(self, monkeypatch):
        inventory = SenseInventory()
        shared = SenseEntry("bank%2", ["a", "slope"])
        inventory.add("bank", "NOUN", [SenseEntry("bank%1", ["money", "house"]), shared])
        inventory.add("hill", "NOUN", [SenseEntry("hill%1", ["high", "ground"]), shared])
        corpus = [
            CorpusInstance(id=f"s{k}", tokens=["by", word], target_index=1, lemma=word, pos="NOUN")
            for k, word in enumerate(["bank", "hill", "bank"])
        ]
        model = tiny_model(corpus, inventory, seed=3)
        counts = _counting_encode(monkeypatch, lambda: model.gloss)
        predict_corpus(corpus, inventory, model)
        assert len(counts) == 3 and set(counts.values()) == {1}
        assert len(_gloss_rows[model][2]) == 2  # one matrix per candidate set

    def test_candidate_matrix_is_its_rows_stacked_and_read_only(self, small_world):
        corpus, inventory, model = small_world
        predict_corpus(corpus, inventory, model)
        _, rows, matrices = _gloss_rows[model]
        assert len(matrices) > 1
        for keys, matrix in matrices.items():
            assert matrix.tobytes() == np.array([rows[key] for key in keys]).tobytes()
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0

    def test_in_place_gloss_write_re_encodes_on_the_next_prediction(self, monkeypatch, small_world):
        corpus, inventory, model = small_world
        before = score_candidates(corpus[0], inventory, model).scores
        counts = _counting_encode(monkeypatch, lambda: model.gloss)
        model.gloss.out_bias.data[0] += 0.5
        after = score_candidates(corpus[0], inventory, model).scores
        glosses = {tuple(s.gloss) for s in inventory.candidates(corpus[0].lemma, corpus[0].pos)}
        assert sum(counts.values()) == len(glosses)
        assert after != before

    @pytest.mark.parametrize("change", ["in_place_write", "train_step", "randomize"])
    def test_parameter_change_between_predictions_is_seen(self, change, small_world):
        corpus, inventory, model = small_world
        predict_corpus(corpus, inventory, model)
        if change == "in_place_write":
            model.gloss.tok_emb.data[...] += 0.25
        elif change == "train_step":
            batch = make_batches(corpus, inventory, batch_size=4, seed=0, epoch=0)[0]
            train_step(batch, model, Adam(model.parameters(), learning_rate=1e-2))
        else:
            randomize_parameters(model, seed=7)
        _assert_scores_equal_uncached_reference(corpus, inventory, model)

    def test_checkpoint_bytes_unchanged_by_prediction(self, tmp_path, small_world):
        corpus, inventory, model = small_world
        save_checkpoint(tmp_path / "before.ckpt", model, None, seed=0, step=0)
        predict_corpus(corpus, inventory, model)
        save_checkpoint(tmp_path / "after.ckpt", model, None, seed=0, step=0)
        assert (tmp_path / "before.ckpt").read_bytes() == (tmp_path / "after.ckpt").read_bytes()

    def test_two_threads_sharing_a_model_match_one_thread(self):
        corpus, inventory, model = _acceptance_world()
        expected = [score_candidates(inst, inventory, model) for inst in corpus]
        del _gloss_rows[model]  # both threads start from an empty cache
        barrier = threading.Barrier(2, timeout=30)
        results: dict[int, list] = {}

        def run(k):
            barrier.wait()
            results[k] = [score_candidates(inst, inventory, model) for inst in corpus]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(2):
            assert [r.scores for r in results[k]] == [r.scores for r in expected]
            assert [r.chosen_index for r in results[k]] == [r.chosen_index for r in expected]


def test_prediction_calls_no_numpy_python_wrapper(small_world):
    """The per-instance path reduces through ufuncs and ndarray methods: numpy's
    Python-level wrappers (``_methods``, ``fromnumeric``) cost more than the work."""
    corpus, inventory, model = small_world
    profile = cProfile.Profile()
    profile.enable()
    try:
        for k in range(20):
            predict(corpus[k % len(corpus)], inventory, model)
    finally:
        profile.disable()
    wrappers = [
        (filename, name)
        for filename, _, name in pstats.Stats(profile).stats
        if os.path.basename(filename) in ("_methods.py", "fromnumeric.py")
        and f"numpy{os.sep}" in filename
    ]
    assert wrappers == []


@pytest.mark.parametrize("predictor", ["model", "first_sense", "mfs"])
def test_entry_emptied_in_place_raises_inventory_error_naming_the_instance(predictor):
    corpus, inventory = synthetic_corpus(2, 3, 6, 0)
    inst = corpus[0]
    run = {
        "model": lambda: predict(inst, inventory, tiny_model(corpus, inventory)),
        "first_sense": lambda: first_sense_predictor(inventory)(inst),
        "mfs": lambda: mfs_predictor(corpus, inventory)(inst),
    }[predictor]
    inventory.candidates(inst.lemma, inst.pos).clear()
    with pytest.raises(InventoryError, match=rf"^instance {inst.id!r}: .* lists no senses$"):
        run()


class TestBoundKernelArguments:
    """A model binds its kernels' arguments once, when it is built: the tensors and
    arrays it binds are its parameters' own, so an in-place write is seen."""

    @pytest.mark.parametrize("write", ["values", "randomize", "one_tensor"])
    def test_in_place_write_reaches_the_next_prediction_and_step(self, write, small_world):
        corpus, inventory, model = small_world
        predict_corpus(corpus, inventory, model)  # warm: the model's arguments are in use
        if write == "values":
            model.values[...] = np.random.default_rng(3).normal(scale=0.3, size=model.values.size)
        elif write == "randomize":
            randomize_parameters(model, seed=5)
        else:  # every block array and fusion weight of the context side, one at a time
            for t in (*model.context.inputs[2:-2], *model.fusion.weights):
                t.data[...] *= 1.5
        fresh = model_on(
            model.values.copy(), model.context.config, model.gloss.config, model.fusion.config,
            model.vocab,
        )
        for inst in corpus:
            assert (
                score_candidates(inst, inventory, model).scores
                == score_candidates(inst, inventory, fresh).scores
            )
        batch = make_batches(corpus, inventory, batch_size=4, seed=0, epoch=0)[0]
        losses = [
            train_step(batch, m, Adam(m.parameters(), learning_rate=1e-2))[0].per_example
            for m in (model, fresh)
        ]
        assert losses[0].tobytes() == losses[1].tobytes()
        assert model.values.tobytes() == fresh.values.tobytes()

    def test_warm_prediction_rebuilds_no_kernel_arguments(self, small_world):
        """A warm prediction calls ``vars`` nowhere and enters no generator expression of
        the encoder, the model or the fusion: their arguments are bound tuples."""
        corpus, inventory, model = small_world
        predict_corpus(corpus, inventory, model)
        profile = cProfile.Profile()
        profile.enable()
        try:
            for k in range(20):
                predict(corpus[k % len(corpus)], inventory, model)
        finally:
            profile.disable()
        stats = pstats.Stats(profile).stats
        package = os.path.dirname(polywsd.model.__file__)
        rebuilt = [
            (os.path.basename(filename), name)
            for filename, _, name in stats
            if name == "<built-in method builtins.vars>"
            or name == "<genexpr>" and os.path.dirname(filename) == package
            and os.path.basename(filename) in ("encoder.py", "model.py", "fusion.py")
        ]
        assert rebuilt == []
