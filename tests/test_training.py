"""Contrastive trainer: score matrix, loss, Adam, both step regimes."""

import math

import numpy as np
import pytest

from polywsd import tensor as T
import polywsd.training
from polywsd.cli import _load_config, _model_configs
from polywsd.data import PAD_ID, UNK_ID, CorpusInstance, SenseEntry, SenseInventory, build_vocab
from polywsd.errors import (
    BatchError, ConfigError, ContractError, DataError, ShapeError, TrainingError,
)
from polywsd.fusion import score_pair
from polywsd.model import (
    build_model,
    context_code_rows,
    context_codes,
    gloss_code_rows,
    gloss_codes,
    randomize_parameters,
)
from polywsd.tensor import Tape, Tensor, backward
from polywsd.training import (
    Adam,
    ScoreMatrix,
    Batch,
    MODE_ALL_CANDIDATES,
    MODE_CONTRASTIVE,
    TrainConfig,
    bcl_loss,
    check_bcl_gradients,
    duplicate_gloss_mask,
    fusion_matrix,
    make_batches,
    scored_forward,
    step_columns,
    train,
    train_all_candidates_step,
    train_step,
)

from conftest import tiny_model
from polywsd.synthetic import synthetic_corpus


def _codes(rng, b, d=4):
    return [Tensor(rng.normal(size=(1, d))) for _ in range(b)]


def _score_matrix(raw, mask=None):
    raw = np.asarray(raw, dtype=float)
    if mask is None:
        mask = np.zeros(raw.shape, dtype=bool)
    return ScoreMatrix(scores=Tensor(raw), mask=mask)


class TestFusionMatrix:
    def test_zero_representations(self):
        zeros = [Tensor(np.zeros((1, 3))) for _ in range(3)]
        sm = fusion_matrix(zeros, zeros)
        np.testing.assert_array_equal(sm.scores.data, np.zeros((3, 3)))

    def test_orthogonal_pairs_give_diagonal_matrix(self):
        # word i lives on axis i and so does gloss i, so cross terms vanish
        words = [Tensor(np.eye(2)[i][None, :]) for i in range(2)]
        glosses = [Tensor(np.eye(2)[j][None, :] * 3.0) for j in range(2)]
        sm = fusion_matrix(words, glosses)
        expected = np.array(
            [
                [score_pair(words[i], glosses[j]).item() for j in range(2)]
                for i in range(2)
            ]
        )
        np.testing.assert_allclose(sm.scores.data, expected, atol=1e-12)
        assert sm.scores.data[0, 1] == sm.scores.data[1, 0] == 0.0

    def test_cells_match_score_pair(self):
        rng = np.random.default_rng(0)
        words, glosses = _codes(rng, 4), _codes(rng, 4)
        sm = fusion_matrix(words, glosses)
        for i in range(4):
            for j in range(4):
                assert sm.scores.data[i, j] == pytest.approx(
                    score_pair(words[i], glosses[j]).item(), abs=1e-12
                )

    def test_length_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(BatchError):
            fusion_matrix(_codes(rng, 3), _codes(rng, 2))

    def test_multi_row_codes_rejected(self):
        codes = [Tensor(np.zeros((2, 3))) for _ in range(2)]
        with pytest.raises(ShapeError):
            fusion_matrix(codes, codes)


class TestBclLoss:
    def test_uniform_scores_give_log_b(self):
        sm = fusion_matrix(
            [Tensor(np.zeros((1, 3))) for _ in range(2)],
            [Tensor(np.zeros((1, 3))) for _ in range(2)],
        )
        loss = bcl_loss(sm)
        np.testing.assert_allclose(np.exp(-loss.per_example), [0.5, 0.5], atol=1e-12)
        assert loss.value == pytest.approx(math.log(2), abs=1e-12)

    def test_reference_two_by_two(self):
        # scores [[2,0],[0,2]]: P_ii = 0.8807970779778824 per the mpmath script
        sm = _score_matrix([[2.0, 0.0], [0.0, 2.0]])
        loss = bcl_loss(sm)
        np.testing.assert_allclose(np.exp(-loss.per_example), 0.8807970779778824, atol=1e-12)
        assert loss.value == pytest.approx(0.1269280110429725, abs=1e-12)

    def test_duplicate_gloss_masking_matches_hand_oracle(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(3, 3))
        glosses = [["shared", "gloss"], ["other", "one"], ["shared", "gloss"]]
        mask = duplicate_gloss_mask(glosses)
        assert mask[0, 2] and mask[2, 0]
        assert mask.sum() == 2
        sm = _score_matrix(raw, mask=mask)
        loss = bcl_loss(sm)

        # hand masked-softmax oracle, row by row in plain numpy
        expected_rows = []
        for i in range(3):
            keep = [j for j in range(3) if not mask[i, j]]
            e = np.exp(raw[i, keep] - raw[i, keep].max())
            p = e / e.sum()
            expected_rows.append(-math.log(p[keep.index(i)]))
        np.testing.assert_allclose(loss.per_example, expected_rows, atol=1e-12)
        # row 0 softmax ran over 2 entries only
        probs = T.row_softmax(sm.scores, mask=sm.mask)
        assert probs.data[0, 2] == 0.0
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-9)

    def test_masked_diagonal_is_an_internal_error(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(ContractError, match=r"rows \[0\] are masked"):
            bcl_loss(_score_matrix(np.zeros((2, 2)), mask=mask))

    def test_loss_nonnegative_and_mean_of_terms(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sm = _score_matrix(rng.normal(scale=3.0, size=(4, 4)))
            loss = bcl_loss(sm)
            assert loss.value >= 0.0
            assert loss.value == pytest.approx(loss.per_example.mean(), abs=1e-12)

    def test_constant_matrix_gives_log_b(self):
        for b in (2, 4, 8):
            sm = _score_matrix(np.full((b, b), 1.37))
            assert bcl_loss(sm).value == pytest.approx(math.log(b), abs=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(4, 4))
        base = bcl_loss(_score_matrix(raw))
        shifted = bcl_loss(_score_matrix(raw + 7.25))
        assert shifted.value == pytest.approx(base.value, abs=1e-9)
        np.testing.assert_allclose(shifted.per_example, base.per_example, atol=1e-9)

    def test_batch_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        words, glosses = _codes(rng, 5), _codes(rng, 5)
        perm = rng.permutation(5)
        base = bcl_loss(fusion_matrix(words, glosses))
        permuted = bcl_loss(
            fusion_matrix([words[i] for i in perm], [glosses[i] for i in perm])
        )
        assert permuted.value == pytest.approx(base.value, abs=1e-12)
        np.testing.assert_allclose(permuted.per_example, base.per_example[perm], atol=1e-12)


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        opt = Adam([p], learning_rate=0.5)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_closed_form(self):
        # bias-corrected first step with grad 1 moves by lr / (1 + eps)
        p = Tensor([0.0], requires_grad=True)
        opt = Adam([p], learning_rate=0.1)
        p.grad = np.ones(1)
        opt.step()
        assert p.data[0] == pytest.approx(-0.09999999900000001, abs=1e-12)

    def test_non_finite_grad_is_refused_whole(self):
        p, q = Tensor([1.0], requires_grad=True), Tensor([2.0], requires_grad=True)
        opt = Adam([p, q], learning_rate=0.5)
        p.grad, q.grad = np.ones(1), np.array([np.inf])
        assert opt.step() is False
        assert opt.t == 0 and p.data[0] == 1.0 and not opt.m[0].any()

    def test_missing_grad_treated_as_zero(self):
        p = Tensor([3.0], requires_grad=True)
        opt = Adam([p])
        opt.step()
        np.testing.assert_array_equal(p.data, [3.0])

    def test_flat_steps_match_per_parameter_reference_bit_for_bit(self):
        rng = np.random.default_rng(5)
        shapes = [(3, 4), (4,), (2, 2), (5, 1)]
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        ref_data = [p.data.copy() for p in params]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        opt = Adam(params, learning_rate=0.01)
        for t in range(1, 6):
            grads = [rng.normal(size=s) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = None if t == 3 and g.ndim == 1 else g
            opt.step()
            b1, b2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for i, (p, g) in enumerate(zip(params, grads)):
                g = np.zeros_like(g) if p.grad is None else g
                ref_m[i] = ref_m[i] * 0.9 + (1.0 - 0.9) * g
                ref_v[i] = ref_v[i] * 0.999 + (1.0 - 0.999) * g * g
                ref_data[i] = ref_data[i] - 0.01 * (ref_m[i] / b1) / (np.sqrt(ref_v[i] / b2) + 1e-8)
                assert p.data.tobytes() == ref_data[i].tobytes()
                assert opt.m[i].tobytes() == ref_m[i].tobytes()
                assert opt.v[i].tobytes() == ref_v[i].tobytes()

    def test_assigned_moments_are_the_ones_stepped(self):
        p, q = Tensor(np.zeros((2, 2)), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([p, q], learning_rate=0.1)
        # the getters return live views: writing into them sets the moments
        for view, value in zip(opt.m + opt.v, (2.0, -1.0, 4.0, 9.0)):
            view[...] = value
        assert [m.shape for m in opt.m] == [(2, 2), (3,)]
        opt.step()  # no grads: m and v only decay
        np.testing.assert_array_equal(opt.m[0], np.full((2, 2), 1.8))
        np.testing.assert_array_equal(opt.v[1], np.full(3, 9.0 * 0.999))
        assert p.data[0, 0] < 0.0 < q.data[0]
        with pytest.raises(AttributeError):  # no setter: the moments are never replaced
            opt.m = [np.zeros((2, 2))]

    @pytest.mark.parametrize(
        "name,value",
        [
            ("learning_rate", -1e-3),
            ("learning_rate", 0.0),
            ("learning_rate", float("nan")),
            ("learning_rate", True),
            ("beta1", 1.0),
            ("beta2", 0.0),
            ("eps", float("inf")),
            ("eps", "1e-8"),
        ],
    )
    def test_bad_settings_are_a_config_error(self, name, value):
        with pytest.raises(ConfigError, match=rf"^{name} must "):
            Adam([Tensor([1.0], requires_grad=True)], **{name: value})


class TestTrainConfig:
    def test_batch_of_one_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1, epochs=1)

    @pytest.mark.parametrize(
        "name,value",
        [
            (name, value)
            for name in ("learning_rate", "eps", "clip_norm")
            for value in (math.inf, math.nan, 10**400, 0, -1.0, True, "0.1")
        ]
        + [(name, value) for name in ("beta1", "beta2") for value in (0.0, 1.0, math.inf, 1)],
    )
    def test_bad_optimizer_setting_rejected(self, name, value):
        with pytest.raises(ConfigError) as err:
            TrainConfig(batch_size=2, epochs=1, **{name: value})
        assert name in str(err.value)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            TrainConfig(batch_size=2, epochs=1, seed=seed)

    def test_settings_at_their_limits_accepted(self):
        config = TrainConfig(
            batch_size=2, epochs=1, learning_rate=1, eps=1e308, beta1=5e-324, beta2=1 - 2**-53,
            clip_norm=None,
        )
        assert config.learning_rate == 1 and config.clip_norm is None

    def test_batch_object_of_one_rejected(self):
        inst = CorpusInstance(id="a", tokens=["x"], target_index=0, lemma="x", pos="NOUN")
        with pytest.raises(BatchError):
            Batch(instances=[inst], gold_glosses=[["g"]])


@pytest.mark.parametrize(
    "name,value",
    [("n_lemmas", 0), ("senses_per_lemma", 0), ("n_instances", 0), ("n_instances", -5)],
)
def test_synthetic_corpus_rejects_non_positive_sizes(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be positive, got {value}"):
        synthetic_corpus(**{name: value})


class TestTrainStep:
    def test_loss_strictly_decreases_on_fixed_batch(self):
        # regression fixture: this lr/seed pair was recorded as monotone
        corpus, inventory = synthetic_corpus(n_lemmas=4, senses_per_lemma=3, n_instances=12, seed=1)
        model = tiny_model(corpus, inventory, seed=0)
        batch = make_batches(corpus[:4], inventory, batch_size=4, seed=0, epoch=0)[0]
        opt = Adam(model.parameters(), learning_rate=5e-4)
        losses = []
        for _ in range(50):
            loss, counts = train_step(batch, model, opt)
            losses.append(loss.value)
            assert counts.gloss == 4 and counts.context == 4
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.05 < losses[0]

    def test_two_runs_same_seed_bit_identical(self):
        def run():
            corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=8, seed=3)
            model = tiny_model(corpus, inventory, seed=5)
            opt = Adam(model.parameters(), learning_rate=1e-3)
            config = TrainConfig(batch_size=4, epochs=2, seed=5)
            train(model, opt, corpus, inventory, config)
            return b"".join(t.data.tobytes() for t in model.parameters())

        assert run() == run()

    def test_non_finite_loss_aborts_with_diagnostics(self, small_world):
        corpus, inventory, model = small_world
        batch = make_batches(corpus[:4], inventory, batch_size=4, seed=0, epoch=0)[0]
        model.fusion.w_o.data[0, 0] = np.nan
        opt = Adam(model.parameters())
        with pytest.raises(TrainingError) as err:
            train_step(batch, model, opt)
        assert "parameter norm" in str(err.value)

    def test_non_finite_grad_names_its_parameter_and_changes_nothing(self, monkeypatch, small_world):
        corpus, inventory, model = small_world
        batch = make_batches(corpus[:4], inventory, batch_size=4, seed=0, epoch=0)[0]
        opt = Adam(model.parameters())
        real_backward = polywsd.training.backward

        def poisoned(loss, tape):
            real_backward(loss, tape)
            model.gloss.layers[0].w1.grad[0, 0] = np.nan

        monkeypatch.setattr(polywsd.training, "backward", poisoned)
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(TrainingError) as err:
            train_step(batch, model, opt, context="epoch 0 step 0")
        assert "gradient of parameter gloss.layer0.w1 at epoch 0 step 0" in str(err.value)
        assert opt.t == 0
        assert all(np.array_equal(a, p.data) for a, p in zip(before, model.parameters()))

    def test_non_finite_value_after_the_step_names_its_parameter(self, small_world):
        corpus, inventory, model = small_world
        batch = make_batches(corpus[:4], inventory, batch_size=4, seed=0, epoch=0)[0]
        model.context.tok_emb.data[UNK_ID] = np.nan  # no known token embeds it: the loss stays finite
        with pytest.raises(TrainingError) as err:
            train_step(batch, model, Adam(model.parameters()))
        assert "value of parameter context.tok_emb" in str(err.value)


class TestClipNorm:
    """``clip_norm`` rescales the whole gradient to that global norm when it is above it."""

    def _world_and_raw_grads(self):
        corpus, inventory = synthetic_corpus(n_lemmas=4, senses_per_lemma=3, n_instances=8, seed=2)
        model = tiny_model(corpus, inventory, seed=0)
        randomize_parameters(model, seed=3)
        batch = make_batches(corpus, inventory, batch_size=4, seed=0, epoch=0)[0]
        tape = Tape()
        with tape:
            loss = scored_forward(batch, None, model, MODE_CONTRASTIVE)[1]
        backward(loss.total, tape)
        grads = [p.grad for p in model.parameters()]
        return model, batch, grads, _global_norm(grads)

    def test_norm_above_the_bound_is_scaled_to_it(self):
        model, batch, grads, raw_norm = self._world_and_raw_grads()
        clip = raw_norm / 4.0
        params = model.parameters()
        reference = [Tensor(p.data.copy(), requires_grad=True) for p in params]
        for r, g in zip(reference, grads):
            r.grad = None if g is None else g * (clip / raw_norm)
        Adam(reference, learning_rate=1e-2).step()

        train_step(batch, model, Adam(params, learning_rate=1e-2), clip_norm=clip)
        assert _global_norm([p.grad for p in params]) == pytest.approx(clip, rel=0, abs=1e-12)
        for p, r in zip(params, reference):
            assert p.data.tobytes() == r.data.tobytes()

    def test_norm_below_the_bound_is_left_alone(self):
        model, batch, grads, raw_norm = self._world_and_raw_grads()
        params = model.parameters()
        train_step(batch, model, Adam(params, learning_rate=1e-2), clip_norm=2.0 * raw_norm)
        for p, g in zip(params, grads):
            assert (p.grad is None) == (g is None)
            if g is not None:
                assert p.grad.tobytes() == g.tobytes()


def _global_norm(grads):
    return float(np.sqrt(sum(float((g**2).sum()) for g in grads if g is not None)))


class TestGradientCheck:
    def test_model_data_and_grads_left_bit_identical(self):
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=6, seed=0)
        model = tiny_model(corpus, inventory, seed=0, d_model=4)
        randomize_parameters(model, seed=1)
        batch = make_batches(corpus, inventory, batch_size=3, seed=0, epoch=0)[0]
        params = model.parameters()
        for i, p in enumerate(params[::2]):
            p.grad = np.full(p.shape, float(i))
        before = [(p.data.tobytes(), None if p.grad is None else p.grad.tobytes()) for p in params]
        assert check_bcl_gradients(batch, model) < 1e-4
        after = [(p.data.tobytes(), None if p.grad is None else p.grad.tobytes()) for p in params]
        assert after == before


class TestAllCandidates:
    def test_single_candidate_loss_is_zero(self):
        inventory = SenseInventory()
        inventory.add("solo", "NOUN", [SenseEntry("solo%1", ["only", "sense"])])
        inventory.add("duo", "NOUN", [SenseEntry("duo%1", ["first"]), SenseEntry("duo%2", ["second"])])
        instances = [
            CorpusInstance(id="a", tokens=["the", "solo", "thing"], target_index=1,
                           lemma="solo", pos="NOUN", gold="solo%1"),
            CorpusInstance(id="b", tokens=["the", "duo", "thing"], target_index=1,
                           lemma="duo", pos="NOUN", gold="duo%1"),
        ]
        model = tiny_model(instances, inventory, seed=2)
        batch = Batch(instances=instances, gold_glosses=[["only", "sense"], ["first"]])
        _, loss, counts = scored_forward(batch, inventory, model, MODE_ALL_CANDIDATES)
        assert loss.per_example[0] == pytest.approx(0.0, abs=1e-15)
        assert counts.gloss == 3

    def test_forward_count_is_candidate_sum(self):
        corpus, inventory = synthetic_corpus(n_lemmas=4, senses_per_lemma=3, n_instances=4, seed=7)
        model = tiny_model(corpus, inventory, seed=1)
        batch = make_batches(corpus, inventory, batch_size=4, seed=0, epoch=0)[0]
        *_, counts = scored_forward(batch, inventory, model, MODE_ALL_CANDIDATES)
        assert counts.gloss == 12  # 4 instances x 3 candidates
        assert counts.context == 4

    def _mixed_world(self, gold_index=0):
        # candidate counts [3, 2, 4, 1] sum to 10 gloss encodes
        inventory = SenseInventory()
        instances = []
        for i, n_senses in enumerate([3, 2, 4, 1]):
            lemma = f"mix{i}"
            senses = [
                SenseEntry(f"{lemma}%{k}", [f"def{i}x{k}", "word"]) for k in range(n_senses)
            ]
            inventory.add(lemma, "NOUN", senses)
            instances.append(
                CorpusInstance(
                    id=f"m{i}", tokens=["the", lemma, "here"], target_index=1,
                    lemma=lemma, pos="NOUN", gold=f"{lemma}%{min(gold_index, n_senses - 1)}",
                )
            )
        model = tiny_model(instances, inventory, seed=4)
        glosses = [inventory.gloss_of(i.lemma, i.pos, i.gold) for i in instances]
        return inventory, model, Batch(instances=instances, gold_glosses=glosses)

    def test_forward_count_with_mixed_candidate_sets(self):
        inventory, model, batch = self._mixed_world()
        *_, counts = scored_forward(batch, inventory, model, MODE_ALL_CANDIDATES)
        assert counts.gloss == 10
        assert counts.context == 4

    def test_stacked_loss_matches_per_item_reference(self):
        """Each row of the stacked b x sum(m_i) matrix is a softmax over its own item's
        candidates only: per_example equals a per-item score_pair + log-softmax."""
        inventory, model, batch = self._mixed_world(gold_index=1)
        randomize_parameters(model, seed=8)
        _, loss, _ = scored_forward(batch, inventory, model, MODE_ALL_CANDIDATES)
        expected = []
        for inst in batch.instances:
            word = context_codes(model, inst.tokens, inst.target_index)
            senses = inventory.candidates(inst.lemma, inst.pos)
            scores = np.array(
                [score_pair(word, gloss_codes(model, s.gloss)).item() for s in senses]
            )
            log_probs = scores - scores.max() - np.log(np.exp(scores - scores.max()).sum())
            expected.append(-log_probs[[s.id for s in senses].index(inst.gold)])
        np.testing.assert_allclose(loss.per_example, expected, rtol=0, atol=1e-12)
        assert loss.value == pytest.approx(np.mean(expected), abs=1e-12)

    def test_missing_gold_names_instance(self, small_world):
        corpus, inventory, model = small_world
        bad = CorpusInstance(
            id="broken", tokens=["the", "term0", "x"], target_index=1,
            lemma="term0", pos="NOUN", gold="term0%99",
        )
        batch = Batch(instances=[bad, corpus[1]], gold_glosses=[["g"], ["g2"]])
        opt = Adam(model.parameters())
        with pytest.raises(DataError) as err:
            train_all_candidates_step(batch, inventory, model, opt)
        assert "broken" in str(err.value)

    def test_coincidence_batch_matches_bcl(self):
        """When each item's candidate set IS the batch's gold glosses (in batch
        order), the two regimes compute the same loss."""
        b = 3
        glosses = [["alpha", "one"], ["beta", "two"], ["gamma", "three"]]
        inventory = SenseInventory()
        instances = []
        for i in range(b):
            lemma = f"w{i}"
            senses = [SenseEntry(f"{lemma}%{j}", glosses[j]) for j in range(b)]
            inventory.add(lemma, "NOUN", senses)
            instances.append(
                CorpusInstance(
                    id=f"c{i}", tokens=["the", lemma, "thing"], target_index=1,
                    lemma=lemma, pos="NOUN", gold=f"{lemma}%{i}",
                )
            )
        model = tiny_model(instances, inventory, seed=3)
        batch = Batch(instances=instances, gold_glosses=[glosses[i] for i in range(b)])
        _, bcl, _ = scored_forward(batch, None, model, MODE_CONTRASTIVE)
        _, all_cand, _ = scored_forward(batch, inventory, model, MODE_ALL_CANDIDATES)
        assert all_cand.value == pytest.approx(bcl.value, abs=1e-9)
        np.testing.assert_allclose(all_cand.per_example, bcl.per_example, atol=1e-9)

    def test_columns_are_every_candidate_with_owner_mask_and_gold_targets(self):
        inventory, _, batch = self._mixed_world(gold_index=1)
        glosses, mask, targets = step_columns(batch, inventory, MODE_ALL_CANDIDATES)
        assert glosses == _candidate_glosses(inventory, batch.instances)
        owners = np.repeat(np.arange(4), [3, 2, 4, 1])
        np.testing.assert_array_equal(mask, np.arange(4)[:, None] != owners)
        assert targets.tolist() == [1, 4, 6, 9]  # gold %1, or %0 for the one-sense item

    def test_forward_returns_the_score_matrix_its_loss_was_taken_over(self):
        inventory, model, batch = self._mixed_world(gold_index=1)
        randomize_parameters(model, seed=9)
        sm, loss, _ = scored_forward(batch, inventory, model, MODE_ALL_CANDIDATES)
        _, mask, targets = step_columns(batch, inventory, MODE_ALL_CANDIDATES)
        assert sm.scores.shape == mask.shape == (4, 10)
        np.testing.assert_array_equal(sm.mask, mask)
        np.testing.assert_array_equal(sm.targets, targets)
        rows = np.where(mask, -np.inf, sm.scores.data)
        log_probs = rows - rows.max(axis=1, keepdims=True)
        log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(
            loss.per_example, -log_probs[np.arange(4), targets], rtol=0, atol=1e-12
        )


class TestStepColumns:
    """The regimes differ only in the gloss columns; one forward and one step serve both."""

    def test_contrastive_columns_are_the_gold_glosses_with_the_diagonal(self):
        glosses = [["a", "b"], ["c"], ["a", "b"]]
        instances = [
            CorpusInstance(id=f"d{i}", tokens=["x"], target_index=0, lemma="x", pos="NOUN", gold="x%1")
            for i in range(3)
        ]
        batch = Batch(instances=instances, gold_glosses=glosses)
        columns, mask, targets = step_columns(batch, None, MODE_CONTRASTIVE)
        assert columns == glosses
        np.testing.assert_array_equal(mask, duplicate_gloss_mask(glosses))
        assert mask[0, 2] and mask[2, 0] and mask.sum() == 2
        assert targets.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("mode", ["BCL", "", "all_candidates", None])
    def test_unknown_mode_is_a_config_error(self, small_world, mode):
        corpus, inventory, model = small_world
        batch = make_batches(corpus[:4], inventory, batch_size=4, seed=0, epoch=0)[0]
        with pytest.raises(ConfigError, match="unknown training mode"):
            scored_forward(batch, inventory, model, mode)
        config = TrainConfig(batch_size=4, epochs=1)
        with pytest.raises(ConfigError, match="unknown training mode"):
            train(model, Adam(model.parameters()), corpus, inventory, config, mode=mode)

    @pytest.mark.parametrize("mode", [MODE_CONTRASTIVE, MODE_ALL_CANDIDATES])
    def test_train_takes_the_same_steps_as_the_step_entry_points(self, mode):
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=3, n_instances=12, seed=4)
        config = TrainConfig(batch_size=4, epochs=2, seed=2)

        def fresh():
            model = tiny_model(corpus, inventory, seed=1)
            return model, Adam.from_config(model.parameters(), config)

        model, optimizer = fresh()
        metrics = train(model, optimizer, corpus, inventory, config, mode=mode)
        ref_model, ref_optimizer = fresh()
        ref_losses = []
        for epoch in range(config.epochs):
            for batch in make_batches(corpus, inventory, config.batch_size, config.seed, epoch):
                if mode == MODE_CONTRASTIVE:
                    loss, _ = train_step(batch, ref_model, ref_optimizer)
                else:
                    loss, _ = train_all_candidates_step(batch, inventory, ref_model, ref_optimizer)
                ref_losses.append(loss.value)
        assert [r.loss for r in metrics.records] == ref_losses and len(ref_losses) == 6
        for p, q in zip(model.parameters(), ref_model.parameters()):
            assert p.data.tobytes() == q.data.tobytes()


def _ragged_world(b, d_model=8, **model_options):
    """b instances whose contexts (1 to 10 words) and gold glosses (1 to 5 words)
    differ in length, so both sides of a batch are padded; lemma i has i % 3 + 1
    senses, so the candidate totals differ between batch sizes. ``model_options``
    go to ``tiny_model``."""
    inventory = SenseInventory()
    instances = []
    for i in range(b):
        lemma = f"rag{i}"
        senses = [
            SenseEntry(f"{lemma}%{k}", [f"def{i}x{k}"] + ["word"] * ((i + k) % 5))
            for k in range(i % 3 + 1)
        ]
        inventory.add(lemma, "NOUN", senses)
        n_words = (3 * i) % 10 + 1
        tokens = [f"w{j % 4}" for j in range(n_words)]
        target = (7 * i) % n_words
        tokens[target] = lemma
        instances.append(
            CorpusInstance(
                id=f"r{i}", tokens=tokens, target_index=target,
                lemma=lemma, pos="NOUN", gold=f"{lemma}%0",
            )
        )
    model = tiny_model(instances, inventory, seed=5, d_model=d_model, **model_options)
    glosses = [inventory.gloss_of(i.lemma, i.pos, i.gold) for i in instances]
    return inventory, model, Batch(instances=instances, gold_glosses=glosses)


class TestBatchedPath:
    """Each side of a step is one padded encoder pass; padding must change nothing."""

    def test_code_rows_match_per_instance_codes(self):
        inventory, model, batch = _ragged_world(8)
        randomize_parameters(model, seed=3)
        words = context_code_rows(model, batch.instances)
        for i, inst in enumerate(batch.instances):
            single = context_codes(model, inst.tokens, inst.target_index)
            np.testing.assert_allclose(words.data[i : i + 1], single.data, rtol=0, atol=1e-12)
        glosses = [
            s.gloss for inst in batch.instances for s in inventory.candidates(inst.lemma, inst.pos)
        ]
        rows = gloss_code_rows(model, glosses)
        assert rows.shape == (len(glosses), model.gloss.config.d_model)
        for j, gloss in enumerate(glosses):
            single = gloss_codes(model, gloss)
            np.testing.assert_allclose(rows.data[j : j + 1], single.data, rtol=0, atol=1e-12)

    def test_pad_embedding_gets_exactly_zero_gradient(self):
        inventory, model, batch = _ragged_world(8)
        randomize_parameters(model, seed=4)
        for forward in (
            lambda: scored_forward(batch, None, model, MODE_CONTRASTIVE)[1],
            lambda: scored_forward(batch, inventory, model, MODE_ALL_CANDIDATES)[1],
        ):
            for p in model.parameters():
                p.grad = None
            tape = Tape()
            with tape:
                loss = forward()
            backward(loss.total, tape)
            for encoder in (model.context, model.gloss):
                assert np.abs(encoder.tok_emb.grad).max() > 0
                assert np.all(encoder.tok_emb.grad[PAD_ID] == 0.0)

    def test_gradient_check_on_mixed_lengths(self):
        _, model, batch = _ragged_world(4, d_model=4)
        randomize_parameters(model, seed=6)
        assert check_bcl_gradients(batch, model) < 1e-4

    def test_every_record_reaches_the_loss(self):
        """The tape holds only the loss's gradient path: walked in reverse from the
        loss, every record's output feeds a record that reaches the loss."""
        inventory, model, batch = _ragged_world(8)
        for forward in (
            lambda: scored_forward(batch, None, model, MODE_CONTRASTIVE)[1],
            lambda: scored_forward(batch, inventory, model, MODE_ALL_CANDIDATES)[1],
        ):
            tape = Tape()
            with tape:
                loss = forward()
            live, dead = {id(loss.total)}, []
            for out, inputs, _ in reversed(tape._records):
                if id(out) in live:
                    live.update(id(t) for t in inputs)
                else:
                    dead.append(out.shape)
            assert tape._records[-1][0] is loss.total
            assert dead == []

    def test_tape_length_does_not_grow_with_the_batch(self):
        """One record per layer op, not per sequence: a per-item loop would grow the tape."""
        inventory, model, batch = _ragged_world(8)

        def records(b, mode):
            tape = Tape()
            with tape:
                scored_forward(b, inventory, model, mode)
            return len(tape)

        small = Batch(instances=batch.instances[:2], gold_glosses=batch.gold_glosses[:2])
        assert records(small, MODE_CONTRASTIVE) == records(batch, MODE_CONTRASTIVE)
        totals = [
            sum(len(inventory.candidates(i.lemma, i.pos)) for i in b.instances)
            for b in (small, batch)
        ]
        assert totals[0] < totals[1]
        assert records(small, MODE_ALL_CANDIDATES) == records(batch, MODE_ALL_CANDIDATES)

    def test_forward_records_75_ops_at_the_cli_defaults(self):
        """Each forward records 75 ops at the CLI defaults, the loss one of them."""
        corpus, inventory = synthetic_corpus(n_lemmas=10, senses_per_lemma=3, n_instances=50, seed=0)
        config = _load_config(None)
        vocab = build_vocab(corpus, inventory, min_freq=config["train"]["min_freq"])
        encoder_config, fusion_config = _model_configs(config, None, vocab.size)
        model = build_model(encoder_config, encoder_config, fusion_config, vocab, seed=0)
        batch_size = config["train"]["batch_size"]
        batch = make_batches(corpus, inventory, batch_size, seed=0, epoch=0)[0]
        for forward in (
            lambda: scored_forward(batch, None, model, MODE_CONTRASTIVE),
            lambda: scored_forward(batch, inventory, model, MODE_ALL_CANDIDATES),
        ):
            tape = Tape()
            with tape:
                forward()
            assert len(tape) == 75


def _candidate_glosses(inventory, instances):
    return [s.gloss for inst in instances for s in inventory.candidates(inst.lemma, inst.pos)]


class TestTruncatedGlossPass:
    """The gloss pass's last layer computes only the start-marker rows, the code
    rows; every other row of that layer is read by nothing."""

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_code_rows_match_full_row_encodes_at_two_layers(self, n_heads):
        inventory, model, batch = _ragged_world(8, n_layers=2, n_heads=n_heads)
        randomize_parameters(model, seed=7)
        glosses = _candidate_glosses(inventory, batch.instances)
        rows = gloss_code_rows(model, glosses)
        for j, gloss in enumerate(glosses):
            single = gloss_codes(model, gloss)
            np.testing.assert_allclose(rows.data[j : j + 1], single.data, rtol=0, atol=1e-12)

    def test_gradient_checks_at_two_layers(self):
        """Layer 0 reaches the code rows only through the last layer's keys and
        values at every real position; central differences see any row cut off."""
        inventory, model, batch = _ragged_world(3, d_model=4, n_layers=2)
        randomize_parameters(model, seed=8)
        assert check_bcl_gradients(batch, model) < 1e-4
        err = T.finite_diff_check(
            lambda: scored_forward(batch, inventory, model, MODE_ALL_CANDIDATES)[1].total,
            [tensor for _, tensor in model.gloss.named_tensors()],
        )
        assert err < 1e-4

    def test_last_layer_feed_forward_sees_one_row_per_gloss(self):
        """On the tape, the gloss side's last feed-forward input is (n, 1, d), while
        its earlier layers and every context layer keep all (n, L, d) rows."""
        inventory, model, batch = _ragged_world(8, n_layers=2)
        tape = Tape()
        with tape:
            scored_forward(batch, inventory, model, MODE_ALL_CANDIDATES)
        # the shape of the input that each encoder's first FFN weight w1 multiplies
        ffn_input = {
            id(inputs[1]): inputs[0].shape for _, inputs, _ in tape._records if len(inputs) == 2
        }
        n, d = len(_candidate_glosses(inventory, batch.instances)), model.gloss.config.d_model
        first, last = (ffn_input[id(layer.w1)] for layer in model.gloss.layers)
        assert last == (n, 1, d)
        assert first[0] == n and first[1] > 1
        width = max(len(inst.tokens) for inst in batch.instances) + 2
        for layer in model.context.layers:
            assert ffn_input[id(layer.w1)] == (len(batch), width, d)


class TestBatching:
    def test_gold_sense_missing_from_the_inventory_names_the_instance(self):
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=4, seed=0)
        corpus[2] = CorpusInstance(
            id="stray", tokens=corpus[2].tokens, target_index=corpus[2].target_index,
            lemma=corpus[2].lemma, pos=corpus[2].pos, gold=f"{corpus[2].lemma}%99",
        )
        with pytest.raises(DataError, match=r"^instance 'stray': sense '\w+%99' not listed for"):
            make_batches(corpus, inventory, batch_size=4, seed=0, epoch=0)

    def test_a_programming_error_is_not_relabelled_as_a_data_error(self):
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=4, seed=0)

        class BrokenInventory:
            def gloss_of(self, lemma, pos, sense_id):
                raise TypeError("a bug, not bad data")

        with pytest.raises(TypeError, match="a bug"):
            make_batches(corpus, BrokenInventory(), batch_size=4, seed=0, epoch=0)

    def test_partial_batch_of_one_dropped(self):
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=9, seed=0)
        batches = make_batches(corpus, inventory, batch_size=4, seed=0, epoch=0)
        assert [len(b) for b in batches] == [4, 4]

    def test_partial_batch_of_two_kept(self):
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=10, seed=0)
        batches = make_batches(corpus, inventory, batch_size=4, seed=0, epoch=0)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_epoch_shuffles_differ_but_are_seed_stable(self):
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=12, seed=0)
        ids0 = [i.id for b in make_batches(corpus, inventory, 4, seed=1, epoch=0) for i in b.instances]
        ids1 = [i.id for b in make_batches(corpus, inventory, 4, seed=1, epoch=1) for i in b.instances]
        again = [i.id for b in make_batches(corpus, inventory, 4, seed=1, epoch=0) for i in b.instances]
        assert ids0 != ids1
        assert ids0 == again
