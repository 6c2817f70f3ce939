"""Contrastive trainer: score matrix, loss, Adam, both step regimes."""

import cProfile
import gc
import math
import os
import pstats
import sys
import threading
import weakref

import numpy as np
import pytest

from polywsd import tensor as T
import polywsd.training
from polywsd.checkpoint import load_checkpoint, save_checkpoint
from polywsd.cli import _load_config, _model_configs
from polywsd.data import (
    PAD_ID, UNK_ID, CorpusInstance, SenseEntry, SenseInventory, Vocab, build_vocab,
)
from polywsd.encoder import EncoderConfig
from polywsd.errors import (
    BatchError, ConfigError, ContractError, DataError, InventoryError, ShapeError, TrainingError,
)
from polywsd.fusion import FusionConfig, score_pair
from polywsd.model import (
    _context_window,
    _gloss_ids,
    build_model,
    context_code_rows,
    context_codes,
    gloss_code_rows,
    gloss_codes,
    model_on,
    randomize_parameters,
    WsdModel,
)
from polywsd.predict import score_candidates
from polywsd.tensor import Cutter, Tape, Tensor, backward
from polywsd.training import (
    Adam,
    ScoreMatrix,
    Batch,
    MODE_ALL_CANDIDATES,
    MODE_CONTRASTIVE,
    MODES,
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

import ops
from conftest import packed, recorded_feed_forward_inputs, tiny_model
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
        probs = ops.row_softmax(sm.scores, mask=sm.mask)
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
        (p,) = packed([1.0, -2.0])
        opt = Adam([p], learning_rate=0.5)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_closed_form(self):
        # bias-corrected first step with grad 1 moves by lr / (1 + eps)
        (p,) = packed([0.0])
        opt = Adam([p], learning_rate=0.1)
        p.grad = np.ones(1)
        opt.step()
        assert p.data[0] == pytest.approx(-0.09999999900000001, abs=1e-12)

    def test_non_finite_grad_is_refused_whole(self):
        p, q = packed([1.0], [2.0])
        opt = Adam([p, q], learning_rate=0.5)
        p.grad, q.grad = np.ones(1), np.array([np.inf])
        assert opt.step() is False
        assert opt.t == 0 and p.data[0] == 1.0 and not opt.m[0].any()

    def test_missing_grad_treated_as_zero(self):
        (p,) = packed([3.0])
        opt = Adam([p])
        opt.step()
        np.testing.assert_array_equal(p.data, [3.0])

    def test_flat_steps_match_per_parameter_reference_bit_for_bit(self):
        # grads assigned from outside, and grads backward adds into the zeroed views
        for source in ("assigned", "backward"):
            rng = np.random.default_rng(5)
            shapes = [(3, 4), (4,), (2, 2), (5, 1)]
            params = packed(*(rng.normal(size=s) for s in shapes))
            ref_data = [p.data.copy() for p in params]
            ref_m = [np.zeros(s) for s in shapes]
            ref_v = [np.zeros(s) for s in shapes]
            opt = Adam(params, learning_rate=0.01)
            for t in range(1, 6):
                grads = [rng.normal(size=s) for s in shapes]
                if source == "backward":
                    opt.zero_grad()
                    grads = _backward_grads(params, grads)
                else:
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
        p, q = packed(np.zeros((2, 2)), np.zeros(3))
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
            Adam(packed([1.0]), **{name: value})


def _backward_grads(params, weights):
    """Backward of sum(p_0 * p_0) + sum(p_i * w_i) into ``params``, whose grads are set:
    p_0 is consumed three times, twice by one record. Returns the grads the same
    backward gives fresh copies of ``params``, which have none."""
    def run(ps):
        tape = Tape()
        with tape:
            total = T.sum_all(T.mul(ps[0], ps[0]))
            for p, w in zip(ps, weights):
                total = ops.add(total, T.sum_all(T.mul(p, Tensor(w))))
        backward(total, tape)

    copies = [Tensor(p.data.copy()) for p in params]
    run(params)
    run(copies)
    return [c.grad for c in copies]


def _assert_consecutive_views(buffer, arrays):
    start = buffer.__array_interface__["data"][0]
    for array in arrays:
        assert array.__array_interface__["data"][0] == start and array.flags.c_contiguous
        start += array.nbytes
    assert start == buffer.__array_interface__["data"][0] + buffer.nbytes


class TestParameterBuffer:
    """A model's parameters are views of its one value buffer, which ``Adam`` adopts;
    ``Adam`` owns the gradient buffer, and after ``zero_grad`` each grad is a view of it."""

    def test_parameters_become_views_of_the_value_buffer_in_order_bytes_unchanged(self, small_world):
        model = small_world[2]
        params = model.parameters()
        arrays = [p.data for p in params]
        _assert_consecutive_views(model.values, arrays)
        before = model.values.tobytes()
        opt = Adam(params)
        opt.zero_grad()
        assert opt.values is model.values and all(p.data is a for p, a in zip(params, arrays))
        _assert_consecutive_views(opt._grads, [p.grad for p in params])
        assert model.values.tobytes() == before
        second = Adam(params)
        assert second.values is model.values and second.m_flat is not opt.m_flat

    def test_parameters_not_covering_one_buffer_in_order_are_refused(self, small_world):
        params = small_world[2].parameters()
        read_only = np.zeros(5)
        read_only.flags.writeable = False
        cut = Cutter(read_only)
        for bad in (
            [Tensor([1.0])], params[::-1], params[1:], params[:-1], [], [cut(2), cut(3)]
        ):
            with pytest.raises(ContractError, match="value buffer"):
                Adam(bad)

    def test_randomize_after_the_optimizer_still_leaves_a_model_a_step_moves(self, small_world):
        corpus, inventory, model = small_world
        opt = Adam(model.parameters())
        randomize_parameters(model, seed=3)
        randomized = [p.data.copy() for p in model.parameters()]
        assert opt.values.tobytes() == b"".join(r.tobytes() for r in randomized)
        batch = make_batches(corpus, inventory, batch_size=4, seed=0, epoch=0)[0]
        train_step(batch, model, opt)
        assert all(not np.array_equal(r, p.data) for r, p in zip(randomized, model.parameters()))

    @pytest.mark.parametrize(
        "target", ["data", "tok_emb", "layer_wq", "fusion_wq", "layers_item", "values"]
    )
    def test_rewiring_a_built_model_raises_and_leaves_it_training_as_its_twin(
        self, target, tmp_path
    ):
        """Each assignment raises where it is made, and the model then trains, saves and
        predicts with the bytes of an untouched twin: nothing was rewired."""
        corpus, inventory = synthetic_corpus(n_lemmas=4, senses_per_lemma=3, n_instances=12, seed=1)
        model, twin = (tiny_model(corpus, inventory, seed=0) for _ in range(2))
        same = Tensor(model.gloss.tok_emb.data.copy())
        with pytest.raises(TypeError if target == "layers_item" else AttributeError):
            if target == "data":
                model.gloss.tok_emb.data = same.data
            elif target == "tok_emb":
                model.gloss.tok_emb = same
            elif target == "layer_wq":
                model.context.layers[0].wq = Tensor(model.context.layers[0].wq.data.copy())
            elif target == "fusion_wq":
                model.fusion.wq = Tensor(model.fusion.wq.data.copy())
            elif target == "layers_item":
                model.context.layers[0] = model.context.layers[0]
            else:
                model.values = model.values.copy()
        config = TrainConfig(batch_size=4, epochs=2, seed=3)
        runs = []
        for m in (model, twin):
            optimizer = Adam.from_config(m.parameters(), config)
            losses = [r.loss for r in train(m, optimizer, corpus, inventory, config).records]
            save_checkpoint(tmp_path / "model.ckpt", m, optimizer, seed=3, step=len(losses))
            scores = [score_candidates(inst, inventory, m).scores for inst in corpus]
            runs.append((losses, (tmp_path / "model.ckpt").read_bytes(), scores))
        assert runs[0] == runs[1]

    def test_a_tensor_listed_twice_is_refused(self):
        p, q = packed([1.0], [2.0])
        with pytest.raises(ContractError, match="not the next view of the value buffer"):
            Adam([p, q, p])


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


class TestFloatingPointErrors:
    """A step's forward and backward raise numpy's overflow, invalid and divide-by-zero
    errors where they start, as a TrainingError naming the phase, the package function
    and the step; the step changes nothing and the raising state stays inside it."""

    def _train_until_it_fails(self, model, corpus, inventory, mode=MODE_CONTRASTIVE):
        optimizer, before, errors = Adam(model.parameters()), model.values.copy(), np.geterr()
        with pytest.raises(TrainingError) as err:
            train(model, optimizer, corpus, inventory, TrainConfig(batch_size=4, epochs=2), mode)
        assert np.geterr() == errors
        assert optimizer.t == 0 and model.values.tobytes() == before.tobytes()
        assert not optimizer.m_flat.any() and not optimizer.v_flat.any()
        return str(err.value)

    @pytest.mark.parametrize("mode", MODES)
    def test_an_overflow_in_the_forward_names_its_kernel(self, small_world, mode):
        """Scaled by 1e306, the gloss encoder's first feed-forward overflows GELU's
        square; unraised, every loss of such a run stays finite and the run trains on."""
        corpus, inventory, model = small_world
        model.gloss.layers[0].w1.data[...] *= 1e306
        message = self._train_until_it_fails(model, corpus, inventory, mode)
        assert message.startswith("overflow encountered in multiply")
        assert message.endswith(" in the forward, in gelu_kernel, at epoch 0, batch 0")

    def test_an_invalid_operation_in_a_vjp_names_the_backward(self, monkeypatch, small_world):
        corpus, inventory, model = small_world
        gelu_kernel = T.gelu_kernel

        def poisoned(x):
            out, vjp = gelu_kernel(x)

            def infinite_difference_vjp(g):
                infinite = np.full_like(g, np.inf)
                return vjp(g + (infinite - infinite))

            return out, infinite_difference_vjp

        monkeypatch.setattr(T, "gelu_kernel", poisoned)
        message = self._train_until_it_fails(model, corpus, inventory)
        # the encoder block's VJP, which called the poisoned one; qualified from Python 3.11
        where = "_block.<locals>.vjp" if sys.version_info >= (3, 11) else "vjp"
        assert message == (
            f"invalid value encountered in subtract in the backward, in {where}, at epoch 0, batch 0"
        )

    def test_the_raising_state_stays_inside_the_step(self, monkeypatch, small_world):
        """Raising holds in the step's forward and backward, on the stepping thread
        only, and the caller's state is back once the step returns."""
        corpus, inventory, model = small_world
        batch = make_batches(corpus, inventory, batch_size=4, seed=0, epoch=0)[0]
        seen, forward, backward_ = [], polywsd.training.scored_forward, polywsd.training.backward

        def observed(run):
            def call(*args):
                other = threading.Thread(target=lambda: seen.append(("other", np.geterr())))
                other.start()
                other.join()
                seen.append(("step", np.geterr()))
                return run(*args)
            return call

        monkeypatch.setattr(polywsd.training, "scored_forward", observed(forward))
        monkeypatch.setattr(polywsd.training, "backward", observed(backward_))
        with np.errstate(over="ignore", invalid="warn", divide="print"):
            caller = np.geterr()
            train_step(batch, model, Adam(model.parameters()))
            assert np.geterr() == caller
        raising = {**caller, "over": "raise", "invalid": "raise", "divide": "raise"}
        assert seen == [("other", np.geterr()), ("step", raising)] * 2


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
        reference = packed(*(p.data for p in params))
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


def test_clip_norm_sums_squares_per_parameter_in_list_order():
    """Clipping scales the grad buffer by clip / norm, bit for bit, where the norm
    adds each parameter's sum of squares in list order (``_global_norm``)."""
    rng = np.random.default_rng(4)
    shapes = [(3, 4), (4,), (2, 2), (5, 1)]
    params = packed(*(np.zeros(s) for s in shapes))
    optimizer = Adam(params)
    for _ in range(20):
        grads = [rng.normal(size=s) for s in shapes]
        optimizer.zero_grad()
        for p, g in zip(params, grads):
            p.grad += g
        norm = _global_norm(grads)
        clip = norm / 2.0
        polywsd.training._clip_gradients(optimizer, clip)
        for p, g in zip(params, grads):
            assert p.grad.tobytes() == (g * (clip / norm)).tobytes()


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

    def test_lemma_missing_from_the_inventory_names_the_instance_and_moves_nothing(
        self, small_world
    ):
        corpus, inventory, model = small_world
        stray = CorpusInstance(
            id="stray", tokens=["the", "nolemma", "x"], target_index=1,
            lemma="nolemma", pos="NOUN", gold="nolemma%1",
        )
        batch = Batch(instances=[corpus[0], stray], gold_glosses=[["g"], ["g2"]])
        opt = Adam(model.parameters())
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(DataError, match=r"^instance 'stray': no senses for lemma 'nolemma'"):
            train_all_candidates_step(batch, inventory, model, opt)
        assert opt.t == 0
        assert all(np.array_equal(a, p.data) for a, p in zip(before, model.parameters()))

    @pytest.mark.parametrize("mode", MODES)
    def test_entry_emptied_in_place_raises_inventory_error_and_moves_nothing(self, mode):
        corpus, inventory = synthetic_corpus(2, 3, 6, 0)
        model = tiny_model(corpus, inventory)
        before = model.values.copy()
        inventory.candidates(corpus[0].lemma, corpus[0].pos).clear()
        config = TrainConfig(batch_size=2, epochs=1)
        with pytest.raises(InventoryError, match=r"^instance '\w+': .* lists no senses$"):
            train(model, Adam(model.parameters()), corpus, inventory, config, mode=mode)
        assert model.values.tobytes() == before.tobytes()

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
        inventory, model, batch = self._mixed_world(gold_index=1)
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


class TestCandidateOrder:
    """Permuting every candidate set is a relation any correct model keeps: it only
    reorders each item's columns and scores."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_permuted_candidate_sets_permute_columns_scores_and_choices(self, n_layers):
        """In an all-candidates step each row's columns permute within its block, its
        target moves with its gold and ``per_example`` agrees within 1e-12;
        ``score_candidates`` gives the permuted scores bit for bit, and the same sense
        wherever no two scores tie."""
        rng = np.random.default_rng(n_layers)
        instances, inventory, model = _random_world(rng, n_layers=n_layers)
        randomize_parameters(model, seed=n_layers)
        permuted, orders = SenseInventory(), {}
        for key, senses in inventory.items():
            order = orders[key] = rng.permutation(len(senses))
            permuted.add(*key, [senses[k] for k in order])
        assert any((order != np.arange(len(order))).any() for order in orders.values())
        for batch in make_batches(instances, inventory, 6, seed=0, epoch=0):
            glosses, mask, targets = step_columns(batch, inventory, MODE_ALL_CANDIDATES)
            moved, moved_mask, moved_targets = step_columns(batch, permuted, MODE_ALL_CANDIDATES)
            np.testing.assert_array_equal(moved_mask, mask)
            start = 0
            for i, inst in enumerate(batch.instances):
                order = orders[inst.lemma, inst.pos]
                block = slice(start, start + len(order))
                assert moved[block] == [glosses[block][k] for k in order]
                assert order[moved_targets[i] - start] == targets[i] - start
                start += len(order)
            assert start == len(glosses) == len(moved)
            losses = [
                scored_forward(batch, inv, model, MODE_ALL_CANDIDATES)[1].per_example
                for inv in (inventory, permuted)
            ]
            np.testing.assert_allclose(losses[1], losses[0], rtol=0, atol=1e-12)
        untied = 0
        for inst in instances:
            ranked, reordered = (score_candidates(inst, inv, model) for inv in (inventory, permuted))
            order = orders[inst.lemma, inst.pos]
            scores = np.array(ranked.scores)[order]
            assert np.array(reordered.scores).tobytes() == scores.tobytes()
            if len(set(ranked.scores)) == len(ranked.scores):
                untied += 1
                chosen = reordered.senses[reordered.chosen_index]
                assert chosen is ranked.senses[ranked.chosen_index]
        assert untied > 0


class TestBatchOrder:
    """Permuting a BCL batch is a relation any correct model keeps: it permutes the
    score matrix's rows and columns and the per-example losses. Only up to rounding,
    since a row's bits depend on its place in the padded pass."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_permuted_batch_permutes_scores_and_losses(self, n_layers):
        rng = np.random.default_rng(10 + n_layers)
        instances, inventory, model = _random_world(rng, n_layers=n_layers)
        randomize_parameters(model, seed=n_layers)
        for batch in make_batches(instances, inventory, 6, seed=0, epoch=0):
            order = rng.permutation(len(batch))
            assert (order != np.arange(len(batch))).any()
            moved = Batch(
                [batch.instances[k] for k in order], [batch.gold_glosses[k] for k in order]
            )
            sm, loss, _ = scored_forward(batch, inventory, model, MODE_CONTRASTIVE)
            moved_sm, moved_loss, _ = scored_forward(moved, inventory, model, MODE_CONTRASTIVE)
            cells = np.ix_(order, order)
            np.testing.assert_array_equal(moved_sm.mask, sm.mask[cells])
            np.testing.assert_array_equal(moved_sm.targets, np.arange(len(batch)))
            np.testing.assert_allclose(
                moved_sm.scores.data, sm.scores.data[cells], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                moved_loss.per_example, loss.per_example[order], rtol=0, atol=1e-12
            )
            assert abs(moved_loss.value - loss.value) <= 1e-12


def _outside_the_window_twin(inst, model):
    """``inst`` with every word that ``content_ids_around`` drops replaced by one with
    another id (``w0`` and ``w1`` are known words of ``_random_world``); ``None`` if it
    drops none."""
    kept, target = _context_window(model, inst.tokens, inst.target_index)
    start = inst.target_index - target
    if len(kept) == len(inst.tokens):
        return None
    tokens = [
        word if start <= k < start + len(kept) else "w1" if word == "w0" else "w0"
        for k, word in enumerate(inst.tokens)
    ]
    return CorpusInstance(
        id=inst.id + "-twin", tokens=tokens, target_index=inst.target_index,
        lemma=inst.lemma, pos=inst.pos, gold=inst.gold,
    )


class TestTextOutsideTheWindow:
    """Words that ``content_ids_around`` drops are a relation any correct model keeps:
    an instance and its twin that differs only in them are two keys of the context
    table, but get the same ids and the same code row, bit for bit."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_dropped_words_change_the_key_but_not_the_ids_or_the_row(self, n_layers):
        instances, inventory, model = _random_world(
            np.random.default_rng(20 + n_layers), n_layers=n_layers
        )
        randomize_parameters(model, seed=n_layers)
        pairs = [(i, t) for i in instances if (t := _outside_the_window_twin(i, model))]
        assert len(pairs) >= 4
        originals, twins = [i for i, _ in pairs], [t for _, t in pairs]
        assert all(i.tokens != t.tokens for i, t in pairs)
        codes = context_code_rows(model, originals).data
        assert context_code_rows(model, twins).data.tobytes() == codes.tobytes()
        rows, twin_rows = _context_rows(model, originals), _context_rows(model, twins)
        assert len(set(rows) | set(twin_rows)) == len(model.context_index.row) == 2 * len(pairs)
        for got, want in zip(model.context_index.take(twin_rows), model.context_index.take(rows)):
            assert got.tobytes() == want.tobytes()
        for inst, twin in pairs:
            single = context_codes(model, inst.tokens, inst.target_index).data
            assert context_codes(model, twin.tokens, twin.target_index).data.tobytes() == (
                single.tobytes()
            )
        batch = Batch(originals, [inventory.gloss_of(i.lemma, i.pos, i.gold) for i in originals])
        twin_batch = Batch(twins, batch.gold_glosses)
        for mode in MODES:
            losses = [scored_forward(b, inventory, model, mode)[1] for b in (batch, twin_batch)]
            assert losses[1].per_example.tobytes() == losses[0].per_example.tobytes()


def _relabelled_copy(model, rng):
    """A copy of ``model`` whose content ids (4 and up) are permuted, both token tables'
    rows with them; markers, padding and the unknown id keep theirs. Returns the copy
    and the old id of each new content row."""
    tokens = model.vocab.tokens_in_id_order()
    order = rng.permutation(len(tokens))
    assert (order != np.arange(len(tokens))).any()
    copy = model_on(
        model.values.copy(), model.context.config, model.gloss.config, model.fusion.config,
        Vocab.from_tokens([tokens[k] for k in order]),
    )
    old_ids = order + 4  # ids 0 to 3 are reserved
    for side in (copy.context, copy.gloss):
        side.tok_emb.data[4:] = side.tok_emb.data[old_ids]
    return copy, old_ids


def _recorded_step(batch, inventory, model, mode):
    """The scores, per-example losses and parameter gradients of one recorded forward."""
    for tensor in model.parameters():
        tensor.grad = None
    tape = Tape()
    with tape:
        sm, loss, _ = scored_forward(batch, inventory, model, mode)
    backward(loss.total, tape)
    return sm.scores.data, loss.per_example, {n: t.grad for n, t in model.named_parameters()}


class TestVocabularyRelabelling:
    """Renaming the content ids, with the token tables' rows, is a relation any correct
    model keeps: the id rows of both tables change, and nothing else does. Scores and
    losses are bit-equal and each token-table gradient is the permuted one."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_relabelled_ids_give_the_same_bits(self, n_layers):
        rng = np.random.default_rng(30 + n_layers)
        instances, inventory, model = _random_world(rng, n_layers=n_layers)
        randomize_parameters(model, seed=n_layers)
        copy, old_ids = _relabelled_copy(model, rng)
        for mode in MODES:
            for batch in make_batches(instances, inventory, 6, seed=0, epoch=0):
                scores, per_example, grads = _recorded_step(batch, inventory, model, mode)
                got_scores, got_per_example, got = _recorded_step(batch, inventory, copy, mode)
                assert got_scores.tobytes() == scores.tobytes()
                assert got_per_example.tobytes() == per_example.tobytes()
                for name, grad in grads.items():
                    if name.endswith(".tok_emb"):
                        grad = np.concatenate([grad[:4], grad[old_ids]])
                    assert got[name].tobytes() == grad.tobytes(), name
        for side in ("context_index", "gloss_index"):
            table, relabelled = getattr(model, side), getattr(copy, side)
            assert table.row.keys() == relabelled.row.keys()
            rows = np.array([relabelled.row[key] for key in table.row])
            ids, relabelled_ids = table.take(np.arange(len(rows)))[0], relabelled.take(rows)[0]
            assert (relabelled_ids != ids).any(axis=1).sum() > len(rows) // 2  # most moved
            content = ids >= 4
            np.testing.assert_array_equal(relabelled_ids[~content], ids[~content])
            np.testing.assert_array_equal(old_ids[relabelled_ids[content] - 4], ids[content])


class TestRowIndependence:
    """Adding an unrelated instance to a batch is a relation any correct model keeps:
    the other cells' scores stay, up to rounding only, since a row's bits depend on the
    padded pass around it (ROADMAP item 17)."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_an_added_instance_leaves_the_other_cells(self, n_layers):
        """Each batch holds contexts of at most 3 words and the added one has more than
        6, so the padded context pass around the other rows gets wider."""
        rng = np.random.default_rng(40 + n_layers)
        instances, inventory, model = _random_world(rng, n_instances=48, n_layers=n_layers)
        randomize_parameters(model, seed=n_layers)
        short = [i for i in instances if len(i.tokens) <= 3]
        extras = iter([i for i in instances if len(i.tokens) > 6])
        table = model.context_index
        for mode in MODES:
            for start in range(0, len(short) - 2, 3):
                chunk = short[start : start + 3]
                batch = Batch(chunk, [inventory.gloss_of(i.lemma, i.pos, i.gold) for i in chunk])
                sm = scored_forward(batch, inventory, model, mode)[0]
                extra = next(extras)
                assert (tuple(extra.tokens), extra.target_index) not in table.row
                grown = Batch(
                    batch.instances + [extra],
                    batch.gold_glosses + [inventory.gloss_of(extra.lemma, extra.pos, extra.gold)],
                )
                keys = len(table.row)
                grown_sm = scored_forward(grown, inventory, model, mode)[0]
                assert len(table.row) == keys + 1  # the warm table gained the one key
                b, n = sm.scores.shape
                assert grown_sm.scores.shape[0] == b + 1 and grown_sm.scores.shape[1] > n
                np.testing.assert_allclose(
                    grown_sm.scores.data[:b, :n], sm.scores.data, rtol=0, atol=1e-12
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
        inventory = SenseInventory()
        inventory.add("x", "NOUN", [SenseEntry("x%1", ["a", "b"]), SenseEntry("x%2", ["c"])])
        model = tiny_model(instances, inventory)
        columns, mask, targets = step_columns(batch, None, MODE_CONTRASTIVE)
        assert columns == glosses
        np.testing.assert_array_equal(mask, duplicate_gloss_mask(glosses))
        assert mask[0, 2] and mask[2, 0] and mask.sum() == 2
        assert targets.tolist() == [0, 1, 2]
        scored_forward(batch, None, model, MODE_CONTRASTIVE)
        assert len(model.gloss_index.row) == 2  # one table row per distinct text

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

    def test_context_codes_is_row_zero_of_a_batch_of_one(self):
        _, model, batch = _ragged_world(8)
        randomize_parameters(model, seed=3)
        for inst in batch.instances:
            single = context_codes(model, inst.tokens, inst.target_index)
            assert single.data.tobytes() == context_code_rows(model, [inst]).data[:1].tobytes()

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

    def test_forward_records_4_ops_at_the_cli_defaults(self):
        """Each forward records 4 ops at the CLI defaults: each code side (context
        pass, target pick and fusion; gloss pass) one, the score product and the loss."""
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
            assert len(tape) == 4

    def test_prediction_records_1_and_4_ops_at_the_cli_defaults(self):
        """Prediction's batch of one records 1 op per ``context_codes``, its code side,
        as in training, and 4 per ``gloss_codes``: the pass, and the reshape, pick and
        reshape of ``encode``, ``cls_representation`` and ``fuse_gloss``, which keep
        each gloss encoded through ``encode``."""
        corpus, inventory = synthetic_corpus(n_lemmas=10, senses_per_lemma=3, n_instances=50, seed=0)
        config = _load_config(None)
        vocab = build_vocab(corpus, inventory, min_freq=config["train"]["min_freq"])
        encoder_config, fusion_config = _model_configs(config, None, vocab.size)
        model = build_model(encoder_config, encoder_config, fusion_config, vocab, seed=0)
        inst = corpus[0]
        gloss = inventory.candidates(inst.lemma, inst.pos)[0].gloss
        for forward, records in (
            (lambda: context_codes(model, inst.tokens, inst.target_index), 1),
            (lambda: gloss_codes(model, gloss), 4),
        ):
            tape = Tape()
            with tape:
                forward()
            assert len(tape) == records


def _candidate_glosses(inventory, instances):
    return [s.gloss for inst in instances for s in inventory.candidates(inst.lemma, inst.pos)]


def _context_rows(model, instances):
    """The rows of ``model.context_index`` that hold ``instances``' ids, once
    ``context_code_rows`` has filled them."""
    return np.array([model.context_index.row[tuple(i.tokens), i.target_index] for i in instances])


def _gloss_rows(model, glosses):
    """The rows of ``model.gloss_index`` that hold ``glosses``' ids, once
    ``gloss_code_rows`` has filled them."""
    return np.array([model.gloss_index.row[tuple(g)] for g in glosses])


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

    def test_last_layer_feed_forward_sees_one_row_per_gloss(self, monkeypatch):
        """In a recorded step, the gloss side's last feed-forward input is (n, 1, d_ff),
        while its earlier layers and every context layer keep all (n, L, d_ff) rows."""
        inventory, model, batch = _ragged_world(8, n_layers=2)
        ffn_inputs = recorded_feed_forward_inputs(monkeypatch)
        with Tape():
            scored_forward(batch, inventory, model, MODE_ALL_CANDIDATES)
        # one per layer, in the order the passes run them: the gloss side first
        (first, last), context = ffn_inputs[:2], ffn_inputs[2:]
        n, d_ff = len(_candidate_glosses(inventory, batch.instances)), model.gloss.config.d_ff
        assert last == (n, 1, d_ff)
        assert first[0] == n and first[1] > 1
        width = max(len(inst.tokens) for inst in batch.instances) + 2
        assert context == [(len(batch), width, d_ff)] * len(model.context.layers)


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


def test_two_training_runs_on_two_threads_match_them_in_sequence():
    """One BCL run and one all-candidates run, each on its own model and optimizer, on
    two threads at once end with the losses, parameter bytes and Adam moments of the
    same runs one after the other: each thread records onto its own tape."""
    corpus, inventory = synthetic_corpus(n_lemmas=4, senses_per_lemma=3, n_instances=16, seed=1)
    config = TrainConfig(batch_size=4, epochs=3, learning_rate=2e-3, seed=5)
    modes = (MODE_CONTRASTIVE, MODE_ALL_CANDIDATES)

    def run(mode):
        model = tiny_model(corpus, inventory, seed=2, n_layers=2)
        optimizer = Adam.from_config(model.parameters(), config)
        metrics = train(model, optimizer, corpus, inventory, config, mode=mode)
        losses = [r.loss.hex() for r in metrics.records]
        return losses, model.values.tobytes(), optimizer.m_flat.tobytes(), optimizer.v_flat.tobytes()

    sequential = [run(mode) for mode in modes]
    barrier = threading.Barrier(2, timeout=30)
    threaded: dict[str, tuple] = {}

    def worker(mode):
        barrier.wait()
        threaded[mode] = run(mode)

    threads = [threading.Thread(target=worker, args=(mode,)) for mode in modes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(sequential[0][0]) == 12 and len(sequential[1][0]) == 12
    assert [threaded[mode] for mode in modes] == sequential


def _unindexed_copy(model):
    """A model with a copy of ``model``'s values and configs, and empty id tables."""
    return model_on(
        model.values.copy(), model.context.config, model.gloss.config, model.fusion.config,
        model.vocab,
    )


def _random_world(rng, n_lemmas=4, senses=3, n_instances=24, n_layers=1):
    """Instances and glosses of mixed lengths, some past a capacity of 6 content words,
    over 12 words of which the vocabulary holds 8: the rest are unknown."""
    words = [f"w{i}" for i in range(12)]
    vocab = Vocab.from_tokens(words[:8])
    inventory, instances = SenseInventory(), []
    for i in range(n_lemmas):
        lemma = f"lemma{i}"
        inventory.add(lemma, "NOUN", [
            SenseEntry(f"{lemma}%{k}", rng.choice(words, rng.integers(1, 12)).tolist())
            for k in range(senses)
        ])
    for j in range(n_instances):
        lemma, n = f"lemma{j % n_lemmas}", int(rng.integers(1, 15))
        instances.append(CorpusInstance(
            id=f"r{j}", tokens=rng.choice(words, n).tolist(), target_index=int(rng.integers(n)),
            lemma=lemma, pos="NOUN", gold=f"{lemma}%{int(rng.integers(senses))}",
        ))
    encoder = EncoderConfig(
        vocab_size=vocab.size, d_model=8, n_layers=n_layers, n_heads=2, d_ff=16, max_seq_len=8
    )
    fusion = FusionConfig(d_model=8, poly_m=2, n_heads=2)
    model = build_model(encoder, encoder, fusion, vocab, seed=1)
    return instances, inventory, model


def _capacity(table):
    """How many rows the id table's columns hold, filled or not."""
    return len(table._columns[2])


class TestIdIndex:
    """Training reads each sequence's ids from the model's id tables, filled once per
    distinct text: they must hand a step the ids, padding and target rows that
    tokenizing gives."""

    def test_rows_equal_marked_ids_on_random_batches(self):
        """Across a first fill of one row, a fill larger than twice the capacity, then
        many small fills and repeats, a batch's ids, padding and targets equal the
        oracle's ``padded_ids`` and ``target_rows`` of its windows, whichever copy of
        the table holds them."""
        rng = np.random.default_rng(0)
        instances, inventory, model = _random_world(rng)
        glosses = [s.gloss for _, senses in inventory.items() for s in senses]
        seen = set()
        filled = {"context_index": [], "gloss_index": []}  # (rows, capacity) after each batch

        def pick(n, span):
            return range(*span) if span else rng.choice(n, rng.integers(1, 4))

        for span in [(0, 1), (1, 10)] + [None] * 12:
            batch = [instances[i] for i in pick(len(instances), span)]
            seen.update((tuple(i.tokens), i.target_index) for i in batch)
            context_code_rows(model, batch)
            ids, padding, targets = model.context_index.take(_context_rows(model, batch))
            windows = [_context_window(model, i.tokens, i.target_index) for i in batch]
            want_ids, want_padding = ops.padded_ids(model.context, [w for w, _ in windows])
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(padding, want_padding)
            _, want_targets = ops.target_rows([t for _, t in windows], want_padding)
            np.testing.assert_array_equal(targets, want_targets)
            picked = [glosses[j] for j in pick(len(glosses), span)]
            gloss_code_rows(model, picked)
            ids, padding, _ = model.gloss_index.take(_gloss_rows(model, picked))
            gloss_ids = [_gloss_ids(model, g) for g in picked]
            want_ids, want_padding = ops.padded_ids(model.gloss, gloss_ids)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(padding, want_padding)
            for side, sizes in filled.items():
                table = getattr(model, side)
                sizes.append((len(table.row), _capacity(table)))
        assert ids.dtype == want_ids.dtype and padding.dtype == bool
        assert any(len(i.tokens) > 6 for i in instances) and any(len(g) > 6 for g in glosses)
        assert any(w not in model.vocab.token_to_id for g in glosses for w in g)
        assert model.context_index.row.keys() == seen  # one row per distinct (tokens, target)
        for sizes in filled.values():
            (first, capacity), (second, _) = sizes[:2]
            assert first == 1 and second - first > 2 * capacity
            assert len({capacity for _, capacity in sizes[1:]}) > 1  # grown by a small fill

    @pytest.mark.parametrize("mode", [MODE_CONTRASTIVE, MODE_ALL_CANDIDATES])
    def test_steps_equal_those_of_a_model_with_no_index(self, mode):
        """Loss bits, value buffer and Adam's moments after 3 epochs equal a copy's that
        takes each step as a fresh model, with empty id tables, over the copy's own
        tensors and buffers, which its Adam keeps stepping."""
        instances, inventory, model = _random_world(np.random.default_rng(1))
        copy = _unindexed_copy(model)
        optimizers = Adam(model.parameters()), Adam(copy.parameters())
        for epoch in range(3):
            for batch in make_batches(instances, inventory, 6, seed=0, epoch=epoch):
                fresh = WsdModel(
                    copy.vocab, copy.context, copy.gloss, copy.fusion, copy.values,
                    copy.gloss_values,
                )
                assert not fresh.context_index.row and not fresh.gloss_index.row
                losses = []
                for m, optimizer in zip((model, fresh), optimizers):
                    step = polywsd.training._update(
                        batch, inventory, m, optimizer, mode, None, "step"
                    )
                    losses.append(step[0].per_example.tobytes())
                assert losses[0] == losses[1]
        assert model.values.tobytes() == copy.values.tobytes()
        assert optimizers[0].m_flat.tobytes() == optimizers[1].m_flat.tobytes()
        assert optimizers[0].v_flat.tobytes() == optimizers[1].v_flat.tobytes()

    @pytest.mark.parametrize("mode", [MODE_CONTRASTIVE, MODE_ALL_CANDIDATES])
    def test_in_place_edits_are_seen_by_the_next_step(self, mode):
        instances, inventory, model = _random_world(np.random.default_rng(2))
        batch = make_batches(instances, inventory, 6, seed=0, epoch=0)[0]
        before = scored_forward(batch, inventory, model, mode)[1].per_example
        batch.gold_glosses[0][0] = "w1" if batch.gold_glosses[0][0] == "w0" else "w0"
        batch.instances[1].tokens[batch.instances[1].target_index] = "w3"
        batch.instances[1].tokens.append("w5")
        after = scored_forward(batch, inventory, model, mode)[1].per_example
        fresh = scored_forward(batch, inventory, _unindexed_copy(model), mode)[1].per_example
        assert after.tobytes() == fresh.tobytes()
        assert after.tobytes() != before.tobytes()

    @pytest.mark.parametrize("mode", [MODE_CONTRASTIVE, MODE_ALL_CANDIDATES])
    def test_malformed_sequences_raise_the_tokenizers_errors_at_the_step(self, mode):
        """An emptied gloss or context fails the step as tokenizing it fails, and is never
        indexed: restored, the step runs as before."""
        instances, inventory, model = _random_world(np.random.default_rng(3))
        batch = make_batches(instances, inventory, 6, seed=0, epoch=0)[0]
        optimizer = Adam(model.parameters())
        expected = scored_forward(batch, inventory, _unindexed_copy(model), mode)[1].per_example
        target = batch.instances[2].target_index
        for emptied, error, message in (
            (batch.gold_glosses[2], ContractError, "encode needs at least one token"),
            (batch.instances[2].tokens, DataError,
             f"target_index {target} out of range for 0 words"),
        ):
            saved = list(emptied)
            emptied.clear()
            with pytest.raises(error) as err:
                polywsd.training._update(batch, inventory, model, optimizer, mode, None, "step")
            emptied[:] = saved
            assert str(err.value) == message
        assert () not in model.gloss_index.row and ((), target) not in model.context_index.row
        assert optimizer.t == 0
        got = scored_forward(batch, inventory, model, mode)[1].per_example
        assert got.tobytes() == expected.tobytes()

    def test_threads_filling_a_cold_index_get_the_single_thread_ids(self):
        """Four threads run every step's forward, in rotated orders, on one model whose
        index starts empty: each gets the losses of one thread alone, and the index
        holds each distinct text once, with the ids one thread fills. Its 29 distinct
        glosses outgrow any first fill (at most 12) twice, so both tables are copied to
        larger ones while other threads look rows up."""
        instances, inventory, model = _random_world(
            np.random.default_rng(4), n_lemmas=10, n_instances=40
        )
        work = [
            (batch, mode)
            for batch in make_batches(instances, inventory, 4, seed=0, epoch=0)
            for mode in MODES
        ]
        alone = _unindexed_copy(model)
        expected = [
            scored_forward(b, inventory, alone, m)[1].per_example.tobytes() for b, m in work
        ]
        capacities = {"context_index": [], "gloss_index": []}
        for side, seen in capacities.items():
            table = getattr(model, side)

            def fill(keys, build, table=table, seen=seen, fill=table._fill):
                fill(keys, build)
                seen.append(_capacity(table))

            table._fill = fill
        barrier = threading.Barrier(4, timeout=30)
        results: dict[int, list] = {}

        def run(k):
            barrier.wait()
            results[k] = {}
            for i in list(range(k, len(work))) + list(range(k)):
                batch, mode = work[i]
                loss = scored_forward(batch, inventory, model, mode)[1]
                results[k][i] = loss.per_example.tobytes()

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(4):
            assert [results[k][i] for i in range(len(work))] == expected
        # copied to a larger table at least twice after its first fill, lookups running
        assert all(len(set(seen)) >= 3 for seen in capacities.values())
        for side in capacities:
            shared, single = getattr(model, side), getattr(alone, side)
            assert sorted(shared.row.values()) == list(range(len(shared.row)))
            assert shared.row.keys() == single.row.keys()
            for got, want in zip(
                shared.take(np.array(list(shared.row.values()))),
                single.take(np.array([single.row[key] for key in shared.row])),
            ):
                np.testing.assert_array_equal(got, want)

    def test_a_fill_publishes_its_keys_after_their_rows(self):
        """Lookups read without the lock, so a key must appear only once its row is in
        the copy of the table they read: at each publication, before and after the
        table grows, the rows published take as tokenized."""
        instances, inventory, model = _random_world(np.random.default_rng(7))
        table, published, capacities = model.context_index, [], []

        class CheckedRows(dict):
            def update(self, pairs):
                pairs = list(pairs)
                ids, padding, targets = table.take(np.array([row for _, row in pairs]))
                windows = [_context_window(model, tokens, t) for (tokens, t), _ in pairs]
                want_ids, want_padding = ops.padded_ids(model.context, [w for w, _ in windows])
                np.testing.assert_array_equal(ids, want_ids)
                np.testing.assert_array_equal(padding, want_padding)
                np.testing.assert_array_equal(targets, [t + 1 for _, t in windows])
                published.append(len(pairs))
                capacities.append(_capacity(table))
                super().update(pairs)

        table.row = CheckedRows()
        for batch in make_batches(instances, inventory, 6, seed=0, epoch=0):
            context_code_rows(model, batch.instances)
        assert len(published) > 1 and sum(published) == len(table.row)
        assert len(set(capacities)) > 1  # a publication came after a growth

    def test_an_empty_batch_raises_the_tokenizers_error(self):
        _, _, model = _random_world(np.random.default_rng(8))
        for code_rows in (context_code_rows, gloss_code_rows):
            with pytest.raises(ContractError, match="^encode_batch needs at least one sequence$"):
                code_rows(model, [])

    def test_the_index_is_freed_with_its_model(self):
        """The tables are the model's fields: dropping the last reference to the model
        frees it and both tables at once, with no cycle for the collector to find."""
        instances, inventory, model = _random_world(np.random.default_rng(5))
        for mode in MODES:
            scored_forward(make_batches(instances, inventory, 6, 0, 0)[0], inventory, model, mode)
        tables = [weakref.ref(model.context_index), weakref.ref(model.gloss_index)]
        owner = weakref.ref(model)
        assert all(len(table().row) > 0 for table in tables)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del model
            assert owner() is None and all(table() is None for table in tables)
        finally:
            if enabled:
                gc.enable()

    def test_every_model_starts_with_empty_tables_of_its_own(self, tmp_path):
        """Two models built alike, a model loaded from a checkpoint and one constructed
        directly each get their own empty tables, sized to their own encoders, and a
        step on one fills none of the others'."""
        instances, inventory, model = _random_world(np.random.default_rng(9))
        _, _, twin = _random_world(np.random.default_rng(9))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, Adam(model.parameters()), seed=0, step=0)
        loaded = load_checkpoint(path).model
        direct = WsdModel(
            model.vocab, model.context, model.gloss, model.fusion, model.values,
            model.gloss_values,
        )
        models = [model, twin, loaded, direct]
        scored_forward(
            make_batches(instances, inventory, 6, 0, 0)[0], inventory, model, MODE_CONTRASTIVE
        )
        assert model.context_index.row and model.gloss_index.row
        tables = [table for m in models for table in (m.context_index, m.gloss_index)]
        assert len({id(table) for table in tables}) == len(tables)
        for m in models[1:]:
            for table, side in ((m.context_index, m.context), (m.gloss_index, m.gloss)):
                assert not table.row and _capacity(table) == 0
                assert table._columns[0].shape[1] == side.config.max_seq_len


def test_training_steps_call_no_numpy_python_wrapper():
    """A step, from a cold index on, reduces through ufuncs and ndarray methods: numpy's
    Python-level wrappers (``_methods``, ``fromnumeric``) cost more than the work."""
    corpus, inventory, model = _random_world(np.random.default_rng(6))
    optimizer = Adam(model.parameters())
    batches = [  # padded batches, so the attention masks padded keys
        batch for batch in make_batches(corpus, inventory, batch_size=4, seed=0, epoch=0)
        if len({min(len(i.tokens), 6) for i in batch.instances}) > 1
    ]
    profile = cProfile.Profile()
    profile.enable()
    try:
        train_step(batches[0], model, optimizer, clip_norm=1e-3)
        train_all_candidates_step(batches[1], inventory, model, optimizer)
    finally:
        profile.disable()
    wrappers = [
        (filename, name)
        for filename, _, name in pstats.Stats(profile).stats
        if os.path.basename(filename) in ("_methods.py", "fromnumeric.py")
        and f"numpy{os.sep}" in filename
    ]
    assert optimizer.t == 2
    assert wrappers == []
