"""Tensor core: forward values, tape gradients, and the finite-difference oracle."""

import ctypes
import importlib
import inspect
import math
import pkgutil
import platform
import statistics
import sys
import threading
import zlib

import numpy as np
import pytest

import polywsd
from polywsd import tensor as T
from polywsd.data import CorpusInstance, Vocab
from polywsd.encoder import EncoderConfig, encode_batch, encoder_params
from polywsd.errors import ContractError, OracleError, ShapeError
from polywsd.fusion import FusionConfig, fusion_params, score_rows
from polywsd.model import WsdModel, context_code_rows, gloss_code_rows
from polywsd.tensor import Tape, Tensor, backward, finite_diff_check

import ops
from conftest import recorded_attention_weights, run_fresh

# item 0 pads keys 1 and 3, item 1 keys 0-2, as one mask row per query
_KEY_PADDING = np.broadcast_to(
    np.array([[False, True, False, True], [True, True, True, False]])[:, None, :], (2, 3, 4)
)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ops.matmul(a, b).data, b.data)

    def test_hand_expansion(self):
        # [[1,2]] x [[3],[4]] = [[1*3 + 2*4]] = [[11]]
        out = ops.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_zero_case(self):
        out = ops.matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_batched_and_shared_weight_match_per_item_products(self):
        rng = np.random.default_rng(8)
        a, b, w = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5)), rng.normal(size=(4, 5))
        batched = ops.matmul(Tensor(a), Tensor(b)).data
        shared = ops.matmul(Tensor(a), Tensor(w)).data
        for i in range(3):
            np.testing.assert_allclose(batched[i], a[i] @ b[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(shared[i], a[i] @ w, rtol=0, atol=1e-12)

    def test_associativity_on_random_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = (Tensor(rng.uniform(-1, 1, (3, 3))) for _ in range(3))
            left = ops.matmul(ops.matmul(a, b), c).data
            right = ops.matmul(a, ops.matmul(b, c)).data
            np.testing.assert_allclose(left, right, atol=1e-9)


class TestRowSoftmax:
    def test_symmetry(self):
        out = ops.row_softmax(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_reference_values(self):
        # scalar softmax of [2, 0], computed with a 30-digit mpmath script
        out = ops.row_softmax(Tensor([[2.0, 0.0]]))
        np.testing.assert_allclose(
            out.data, [[0.8807970779778824, 0.1192029220221176]], atol=1e-12
        )

    def test_large_logits_no_overflow(self):
        out = ops.row_softmax(Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = Tensor(rng.normal(scale=5.0, size=(4, 6)))
            sums = ops.row_softmax(m).data.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ops.row_softmax(Tensor(np.zeros((0, 3))))

    def test_mask_excludes_entries(self):
        mask = np.array([[False, True, False]])
        out = ops.row_softmax(Tensor([[1.0, 100.0, 1.0]]), mask=mask)
        np.testing.assert_allclose(out.data, [[0.5, 0.0, 0.5]], atol=1e-12)

    def test_batched_mask_gives_exactly_zero(self):
        out = ops.row_softmax(Tensor(np.random.default_rng(4).normal(size=(2, 3, 4))), _KEY_PADDING)
        assert np.all(out.data[_KEY_PADDING] == 0.0)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


class TestCrossEntropy:
    def test_terms_are_negative_log_probabilities_of_the_targets(self):
        rng = np.random.default_rng(8)
        scores, mask = rng.normal(size=(3, 5)), np.eye(3, 5, k=1, dtype=bool)
        total, per_row = T.cross_entropy(Tensor(scores), mask, [0, 4, 1])
        probs = ops.row_softmax(Tensor(scores), mask).data
        np.testing.assert_allclose(per_row, -np.log(probs[[0, 1, 2], [0, 4, 1]]), atol=1e-15)
        assert total.item() == pytest.approx(per_row.mean(), abs=1e-15)

    def test_masked_cells_get_exactly_zero_gradient(self):
        mask = np.eye(3, 5, k=1, dtype=bool)
        p = Tensor(np.random.default_rng(9).normal(size=(3, 5)))
        tape = Tape()
        with tape:
            total, _ = T.cross_entropy(p, mask, [0, 4, 1])
        backward(total, tape)
        assert np.all(p.grad[mask] == 0.0) and np.all(p.grad[~mask] != 0.0)

    def test_masked_target_cell_rejected(self):
        mask = np.zeros((2, 3), dtype=bool)
        mask[1, 2] = True
        with pytest.raises(ContractError, match=r"rows \[1\] are masked"):
            T.cross_entropy(Tensor(np.zeros((2, 3))), mask, [0, 2])

    @pytest.mark.parametrize("targets", [[0, 3], [-1, 0]])
    def test_out_of_range_target_rejected(self, targets):
        with pytest.raises(ContractError, match="out of range for 3 columns"):
            T.cross_entropy(Tensor(np.zeros((2, 3))), None, targets)

    @pytest.mark.parametrize("shape,targets", [((2, 3), [0]), ((2, 3), [[0, 1]]), ((0, 3), [])])
    def test_one_target_per_row_of_a_rank_2_matrix(self, shape, targets):
        with pytest.raises(ShapeError):
            T.cross_entropy(Tensor(np.zeros(shape)), None, targets)


class TestBackward:
    def test_linear_sum(self):
        x = Tensor([1.0, 2.0, 3.0])
        tape = Tape()
        with tape:
            loss = T.sum_all(x)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_quadratic(self):
        x = Tensor([1.0, 2.0])
        tape = Tape()
        with tape:
            loss = T.sum_all(T.mul(x, x))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_reuse_accumulates(self):
        x = Tensor([1.0, -2.0, 0.5])
        tape = Tape()
        with tape:
            loss = ops.add(T.sum_all(x), T.sum_all(x))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_only_leaves_get_grad(self):
        x = Tensor([1.0, 2.0])
        tape = Tape()
        with tape:
            y = T.mul(x, x)
            loss = T.sum_all(y)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        assert y.grad is None and loss.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0])
        tape = Tape()
        with tape:
            y = T.mul(x, x)
        with pytest.raises(ContractError):
            backward(y, tape)

    @pytest.mark.parametrize("where", ["other-tape", "leaf"])
    def test_loss_not_recorded_on_the_tape_rejected(self, where):
        w, v = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        leaf = Tensor(2.0)
        v.grad = np.array([5.0, 6.0])
        tape, other = Tape(), Tape()
        with tape:
            ops.add(T.sum_all(T.mul(w, v)), leaf)
        with other:
            other_loss = T.sum_all(T.mul(w, v))
        loss = other_loss if where == "other-tape" else leaf
        with pytest.raises(ContractError, match="backward needs a loss recorded on this tape"):
            backward(loss, tape)
        assert w.grad is None and loss.grad is None and v.grad.tolist() == [5.0, 6.0]

    def test_leaves_fed_one_adjoint_array_get_separate_grads(self):
        # add's VJP hands one array to both leaves; a's earlier mul adds into a's grad after it
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        tape = Tape()
        with tape:
            square = T.mul(a, a)
            loss = T.sum_all(ops.add(ops.add(a, b), square))
        backward(loss, tape)
        assert a.grad.tolist() == [3.0, 5.0] and b.grad.tolist() == [1.0, 1.0]
        assert not np.shares_memory(a.grad, b.grad)

    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(3)
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))

        def run():
            a = Tensor(a_data.copy())
            b = Tensor(b_data.copy())
            tape = Tape()
            with tape:
                loss = T.sum_all(ops.row_softmax(ops.matmul(a, b)))
            backward(loss, tape)
            return a.grad.tobytes(), b.grad.tobytes()

        assert run() == run()

    def test_every_op_is_recorded_and_every_reached_leaf_gets_a_grad(self):
        a, b, c, unused = (Tensor(np.full((2, 2), k)) for k in (1.0, 2.0, 3.0, 4.0))
        tape = Tape()
        with tape:
            ops.matmul(unused, unused)
            loss = T.sum_all(ops.add(ops.matmul(a, b), c))
        assert len(tape) == 4
        backward(loss, tape)
        assert a.grad.tolist() == [[4.0, 4.0]] * 2 and b.grad.tolist() == [[2.0, 2.0]] * 2
        assert c.grad.tolist() == [[1.0, 1.0]] * 2 and unused.grad is None


class TestFiniteDiffCheck:
    def test_quadratic_closed_form(self):
        # f = 0.5 * ||theta||^2 has gradient theta
        theta = Tensor([3.0, -1.0])
        err = finite_diff_check(
            lambda: ops.scale(T.sum_all(T.mul(theta, theta)), 0.5), [theta], h=1e-5
        )
        assert err < 1e-7

    def test_constant_function(self):
        theta = Tensor([1.0, 2.0])
        err = finite_diff_check(lambda: T.sum_all(ops.scale(theta, 0.0)), [theta], h=1e-4)
        assert err == 0.0

    def test_nondeterministic_function_rejected(self):
        state = {"calls": 0}
        theta = Tensor([1.0, 2.0])

        def noisy():
            state["calls"] += 1
            return ops.scale(T.sum_all(theta), float(state["calls"]))

        with pytest.raises(OracleError):
            finite_diff_check(noisy, [theta])

    def test_invalid_step_rejected(self):
        theta = Tensor([1.0])
        with pytest.raises(ContractError):
            finite_diff_check(lambda: T.sum_all(theta), [theta], h=0.0)

    def test_params_and_grads_restored(self):
        a, b = Tensor([[1.5, -2.0], [0.25, 3.0]]), Tensor([0.5, -0.75])
        b.grad = np.array([7.0, 8.0])
        before = [(p.data.copy(), None if p.grad is None else p.grad.copy()) for p in (a, b)]
        finite_diff_check(lambda: T.sum_all(T.mul(ops.add(a, b), a)), [a, b])
        for p, (data, grad) in zip((a, b), before):
            assert p.data.tobytes() == data.tobytes()
            assert (p.grad is None and grad is None) or p.grad.tobytes() == grad.tobytes()

    def test_raising_f_restores_bumped_entry(self):
        theta = Tensor([1.0, 2.0, 3.0])
        original = theta.data.copy()
        state = {"calls": 0}

        def f():
            # 2 probes + 1 taped pass, then the sweep: fail on entry 1's + bump
            state["calls"] += 1
            if state["calls"] == 6:
                assert theta.data[1] != original[1]
                raise RuntimeError("boom")
            return T.sum_all(T.mul(theta, theta))

        with pytest.raises(RuntimeError):
            finite_diff_check(f, [theta])
        assert state["calls"] == 6
        assert theta.data.tobytes() == original.tobytes()


def _projection(rng, shape):
    return Tensor(rng.normal(size=shape))


def _projections(rng, d):
    """The four (d, d) projections of an attention: query, key, value, output."""
    return [_projection(rng, (d, d)) for _ in range(4)]


def _log_prob_sum(p, cells, mask=None):
    """Sum of w * log P[i, j] over ``cells`` of (i, j, w), where P is the row softmax
    of rank-2 ``p`` without the ``mask`` cells: one ``cross_entropy`` per cell, over
    row i alone with target j, whose loss is -log P[i, j]."""
    k, total = p.shape[1], None
    for i, j, w in cells:
        row_mask = None if mask is None else mask[i : i + 1]
        term = ops.scale(T.cross_entropy(T.reshape(T.gather(p, i), (1, k)), row_mask, [j])[0], -w)
        total = term if total is None else ops.add(total, term)
    return total


def _encoder_pass(p, rng, first_row_only):
    """The encoder pass, one record, over two padded sequences at d_model 4, L = 5,
    two layers of two heads, with ``p`` as the token table and every other parameter
    drawn from ``rng``: p's adjoint runs through every block's VJP."""
    config = EncoderConfig(vocab_size=8, d_model=4, n_layers=2, n_heads=2, d_ff=6, max_seq_len=5)
    tables = iter([p])
    params = encoder_params(config, lambda *shape: next(tables, None) or _projection(rng, shape))
    encoder = ops.encode_first_rows if first_row_only else encode_batch
    encoded, _ = encoder(params, [[4, 5, 6], [7]])
    return T.mul(encoded, _projection(rng, encoded.shape))


def _side_model(p, rng):
    """A model of two-layer, two-head encoders and a two-head fusion at d_model 4 over
    words "w" to "z" (ids 4 to 7), with ``p`` as both token tables and every other
    parameter drawn from ``rng``: a code-row op's gradient reaches p through its pass."""
    config = EncoderConfig(vocab_size=8, d_model=4, n_layers=2, n_heads=2, d_ff=6, max_seq_len=5)

    def cut(*shape):
        return p if shape == p.shape else _projection(rng, shape)

    context, gloss = encoder_params(config, cut), encoder_params(config, cut)
    fusion = fusion_params(FusionConfig(d_model=4, poly_m=1, n_heads=2), cut)
    vocab = Vocab.from_tokens(["w", "x", "y", "z"])
    return WsdModel(vocab, context, gloss, fusion, np.empty(0), np.empty(0))


# ids [4, 5, 6] with target 1 and [7] with target 0 in _side_model's vocabulary
_SIDE_CONTEXTS = [
    CorpusInstance(id="a", tokens=["w", "x", "y"], target_index=1, lemma="x", pos="NOUN"),
    CorpusInstance(id="b", tokens=["z"], target_index=0, lemma="z", pos="NOUN"),
]


def _bare_layer_norm(x):
    """``layer_norm`` with unit gain and zero bias: the normalization alone."""
    d = x.shape[-1]
    return ops.layer_norm(x, Tensor(np.ones(d)), Tensor(np.zeros(d)))


# one row per tape op: (name, scalar-valued function of the leaf p, shape of p)
_OP_TABLE = [
    ("matmul_left", lambda p, rng: ops.matmul(p, _projection(rng, (4, 3))), (3, 4)),
    ("matmul_right", lambda p, rng: ops.matmul(_projection(rng, (3, 4)), p), (4, 3)),
    ("transpose", lambda p, rng: T.mul(ops.transpose(p), _projection(rng, (4, 3))), (3, 4)),
    ("add", lambda p, rng: ops.add(p, _projection(rng, (3, 4))), (3, 4)),
    ("add_bias", lambda p, rng: ops.add(_projection(rng, (3, 4)), p), (4,)),
    # the batched encoder's residual add and FFN activation at rank 3, in rows 5 and 6
    # so that every later row keeps its generated id (shape<N> counts rows)
    ("add_batched", lambda p, rng: ops.add(p, _projection(rng, (2, 3, 4))), (2, 3, 4)),
    ("gelu_batched", lambda p, rng: T.mul(ops.gelu(p), _projection(rng, (2, 3, 4))), (2, 3, 4)),
    ("mul", lambda p, rng: T.mul(p, _projection(rng, (3, 4))), (3, 4)),
    # the mul_gain rows pass p as both gain and bias of layer_norm, checking both adjoints
    (
        "mul_gain",
        lambda p, rng: T.mul(
            ops.layer_norm(_projection(rng, (3, 4)), p, p), _projection(rng, (3, 4))
        ),
        (4,),
    ),
    ("scale", lambda p, rng: ops.scale(p, -1.7), (3, 4)),
    # rows named after ops since folded into cross_entropy keep their ids: neg and
    # mean_all check the same maps through scale and sum_all, and row_log_softmax
    # weighs every cell's log-probability, each taken through cross_entropy
    ("neg", lambda p, rng: ops.scale(p, -1.0), (3, 4)),
    ("row_softmax", lambda p, rng: T.mul(ops.row_softmax(p), _projection(rng, (3, 4))), (3, 4)),
    (
        "row_log_softmax",
        lambda p, rng: _log_prob_sum(
            p, [(i, j, w) for (i, j), w in np.ndenumerate(_projection(rng, (3, 4)).data)]
        ),
        (3, 4),
    ),
    (
        "layer_norm",
        lambda p, rng: T.mul(
            ops.layer_norm(p, _projection(rng, (4,)), _projection(rng, (4,))),
            _projection(rng, (3, 4)),
        ),
        (3, 4),
    ),
    ("gelu", lambda p, rng: T.mul(ops.gelu(p), _projection(rng, (3, 4))), (3, 4)),
    ("embed", lambda p, rng: T.mul(ops.embed(p, [0, 2, 2, 1]), _projection(rng, (4, 3))), (3, 3)),
    # row, pick, pick_rows_batched and first_row are named after the ops that gather
    # replaced, so each keeps its seed and slot; each takes the index its op took
    ("row", lambda p, rng: T.mul(T.gather(p, 1), _projection(rng, (4,))), (3, 4)),
    (
        "concat_rows",
        lambda p, rng: T.mul(
            T.concat([p, _projection(rng, (2, 4))]), _projection(rng, (5, 4))
        ),
        (3, 4),
    ),
    # the regroup rows fold 2 heads into the batch axis (split) and back (merge),
    # rank 2 for one sequence and rank 3 for a batch of two; the split rows sit
    # in the slots of two deleted concat rows, so every later row keeps its id
    (
        "regroup_split",
        lambda p, rng: T.mul(
            ops.regroup(p, (3, 2, 2), (1, 0, 2), (2, 3, 2)), _projection(rng, (2, 3, 2))
        ),
        (3, 4),
    ),
    (
        "row_softmax_masked",
        lambda p, rng: T.mul(
            ops.row_softmax(p, mask=np.eye(3, 4, k=1, dtype=bool)), _projection(rng, (3, 4))
        ),
        (3, 4),
    ),
    (
        "pick",
        lambda p, rng: T.mul(T.gather(p, (np.arange(4), [3, 0, 0, 2])), _projection(rng, (4,))),
        (4, 4),
    ),
    ("mul_reused", lambda p, rng: T.mul(T.mul(p, p), _projection(rng, (3, 4))), (3, 4)),
    ("reshape", lambda p, rng: T.mul(T.reshape(p, (2, 6)), _projection(rng, (2, 6))), (3, 4)),
    ("mean_all", lambda p, rng: ops.scale(T.sum_all(p), 3.3 / 12), (3, 4)),
    (
        "matmul_batched_left",
        lambda p, rng: ops.matmul(p, _projection(rng, (2, 4, 3))),
        (2, 3, 4),
    ),
    (
        "matmul_batched_right",
        lambda p, rng: ops.matmul(_projection(rng, (2, 3, 4)), p),
        (2, 4, 3),
    ),
    ("matmul_shared_left", lambda p, rng: ops.matmul(p, _projection(rng, (4, 3))), (2, 3, 4)),
    ("matmul_shared_right", lambda p, rng: ops.matmul(_projection(rng, (2, 3, 4)), p), (4, 3)),
    (
        "transpose_batched",
        lambda p, rng: T.mul(ops.transpose(p), _projection(rng, (2, 4, 3))),
        (2, 3, 4),
    ),
    ("add_bias_batched", lambda p, rng: ops.add(_projection(rng, (2, 3, 4)), p), (4,)),
    (
        "mul_gain_batched",
        lambda p, rng: T.mul(
            ops.layer_norm(_projection(rng, (2, 3, 4)), p, p), _projection(rng, (2, 3, 4))
        ),
        (4,),
    ),
    (
        "row_softmax_masked_batched",
        lambda p, rng: T.mul(
            ops.row_softmax(p, mask=_KEY_PADDING), _projection(rng, (2, 3, 4))
        ),
        (2, 3, 4),
    ),
    (
        "layer_norm_batched",
        lambda p, rng: T.mul(
            ops.layer_norm(p, _projection(rng, (4,)), _projection(rng, (4,))),
            _projection(rng, (2, 3, 4)),
        ),
        (2, 3, 4),
    ),
    (
        "embed_batched",
        lambda p, rng: T.mul(ops.embed(p, [[0, 2, 2], [1, 0, 2]]), _projection(rng, (2, 3, 4))),
        (3, 4),
    ),
    (
        "regroup_split_batched",
        lambda p, rng: T.mul(
            ops.regroup(p, (2, 3, 2, 2), (0, 2, 1, 3), (4, 3, 2)), _projection(rng, (4, 3, 2))
        ),
        (2, 3, 4),
    ),
    (
        "pick_rows_batched",
        lambda p, rng: T.mul(T.gather(p, (np.arange(2), [2, 0])), _projection(rng, (2, 4))),
        (2, 3, 4),
    ),
    (
        "regroup_merge",
        lambda p, rng: T.mul(
            ops.regroup(p, (2, 3, 2), (1, 0, 2), (3, 4)), _projection(rng, (3, 4))
        ),
        (2, 3, 2),
    ),
    (
        "regroup_merge_batched",
        lambda p, rng: T.mul(
            ops.regroup(p, (2, 2, 3, 2), (0, 2, 1, 3), (2, 3, 4)), _projection(rng, (2, 3, 4))
        ),
        (4, 3, 2),
    ),
    (
        "first_row",
        lambda p, rng: T.mul(T.gather(p, np.s_[:, :1]), _projection(rng, (2, 1, 4))),
        (2, 3, 4),
    ),
    # a one-row left operand: the right operand's adjoint is a one-term contraction
    ("matmul_one_row_right", lambda p, rng: ops.matmul(_projection(rng, (1, 3)), p), (3, 4)),
    (
        "matmul_one_row_batched_right",
        lambda p, rng: ops.matmul(_projection(rng, (2, 1, 3)), p),
        (2, 3, 4),
    ),
    # the training loss: a masked score matrix with one target cell per row
    (
        "cross_entropy",
        lambda p, rng: ops.scale(
            T.cross_entropy(p, np.eye(3, 5, k=1, dtype=bool), [0, 4, 1])[0], 2.3
        ),
        (3, 5),
    ),
    # the fused attention of a padded batch: self-attention, where p is queries and
    # context at once, and one query per item, as the fusion asks, over padded keys
    (
        "attention_self",
        lambda p, rng: T.mul(
            T.attention(p, p, *_projections(rng, 4), 2, _KEY_PADDING[:, 0, 1:]),
            _projection(rng, (2, 3, 4)),
        ),
        (2, 3, 4),
    ),
    (
        "attention_one_query",
        lambda p, rng: T.mul(
            T.attention(
                p, _projection(rng, (2, 4, 4)), *_projections(rng, 4), 2, _KEY_PADDING[:, 0]
            ),
            _projection(rng, (2, 1, 4)),
        ),
        (2, 1, 4),
    ),
    # an unpadded batch, as every prediction's batch of one is: no key is masked
    (
        "attention_unpadded",
        lambda p, rng: T.mul(
            T.attention(p, p, *_projections(rng, 4), 2, np.zeros((2, 3), dtype=bool)),
            _projection(rng, (2, 3, 4)),
        ),
        (2, 3, 4),
    ),
    # the encoder pass as one record, all rows and the gloss side's start-marker rows
    ("encoder_pass", lambda p, rng: _encoder_pass(p, rng, False), (8, 4)),
    ("encoder_pass_first_row", lambda p, rng: _encoder_pass(p, rng, True), (8, 4)),
    # each code side as one record: a padded batch of two contexts or two glosses
    (
        "context_code_rows",
        lambda p, rng: T.mul(
            context_code_rows(_side_model(p, rng), _SIDE_CONTEXTS),
            _projection(rng, (2, 4)),
        ),
        (8, 4),
    ),
    (
        "gloss_code_rows",
        lambda p, rng: T.mul(
            gloss_code_rows(_side_model(p, rng), [["w", "x", "y"], ["z"]]),
            _projection(rng, (2, 4)),
        ),
        (8, 4),
    ),
    # the score product as one record, on each operand: (3, 4) word rows, (5, 4) gloss rows
    (
        "score_rows_word",
        lambda p, rng: T.mul(score_rows(p, _projection(rng, (5, 4))), _projection(rng, (3, 5))),
        (3, 4),
    ),
    (
        "score_rows_gloss",
        lambda p, rng: T.mul(score_rows(_projection(rng, (3, 4)), p), _projection(rng, (3, 5))),
        (5, 4),
    ),
]


@pytest.mark.parametrize("name,fn,shape", _OP_TABLE)
def test_op_gradients_match_finite_differences(name, fn, shape):
    """Every differentiable op passes the central-difference check at h=1e-4."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params = Tensor(rng.normal(size=shape))

    def scalar_f():
        # Re-seeding per call freezes the projection tensors, keeping f deterministic.
        local = np.random.default_rng(1234)
        return T.sum_all(fn(params, local))

    err = finite_diff_check(scalar_f, [params], h=1e-4)
    assert err < 1e-4, f"{name}: rel error {err}"


def test_every_tape_op_has_an_op_table_row(monkeypatch):
    """Each function of the package that records onto the tape (calls ``T.record``)
    is run by some row of the op table, so a new op cannot go without a gradient
    check."""
    names = [m.name for m in pkgutil.iter_modules(polywsd.__path__)]
    modules = [importlib.import_module(f"polywsd.{name}") for name in names]
    ops = {
        (module.__name__, name) for module in modules for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        and "record" in fn.__code__.co_names
    }
    emitted, real_record = set(), T.record

    def spy(*args):
        caller = sys._getframe(1)
        emitted.add((caller.f_globals["__name__"], caller.f_code.co_name))
        return real_record(*args)

    monkeypatch.setattr(T, "record", spy)
    for name, fn, shape in _OP_TABLE:
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        fn(Tensor(rng.normal(size=shape)), np.random.default_rng(1234))
    assert ops and not ops - emitted, f"ops without an op-table row: {sorted(ops - emitted)}"


def test_masked_log_softmax_gradient():
    # One unmasked target cell per row, each row's log-probability at its own weight.
    rng = np.random.default_rng(99)
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 2] = mask[2, 0] = mask[3, 1] = True
    proj = Tensor(rng.normal(size=(4,)))
    p = Tensor(rng.normal(size=(4, 4)))

    def f():
        return _log_prob_sum(p, list(zip(range(4), [1, 3, 2, 0], proj.data)), mask)

    err = finite_diff_check(f, [p], h=1e-4)
    assert err < 1e-4


def test_forward_ops_keep_finite_values():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(scale=50.0, size=(4, 6)))
    for out in (
        ops.row_softmax(a),
        _bare_layer_norm(a),
        ops.gelu(a),
        ops.matmul(a, Tensor(rng.normal(size=(6, 2)))),
    ):
        assert np.all(np.isfinite(out.data))
    for j in range(6):  # every cell's log-probability, as a target
        total, per_row = T.cross_entropy(a, None, [j] * 4)
        assert np.isfinite(total.data) and np.all(np.isfinite(per_row))


class TestErf:
    """The numpy erf behind ``gelu``, against the C library's ``math.erf``."""

    def test_dense_grid_within_4e16_of_math_erf(self):
        grid = np.linspace(-8.0, 8.0, 200_001)
        reference = np.array([math.erf(x) for x in grid])
        assert np.abs(ops.erf(grid) - reference).max() <= 4e-16

    @pytest.mark.parametrize(
        "x", [0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 0.0), 6.0, -6.0, math.inf, -math.inf]
    )
    def test_special_points(self, x):
        got = float(ops.erf(np.array([x]))[0])
        assert abs(got - math.erf(x)) <= 4e-16
        assert math.copysign(1.0, got) == math.copysign(1.0, x)  # erf(-0) is -0

    def test_nan_stays_nan(self):
        assert np.isnan(ops.erf(np.array([np.nan, 0.5]))[0])

    def test_odd_exactly(self):
        x = np.random.default_rng(3).normal(scale=3.0, size=10_000)
        np.testing.assert_array_equal(ops.erf(-x), -ops.erf(x))


def test_package_loads_no_scipy():
    """``import polywsd`` and a forward through the model pull in no SciPy module."""
    code = (
        "import sys\n"
        "from polywsd.synthetic import synthetic_corpus\n"
        "from polywsd.data import build_vocab\n"
        "from polywsd.encoder import EncoderConfig\n"
        "from polywsd.fusion import FusionConfig\n"
        "from polywsd.model import build_model, context_codes\n"
        "corpus, inventory = synthetic_corpus(n_lemmas=2, senses_per_lemma=2, n_instances=2, seed=0)\n"
        "vocab = build_vocab(corpus, inventory, min_freq=1)\n"
        "enc = EncoderConfig(vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=12)\n"
        "model = build_model(enc, enc, FusionConfig(d_model=8, poly_m=1, n_heads=2), vocab, seed=0)\n"
        "context_codes(model, corpus[0].tokens, corpus[0].target_index)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert run_fresh(code) == "[]"


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap policy and the fault count are glibc's",
)
def test_backward_keeps_freed_pages_mapped():
    """Steady-state all-candidates steps fault in (almost) no fresh pages.

    8 items x 9 senses with 14-word glosses make each all-row gloss array
    72 x 16 x 16 floats (147 KB), above glibc's default 128 KB mmap threshold;
    with the defaults every step faults ~300-600 pages back in. The median
    step is asserted, because the heap still grows by a block (~35-40 faults)
    in an occasional step while its layout settles, at steps that depend on
    the interpreter's earlier allocations. A fresh process, so that no earlier
    test's allocations raised the thresholds."""
    code = (
        "import resource\n"
        "from polywsd.data import CorpusInstance, SenseEntry, SenseInventory, build_vocab\n"
        "from polywsd.encoder import EncoderConfig\n"
        "from polywsd.fusion import FusionConfig\n"
        "from polywsd.model import build_model\n"
        "from polywsd.training import Adam, Batch, train_all_candidates_step\n"
        "inventory, instances = SenseInventory(), []\n"
        "for i in range(8):\n"
        "    lemma = f'lemma{i}'\n"
        "    inventory.add(lemma, 'NOUN', [\n"
        "        SenseEntry(id=f'{lemma}%{k + 1}', gloss=[f'g{i}x{k}x{j}' for j in range(14)])\n"
        "        for k in range(9)\n"
        "    ])\n"
        "    instances.append(CorpusInstance(\n"
        "        id=f'i{i}', tokens=[f'c{i}x{j}' for j in range(30)], target_index=15,\n"
        "        lemma=lemma, pos='NOUN', gold=f'{lemma}%{i + 1}',\n"
        "    ))\n"
        "glosses = [inventory.gloss_of(x.lemma, x.pos, x.gold) for x in instances]\n"
        "batch = Batch(instances=instances, gold_glosses=glosses)\n"
        "vocab = build_vocab(instances, inventory, min_freq=1)\n"
        "enc = EncoderConfig(vocab_size=vocab.size, d_model=16, n_layers=1, n_heads=2, d_ff=32,\n"
        "                    max_seq_len=32)\n"
        "fusion = FusionConfig(d_model=16, poly_m=1, n_heads=2)\n"
        "model = build_model(enc, enc, fusion, vocab, seed=0)\n"
        "optimizer = Adam(model.parameters())\n"
        "for _ in range(3):\n"
        "    train_all_candidates_step(batch, inventory, model, optimizer)\n"
        "for _ in range(10):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    train_all_candidates_step(batch, inventory, model, optimizer)\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    faults = [int(n) for n in run_fresh(code).split()]
    assert statistics.median(faults) <= 10, f"minor faults per step: {faults}"


@pytest.mark.parametrize("failure", [OSError, AttributeError])
def test_heap_policy_is_quiet_without_mallopt(monkeypatch, failure):
    def no_mallopt(name):
        raise failure("mallopt not found")

    monkeypatch.setattr(ctypes, "CDLL", no_mallopt)
    assert T._keep_freed_pages.__wrapped__() is None


def test_gather_slice_keeps_the_axis():
    a = Tensor(np.arange(24.0).reshape(2, 3, 4))
    np.testing.assert_array_equal(T.gather(a, np.s_[:, :1]).data, a.data[:, :1])


def test_rank_limit_enforced():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2, 2)))


def test_grad_matches_data_length_when_present():
    x = Tensor(np.ones((2, 3)))
    tape = Tape()
    with tape:
        loss = T.sum_all(x)
    backward(loss, tape)
    assert x.grad.size == x.data.size


class TestRegroup:
    def test_heads_fold_into_the_batch_axis_and_back(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        split = ops.regroup(Tensor(x), (2, 3, 2, 2), (0, 2, 1, 3), (4, 3, 2))
        for i in range(2):
            for h in range(2):
                np.testing.assert_array_equal(split.data[2 * i + h], x[i, :, 2 * h : 2 * h + 2])
        merged = ops.regroup(split, (2, 2, 3, 2), (0, 2, 1, 3), (2, 3, 4))
        np.testing.assert_array_equal(merged.data, x)

    def test_one_sequence_splits_by_column_blocks(self):
        x = np.arange(12.0).reshape(3, 4)
        split = ops.regroup(Tensor(x), (3, 2, 2), (1, 0, 2), (2, 3, 2))
        np.testing.assert_array_equal(split.data, [x[:, :2], x[:, 2:]])

    @pytest.mark.parametrize(
        "grouped,axes,shape",
        [
            ((3, 2, 3), (1, 0, 2), (2, 3, 2)),  # grouped size differs
            ((3, 2, 2), (1, 0, 2), (2, 3, 3)),  # output size differs
            ((3, 2, 2), (1, 1, 2), (2, 3, 2)),  # axes are not a permutation
        ],
    )
    def test_bad_layout_rejected(self, grouped, axes, shape):
        with pytest.raises(ShapeError):
            ops.regroup(Tensor(np.ones((3, 4))), grouped, axes, shape)


def test_tapes_in_two_threads_record_separately():
    """Each thread's ops go onto the tape that thread opened, even while both are open."""
    barrier = threading.Barrier(2, timeout=30)
    results = {}

    def run(k):
        x = Tensor(np.full(3, k + 1.0))
        tape = Tape()
        with tape:
            barrier.wait()  # both tapes are open before either thread records
            loss = T.sum_all(T.mul(x, x))
            barrier.wait()  # both threads have recorded before either tape closes
        backward(loss, tape)
        results[k] = (len(tape), x.grad)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for k in range(2):
        records, grad = results[k]
        assert records == 2
        np.testing.assert_array_equal(grad, np.full(3, 2.0 * (k + 1)))


# ---------------------------------------------------------------------------
# Row kernels against their plain numpy forms
# ---------------------------------------------------------------------------

_EPS = np.finfo(np.float64).eps


def _row_tol(n):
    """BLAS row sums and numpy's pairwise sums differ by rounding alone: a few ulp
    per term of an n-wide row, on values of order one."""
    return 4 * n * _EPS


def _layer_norm_ref(x, g, eps=1e-5):
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / n
    var = ((x - mu) ** 2).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    y = (x - mu) * inv
    gm = g.sum(axis=-1, keepdims=True) / n
    gym = (g * y).sum(axis=-1, keepdims=True) / n
    return y, inv * (g - gm - y * gym)


def _softmax_ref(x, g, mask):
    x = np.where(mask, -np.inf, x)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return p, p * (g - (g * p).sum(axis=-1, keepdims=True))


def _forward_and_vjp(op, x, g, **kwargs):
    """The op's output on ``x`` and the adjoint of ``x`` from its recorded VJP of ``g``."""
    tape = Tape()
    with tape:
        out = op(Tensor(x), **kwargs)
    return out.data, tape._records[-1][2](g)[0]


def _key_mask(rng, shape):
    """A padded-key mask: True past a random length >= 1 in each row."""
    lengths = rng.integers(1, shape[-1] + 1, size=shape[:-1] + (1,))
    return np.arange(shape[-1]) >= lengths


_ROW_SHAPES = [(5, 16), (3, 7, 16), (73, 16, 16), (20, 13, 13), (4, 9, 33)]


class TestRowKernels:
    @pytest.mark.parametrize("shape", _ROW_SHAPES)
    def test_layer_norm_matches_pairwise_sum_reference(self, shape):
        rng = np.random.default_rng(shape[-1])
        x, g = rng.normal(scale=3.0, size=shape), rng.normal(size=shape)
        y, dx = _forward_and_vjp(_bare_layer_norm, x, g)
        y_ref, dx_ref = _layer_norm_ref(x, g)
        tol = _row_tol(shape[-1])
        np.testing.assert_allclose(y, y_ref, rtol=tol, atol=tol)
        np.testing.assert_allclose(dx, dx_ref, rtol=tol, atol=tol)

    @pytest.mark.parametrize("shape", _ROW_SHAPES)
    def test_row_softmax_matches_pairwise_sum_reference(self, shape):
        rng = np.random.default_rng(shape[-1])
        x, g = rng.normal(scale=3.0, size=shape), rng.normal(size=shape)
        mask = _key_mask(rng, shape)
        p, dx = _forward_and_vjp(ops.row_softmax, x, g, mask=mask)
        p_ref, dx_ref = _softmax_ref(x, g, mask)
        tol = _row_tol(shape[-1])
        np.testing.assert_allclose(p, p_ref, rtol=tol, atol=tol)
        np.testing.assert_allclose(dx, dx_ref, rtol=tol, atol=tol)
        assert np.all(p[mask] == 0.0) and np.all(dx[mask] == 0.0)

    @pytest.mark.parametrize("shape", [(73, 16, 16), (20, 1, 13), (4, 9, 33)])
    def test_rank3_row_max_is_exact(self, shape):
        rng = np.random.default_rng(7)
        x = rng.normal(size=shape)
        x[0, 0, -1] = np.nan
        mask = _key_mask(rng, shape)
        masked, mx, _, _ = T._masked_shift_exp(x, mask)
        np.testing.assert_array_equal(mx, masked.max(axis=-1, keepdims=True))
        assert np.isnan(mx[0, 0, 0]) == (not mask[0, 0, -1])

    @pytest.mark.parametrize("ids", [[3, 0, 3, 3, 1, 0, 3, 3], [[2, 2, 0, 2], [4, 2, 2, 2]]])
    def test_embed_gradient_is_bit_equal_to_add_at(self, ids):
        rng = np.random.default_rng(8)
        table = rng.normal(size=(5, 4))
        idx = np.asarray(ids)
        # terms of mixed magnitudes, so that any other summation order shows in the bits
        g = rng.normal(size=idx.shape + (4,)) * np.exp(rng.uniform(-20, 20, idx.shape + (4,)))
        _, dt = _forward_and_vjp(ops.embed, table, g, ids=ids)
        ref = np.zeros_like(table)
        np.add.at(ref, idx.ravel(), g.reshape(-1, 4))
        assert dt.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "op", [_bare_layer_norm, ops.row_softmax], ids=["layer_norm", "row_softmax"]
    )
    def test_results_do_not_depend_on_buffer_alignment(self, op):
        """Bit-exact resume needs the same bits wherever numpy puts the operands."""
        rng = np.random.default_rng(9)
        x, g = rng.normal(size=(6, 13, 13)), rng.normal(size=(6, 13, 13))

        def at_offset(values, offset):
            buffer = np.empty(values.size + 8)
            view = buffer[offset : offset + values.size].reshape(values.shape)
            view[...] = values
            return view

        runs = {
            offset: _forward_and_vjp(op, at_offset(x, offset), at_offset(g, offset))
            for offset in range(8)
        }
        out, dx = runs[0]
        for offset, (out_k, dx_k) in runs.items():
            assert out_k.tobytes() == out.tobytes(), offset
            assert dx_k.tobytes() == dx.tobytes(), offset


# three padded items over five keys: lengths 5, 2 and 3
_PADDING = np.arange(5) >= np.array([5, 2, 3])[:, None]


def _head_mask(key_mask, n_heads, n_q):
    """``key_mask`` (b, n) as one row per head and query, heads of item i first."""
    per_head = np.repeat(key_mask, n_heads, axis=0)
    return np.broadcast_to(per_head[:, None, :], (len(per_head), n_q, key_mask.shape[1]))


def _chain_attention(queries, context, weights, n_heads, key_mask):
    """The chain of 13 ops that ``attention`` replaced, run on the padded batch, its
    softmax masked as the fused op masks it: the fused op's bit-level oracle."""
    wq, wk, wv, wo = weights
    lead, n_q, n = queries.shape[:-2], queries.shape[-2], context.shape[-2]
    width, rows, r = wq.shape[1], math.prod(lead) * n_heads, len(lead)
    dh = width // n_heads
    # (..., n, h, dh) <-> (..., h, n, dh): each head of each item is one batch entry
    axes = tuple(range(r)) + (r + 1, r, r + 2)

    def split(x, length):
        return ops.regroup(x, lead + (length, n_heads, dh), axes, (rows, length, dh))

    q = split(ops.matmul(queries, wq), n_q)
    k = split(ops.matmul(context, wk), n)
    v = split(ops.matmul(context, wv), n)
    logits = ops.scale(ops.matmul(q, ops.transpose(k)), 1.0 / np.sqrt(dh))
    heads = ops.matmul(ops.row_softmax(logits, mask=_head_mask(key_mask, n_heads, n_q)), v)
    merged = ops.regroup(heads, lead + (n_heads, n_q, dh), axes, lead + (n_q, width))
    return ops.matmul(merged, wo)


def _attention_inputs(case, rng):
    """The leaves of one bit-equality case, and a function that builds the queries
    and the context from them, to be run on the tape."""
    x = Tensor(rng.normal(size=(3, 5, 4)))
    if case in ("self", "self_one_item"):  # a batch of one makes the head split a view
        x = x if case == "self" else Tensor(x.data[1:2])
        return [x], lambda: (x, x)
    if case == "first_row":  # the gloss pass's last layer: start-marker queries
        return [x], lambda: (T.gather(x, np.s_[:, :1]), x)
    target = Tensor(rng.normal(size=(3, 4)))  # the fusion: one target row per item
    return [target, x], lambda: (T.reshape(target, (3, 1, 4)), x)


class TestAttention:
    """``attention`` is the padded-batch op chain as one op."""

    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize(
        "case", ["self", "self_one_item", "first_row", "fusion_query", "fusion_unpadded"]
    )
    def test_bit_equal_to_the_op_chain_forward_and_adjoints(self, case, n_heads):
        rng = np.random.default_rng(11)
        leaves, inputs = _attention_inputs(case, rng)
        weights = [Tensor(rng.normal(size=(4, 4))) for _ in range(4)]
        padding = _PADDING[1:2] if case == "self_one_item" else _PADDING
        if case == "fusion_unpadded":  # nothing masked: the fused op skips its mask
            padding = np.zeros_like(_PADDING)
        n_q = 5 if case.startswith("self") else 1
        probe = Tensor(rng.normal(size=(len(padding), n_q, 4)))
        runs, lengths = [], []
        for attend in (
            lambda q, c: _chain_attention(q, c, weights, n_heads, padding),
            lambda q, c: T.attention(q, c, *weights, n_heads, padding),
        ):
            for leaf in leaves + weights:
                leaf.grad = None
            tape = Tape()
            with tape:
                out = attend(*inputs())
                loss = T.sum_all(T.mul(out, probe))
            backward(loss, tape)
            runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in leaves + weights])
            lengths.append(len(tape))
        chain, fused = runs
        assert lengths[1] == lengths[0] - 12  # the chain's 13 records are one
        assert fused == chain

    def test_padded_keys_get_exactly_zero_weight_and_gradient(self, monkeypatch):
        rng = np.random.default_rng(12)
        queries, context = Tensor(rng.normal(size=(3, 2, 4))), Tensor(rng.normal(size=(3, 5, 4)))
        weights = [Tensor(rng.normal(size=(4, 4))) for _ in range(4)]
        recorded = recorded_attention_weights(monkeypatch)
        tape = Tape()
        with tape:
            out = T.attention(queries, context, *weights, 2, _PADDING)
            loss = T.sum_all(T.mul(out, Tensor(rng.normal(size=out.shape))))
        backward(loss, tape)
        (w,) = recorded
        keys = _head_mask(_PADDING, 2, 2)
        assert w.shape == keys.shape
        assert np.all(w[keys] == 0.0) and np.all(w[~keys] > 0.0)
        assert np.all(context.grad[_PADDING] == 0.0) and np.all(context.grad[~_PADDING] != 0.0)
        context.data[_PADDING] += 5.0  # what padding holds changes no output
        again = T.attention(queries, context, *weights, 2, _PADDING)
        assert again.data.tobytes() == out.data.tobytes()

    def test_gradients_of_all_six_inputs_match_finite_differences(self):
        rng = np.random.default_rng(13)
        inputs = [Tensor(rng.normal(size=(3, 2, 4))), Tensor(rng.normal(size=(3, 5, 4)))]
        inputs += [Tensor(rng.normal(size=(4, 4))) for _ in range(4)]
        probe = Tensor(rng.normal(size=(3, 2, 4)))

        def f():
            return T.sum_all(T.mul(T.attention(*inputs, 2, _PADDING), probe))

        assert finite_diff_check(f, inputs, h=1e-4) < 1e-4

    def test_mismatched_shapes_rejected(self):
        x, w = Tensor(np.ones((3, 5, 4))), Tensor(np.eye(4))
        with pytest.raises(ShapeError):
            T.attention(x, x, w, w, w, w, 2, _PADDING[:, :4])
        with pytest.raises(ShapeError):
            T.attention(x, x, w, w, w, w, 3, _PADDING)
        with pytest.raises(ShapeError):
            T.attention(x, Tensor(np.ones((2, 5, 4))), w, w, w, w, 2, _PADDING)


# signed zeros, subnormals, both sides of erf's |x| = 1 and 6 switches, values whose
# squares overflow, infinities and NaN
_SPECIAL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e-200, -1e-8, 0.5,
    -0.9999999999999999, 1.0, -1.0, 1.0000000000000002, 3.7, -5.999999999999999, 6.0,
    -6.000000000000001, 8.5, -40.0, 1e154, -1e160, 1e300, -1.7976931348623157e308,
    np.inf, -np.inf, np.nan,
])
_GRID = np.concatenate([_SPECIAL, np.linspace(-9.0, 9.0, 1801)])


def _bits(*arrays) -> list[bytes]:
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


class TestConstantOperandsAndPositionAdjoint:
    """The kernels' 0-d constants and the position adjoint have the bits of the
    expressions they replace."""

    def test_gelu_is_bit_equal_to_its_float_literal_form(self):
        x = _GRID.reshape(1, -1, 1)
        g = np.random.default_rng(15).permutation(_GRID).reshape(x.shape)
        with np.errstate(all="ignore"):
            out, vjp = T.gelu_kernel(x)
            want, want_vjp = ops.literal_gelu_kernel(x)
            assert _bits(out, *vjp(g)) == _bits(want, *want_vjp(g))
            assert _bits(T._erf(x, x * x, np.exp(-x * x))) == _bits(
                ops.literal_erf(x, x * x, np.exp(-x * x))
            )

    @pytest.mark.parametrize("d", [1, 8, 13])
    def test_layer_norm_is_bit_equal_to_its_float_literal_form(self, d):
        rng = np.random.default_rng(d)
        grid = np.concatenate([rng.permutation(_GRID), rng.normal(size=-len(_GRID) % (2 * d))])
        # rows that hold grid values, then rows of finite draws alone
        x = np.concatenate([grid, rng.normal(scale=3.0, size=16 * d)]).reshape(-1, 2, d)
        g = rng.permutation(x.ravel()).reshape(x.shape)
        gain, bias = rng.choice(_SPECIAL, size=d), rng.choice(_SPECIAL, size=d)
        with np.errstate(all="ignore"):
            out, vjp = T.layer_norm_kernel(x, gain, bias)
            want, want_vjp = ops.literal_layer_norm_kernel(x, gain, bias)
            assert _bits(out, *vjp(g)) == _bits(want, *want_vjp(g))

    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("rows", [5, 9])
    def test_position_adjoint_is_bit_equal_to_embed_vjp(self, b, rows):
        rng = np.random.default_rng(17)
        g = rng.normal(size=(b, 5, 4)) * np.exp(rng.uniform(-20, 20, (b, 5, 4)))
        g[:, 0] = -0.0  # every term -0.0: the sum from +0.0 is +0.0
        g[0, 1, :2] = -0.0  # one -0.0 term among others
        g[b - 1, 3:] = 0.0  # the last item padded past its third position
        positions = np.broadcast_to(np.arange(5), (b, 5))
        got = T.position_vjp(rows, g)
        assert got.tobytes() == T.embed_vjp((rows, 4), positions, g).tobytes()
        assert not np.signbit(got[0]).any() and not np.signbit(got[5:]).any()
        assert not got[5:].any()


class _OperandSpy(np.ndarray):
    """An array that records the type of every input of each ufunc call it takes part
    in; what those calls and numpy's functions return from it are spies too."""

    seen: list[type] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _OperandSpy.seen += [type(i) for i in inputs]

        def plain(a):
            return a.view(np.ndarray) if isinstance(a, _OperandSpy) else a

        if "out" in kwargs:
            kwargs["out"] = tuple(map(plain, kwargs["out"]))
        result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        return result.view(_OperandSpy) if isinstance(result, np.ndarray) else result

    def __array_function__(self, func, types, args, kwargs):
        result = super().__array_function__(func, types, args, kwargs)
        return result.view(_OperandSpy) if type(result) is np.ndarray else result


def _spied_kernels(rng):
    def spy(*shape):
        return rng.normal(scale=2.0, size=shape).view(_OperandSpy)

    def gelu():
        _, vjp = T.gelu_kernel(spy(2, 3, 4))
        vjp(spy(2, 3, 4))

    def layer_norm():
        _, vjp = T.layer_norm_kernel(spy(2, 3, 4), spy(4), spy(4))
        vjp(spy(2, 3, 4))

    def erf():
        x = spy(2, 3, 4)
        T._erf(x, x * x, np.exp(-x * x))

    return {"gelu": gelu, "layer_norm": layer_norm, "erf": erf}


@pytest.mark.parametrize("kernel", ["gelu", "layer_norm", "erf"])
def test_kernels_pass_numpy_no_python_float(kernel):
    """numpy 2 converts a Python float operand on every ufunc call (NEP 50); a 0-d
    float64 array costs less. Every operand is an array, forward and VJP."""
    run = _spied_kernels(np.random.default_rng(18))[kernel]
    _OperandSpy.seen = []
    run()
    seen, _OperandSpy.seen = _OperandSpy.seen, []
    assert len(seen) > 10
    assert [t for t in seen if not issubclass(t, np.ndarray)] == []
