"""Attention fusion: code rows, multi-head attention, scoring."""

import numpy as np
import pytest

from polywsd import tensor as T
from polywsd.data import Vocab
from polywsd.encoder import EncoderConfig, cls_representation, encode_batch
from polywsd.errors import ShapeError
from polywsd.fusion import FusionConfig, fuse_context, fuse_gloss, score_pair, score_rows
from polywsd.model import (
    _gloss_ids,
    _window_code_rows,
    build_model,
    context_codes,
    gloss_code_rows,
    gloss_codes,
    randomize_parameters,
)
from polywsd.synthetic import synthetic_corpus
from polywsd.tensor import Tape, Tensor, backward, finite_diff_check

import ops
from conftest import fresh_fusion, tiny_model
from ops import target_representation


class TestCodeRows:
    def test_gloss_code_is_cls_row(self):
        out = fuse_gloss(Tensor([1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_word_and_gloss_sides_share_shape(self):
        config = FusionConfig(d_model=6, poly_m=4, n_heads=2)
        params = fresh_fusion(config, np.random.default_rng(0))
        encoded, target = Tensor(np.ones((1, 3, 6))), Tensor(np.zeros((1, 6)))
        word = fuse_context(encoded, target, params, _unpadded(3))
        gloss = fuse_gloss(Tensor(np.ones(6)))
        assert word.shape == gloss.shape == (1, 6)

    def test_poly_m_has_no_effect(self):
        """Same seed at every poly_m: bit-identical word codes, gloss codes and scores."""
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=6, seed=4)
        outputs = []
        for poly_m in (1, 2, 3, 5):
            model = tiny_model(corpus, inventory, seed=3, poly_m=poly_m)
            parts = []
            for inst in corpus:
                word = context_codes(model, inst.tokens, inst.target_index)
                parts.append(word.data.tobytes())
                for sense in inventory.candidates(inst.lemma, inst.pos):
                    gloss = gloss_codes(model, sense.gloss)
                    parts.append(gloss.data.tobytes())
                    parts.append(score_pair(word, gloss).data.tobytes())
            outputs.append(parts)
        assert all(out == outputs[0] for out in outputs[1:])


def _projections(d_model, d_k, rng):
    return [Tensor(rng.normal(size=(d_model, d_k))) for _ in range(3)]


def _unpadded(n):
    """The key mask of a batch of one n-row context: nothing masked."""
    return np.zeros((1, n), dtype=bool)


def _attend(queries, context, wq, wk, wv, wo, n_heads):
    """``T.attention`` of (n_q, d) queries over (n, d) context rows as a batch of one,
    its batch axis removed: (n_q, width)."""
    q, c = (T.reshape(t, (1,) + t.shape) for t in (queries, context))
    out = T.attention(q, c, wq, wk, wv, wo, n_heads, _unpadded(context.shape[0]))
    return T.reshape(out, out.shape[1:])


def _one_head(queries, context, wq, wk, wv):
    """A single head with an identity output projection: the head's own output."""
    return _attend(queries, context, wq, wk, wv, Tensor(np.eye(wv.shape[1])), 1)


class TestAttentionHead:
    def test_single_context_row_broadcasts_projected_value(self):
        rng = np.random.default_rng(0)
        wq, wk, wv = _projections(4, 2, rng)
        context = Tensor(rng.normal(size=(1, 4)))
        queries = Tensor(rng.normal(size=(3, 4)))
        out = _one_head(queries, context, wq, wk, wv)
        expected = context.data @ wv.data  # weight over one key is exactly 1
        np.testing.assert_allclose(out.data, np.tile(expected, (3, 1)), atol=1e-12)

    def test_zero_query_projection_means_uniform_weights(self):
        rng = np.random.default_rng(1)
        wq, wk, wv = _projections(4, 2, rng)
        wq.data[...] = 0.0
        context = Tensor(rng.normal(size=(5, 4)))
        queries = Tensor(rng.normal(size=(2, 4)))
        out = _one_head(queries, context, wq, wk, wv)
        expected = np.tile((context.data @ wv.data).mean(axis=0), (2, 1))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_weight_rows_sum_to_one_under_query_scaling(self):
        rng = np.random.default_rng(2)
        wq, wk, _ = _projections(4, 2, rng)
        context = Tensor(rng.normal(size=(5, 4)))
        queries = Tensor(rng.normal(size=(2, 4)))
        for q in (queries, ops.scale(queries, 2.0)):
            logits = ops.scale(
                ops.matmul(ops.matmul(q, wq), ops.transpose(ops.matmul(context, wk))),
                1.0 / np.sqrt(2),
            )
            sums = ops.row_softmax(logits).data.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_mismatched_projection_rejected(self):
        rng = np.random.default_rng(3)
        wq, wk, wv = _projections(6, 2, rng)
        context = Tensor(rng.normal(size=(4, 4)))
        with pytest.raises(ShapeError):
            _one_head(Tensor(rng.normal(size=(2, 4))), context, wq, wk, wv)


class TestFuseHeads:
    """Head outputs sit side by side along the feature axis, then are projected."""

    def _single_key(self, values):
        # one context row: every head attends to it with weight 1, so head h
        # outputs the context row times column block h of wv
        return Tensor(np.ones((2, len(values)))), Tensor([values])

    def test_identity_projection_single_head(self):
        queries, context = self._single_key([1.0, 2.0])
        eye = Tensor(np.eye(2))
        out = _attend(queries, context, eye, eye, eye, eye, 1)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [1.0, 2.0]])

    def test_zero_projection(self):
        queries, context = self._single_key([1.0, 2.0])
        eye = Tensor(np.eye(2))
        out = _attend(queries, context, eye, eye, eye, Tensor(np.zeros((2, 2))), 1)
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_hand_concat_two_heads(self):
        queries, context = self._single_key([3.0, 4.0])
        # head 0 reads feature 1 and head 1 feature 0: the value blocks are swapped
        eye, swap = Tensor(np.eye(2)), Tensor([[0.0, 1.0], [1.0, 0.0]])
        out = _attend(queries, context, eye, eye, swap, eye, 2)
        np.testing.assert_array_equal(out.data, [[4.0, 3.0], [4.0, 3.0]])

    def test_wrong_head_count_rejected(self):
        queries, context = self._single_key([1.0, 2.0])
        eye = Tensor(np.eye(2))  # one head of width 2, projection wants 4
        with pytest.raises(ShapeError):
            _attend(queries, context, eye, eye, eye, Tensor(np.eye(4)), 1)


class TestScorePair:
    def test_hand_case(self):
        # [1, -2] . [2, 3] = 2 - 6
        word = Tensor([[1.0, -2.0]])
        gloss = fuse_gloss(Tensor([2.0, 3.0]))
        assert score_pair(word, gloss).item() == pytest.approx(-4.0, abs=1e-12)

    def test_zero_side(self):
        word = Tensor(np.zeros((1, 3)))
        gloss = Tensor(np.ones((1, 3)))
        assert score_pair(word, gloss).item() == 0.0

    def test_single_code_reduces_to_dot_product(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=4), rng.normal(size=4)
        got = score_pair(Tensor(a[None, :]), Tensor(b[None, :])).item()
        assert got == pytest.approx(float(a @ b), abs=1e-12)

    def test_linear_in_gloss(self):
        rng = np.random.default_rng(5)
        word = Tensor(rng.normal(size=(1, 4)))
        g1, g2 = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        a, b = 0.7, -1.3
        combined = score_pair(word, Tensor(a * g1 + b * g2)).item()
        split = a * score_pair(word, Tensor(g1)).item() + b * score_pair(word, Tensor(g2)).item()
        assert combined == pytest.approx(split, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            score_pair(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 2))))


class TestScoreRows:
    """The all-pairs score product is one record with the bits of the chain it
    replaced, ``matmul(word, transpose(gloss))``: its scores and both adjoints."""

    # at width 16, multiplying by the strided transpose moves the scores' bits at
    # (3, 10) and both sides' at (1, 8) on OpenBLAS; (5, 1) is a one-gloss column
    @pytest.mark.parametrize("b,n", [(3, 10), (1, 8), (5, 1)])
    def test_bit_equal_to_the_matmul_of_the_transpose(self, b, n):
        rng = np.random.default_rng(b * 100 + n)
        word, gloss, weights = (rng.normal(size=shape) for shape in ((b, 16), (n, 16), (b, n)))
        runs = []
        for product in (score_rows, lambda w, g: ops.matmul(w, ops.transpose(g))):
            w, g = Tensor(word), Tensor(gloss)
            tape = Tape()
            with tape:
                scores = product(w, g)
                loss = T.sum_all(T.mul(scores, Tensor(weights)))
            backward(loss, tape)
            runs.append([scores.data.tobytes(), w.grad.tobytes(), g.grad.tobytes()])
        fused, chain = runs
        assert fused == chain

    @pytest.mark.parametrize("shapes", [((2, 3), (2, 4)), ((3,), (2, 3))])
    def test_shape_mismatch_names_both_shapes(self, shapes):
        with pytest.raises(ShapeError) as err:
            score_rows(*(Tensor(np.ones(shape)) for shape in shapes))
        assert all(str(shape) in str(err.value) for shape in shapes)


class TestFullFusion:
    def test_single_code_path_matches_hand_oracle(self):
        """The fusion is single-query attention followed by the output projection."""
        config = FusionConfig(d_model=6, poly_m=1, n_heads=2)
        rng = np.random.default_rng(6)
        params = fresh_fusion(config, rng)
        encoded = Tensor(rng.normal(size=(1, 5, 6)))
        target = Tensor(rng.normal(size=(1, 6)))

        got = fuse_context(encoded, target, params, _unpadded(5))

        # independent single-query oracle in plain numpy
        pieces = []
        for h in range(config.n_heads):
            block = slice(h * config.head_dim, (h + 1) * config.head_dim)
            q = target.data @ params.wq.data[:, block]
            k = encoded.data[0] @ params.wk.data[:, block]
            v = encoded.data[0] @ params.wv.data[:, block]
            logits = (q @ k.T) / np.sqrt(config.head_dim)
            e = np.exp(logits - logits.max())
            pieces.append((e / e.sum()) @ v)
        expected = np.concatenate(pieces, axis=1) @ params.w_o.data
        assert got.shape == (1, 6)
        np.testing.assert_allclose(got.data, expected, atol=1e-9)

        gloss = fuse_gloss(Tensor(rng.normal(size=config.d_model)))
        want = float(got.data[0] @ gloss.data[0])
        assert score_pair(got, gloss).item() == pytest.approx(want, abs=1e-9)

    def test_score_gradient_through_fusion(self):
        config = FusionConfig(d_model=4, poly_m=2, n_heads=2)
        rng = np.random.default_rng(7)
        params = fresh_fusion(config, rng)
        encoded = rng.normal(size=(1, 4, 4))
        target = rng.normal(size=(1, 4))
        gloss_vec = rng.normal(size=4)

        def f():
            codes = fuse_context(Tensor(encoded), Tensor(target), params, _unpadded(4))
            return score_pair(codes, fuse_gloss(Tensor(gloss_vec)))

        err = finite_diff_check(f, [t for _, t in params.named_tensors()], h=1e-4)
        assert err < 1e-4, f"rel error {err}"


def _chain_context_rows(model, windows):
    """The context code rows as the op chain they are one record of."""
    encoded, padding = encode_batch(model.context, [ids for ids, _ in windows])
    targets = target_representation(encoded, [target for _, target in windows], padding)
    return fuse_context(encoded, targets, model.fusion, padding)


def _chain_gloss_rows(model, glosses):
    """The gloss code rows as the op chain they are one record of."""
    ids = [_gloss_ids(model, g) for g in glosses]
    encoded, _ = ops.encode_first_rows(model.gloss, ids)
    return fuse_gloss(cls_representation(encoded))


_WORDS = ["a", "b", "c", "d", "e", "f", "g", "h"]  # ids 4 to 11


class TestCodeRowOps:
    """Each code side is one tape record with the bits of the op chain it replaces:
    its rows and every parameter's gradient, scored as training scores them (the
    gloss side through the transposed score matrix, whose adjoint is strided)."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("side", ["context", "gloss"])
    @pytest.mark.parametrize("padded", [True, False], ids=["padded", "unpadded"])
    def test_bit_equal_to_the_op_chain_rows_and_gradients(self, n_layers, n_heads, side, padded):
        encoder = EncoderConfig(
            vocab_size=12, d_model=8, n_layers=n_layers, n_heads=n_heads, d_ff=12, max_seq_len=7
        )
        fusion = FusionConfig(d_model=8, poly_m=1, n_heads=n_heads)
        model = build_model(encoder, encoder, fusion, Vocab.from_tokens(_WORDS), seed=0)
        randomize_parameters(model, seed=1, scale=0.5)
        if side == "context":
            windows = [([4, 5, 6], 1), ([7], 0), ([8, 9], 1)]
            items = windows if padded else [([4, 5, 6], 2), ([7, 8, 9], 0)]
            code_rows = [_chain_context_rows, _window_code_rows]
        else:
            glosses = [["a", "b", "c"], ["d"], ["e", "f"]]
            items = glosses if padded else [["a", "b", "c"], ["d", "e", "f"]]
            code_rows = [_chain_gloss_rows, gloss_code_rows]
        rng = np.random.default_rng(2)
        other = Tensor(rng.normal(size=(4, 8)))
        weights = Tensor(rng.normal(size=(len(items), 4)))
        runs, lengths = [], []
        for make_rows in code_rows:
            for tensor in model.parameters():
                tensor.grad = None
            tape = Tape()
            with tape:
                rows = make_rows(model, items)
                start = len(tape)
                if side == "context":
                    scores = score_rows(rows, other)
                else:
                    scores = ops.transpose(score_rows(other, rows))
                loss = T.sum_all(T.mul(scores, weights))
            backward(loss, tape)
            grads = [None if t.grad is None else t.grad.tobytes() for t in model.parameters()]
            runs.append([rows.data.tobytes(), *grads])
            lengths.append(start)
        chain, fused = runs
        assert lengths[1] == 1
        assert fused == chain
