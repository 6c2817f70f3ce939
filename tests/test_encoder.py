"""Miniature encoder: marker convention, determinism, gradient separation."""

import cProfile
import os
import pstats

import numpy as np
import pytest

import polywsd.encoder
import polywsd.model
from polywsd import tensor as T
from polywsd.data import CLS_ID, PAD_ID, SEP_ID
from polywsd.encoder import EncoderConfig, cls_representation, encode, encode_batch
from polywsd.errors import ConfigError, ContractError
from polywsd.fusion import FusionConfig
from polywsd.synthetic import synthetic_corpus
from polywsd.tensor import Tape, Tensor, backward

import ops
from conftest import fresh_encoder, recorded_attention_weights, tiny_model
from ops import target_representation


CONFIG = EncoderConfig(vocab_size=20, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=10)


@pytest.fixture
def params():
    return fresh_encoder(CONFIG, np.random.default_rng(0))


def _zeroed(config):
    params = fresh_encoder(config, np.random.default_rng(0))
    for _, tensor in params.named_tensors():
        tensor.data[...] = 0.0
    return params


def _one_target(params, ids, index):
    """A batch of one: its (1, n + 2, d) encoding and its target row, (1, d)."""
    encoded, padding = encode_batch(params, [ids])
    return encoded, target_representation(encoded, [index], padding)


class TestEncode:
    def test_three_tokens_give_five_rows(self, params):
        out = encode(params, [4, 5, 6])
        assert out.shape == (5, CONFIG.d_model)

    def test_deterministic(self, params):
        a = encode(params, [4, 5, 6])
        b = encode(params, [4, 5, 6])
        assert a.data.tobytes() == b.data.tobytes()

    def test_zero_params_collapse_rows(self):
        out = encode(_zeroed(CONFIG), [4, 5, 6, 7])
        assert np.all(np.isfinite(out.data))
        np.testing.assert_array_equal(out.data, np.tile(out.data[0], (6, 1)))

    def test_length_stability(self, params):
        for n in range(1, CONFIG.max_seq_len - 1):
            out = encode(params, list(range(4, 4 + n)))
            assert out.shape[0] == n + 2

    def test_overlength_rejected_not_truncated(self, params):
        with pytest.raises(ContractError):
            encode(params, list(range(CONFIG.max_seq_len - 1)))

    def test_bad_id_rejected(self, params):
        with pytest.raises(ContractError):
            encode(params, [4, CONFIG.vocab_size])

    def test_permuting_context_changes_target_representation(self, params):
        # seed-pinned probabilistic check: self-attention mixes context
        _, base = _one_target(params, [4, 5, 6, 7, 8], 0)
        _, swapped = _one_target(params, [4, 5, 7, 6, 8], 0)
        assert np.abs(base.data - swapped.data).max() > 1e-9


class TestEncodeBatch:
    SEQUENCES = [[4], [5, 6, 7, 8, 9, 4, 5, 6], [7, 8, 9]]

    def test_padding_mask_and_shape(self, params):
        encoded, padding = encode_batch(params, self.SEQUENCES)
        assert encoded.shape == (3, 10, CONFIG.d_model)
        np.testing.assert_array_equal(padding.sum(axis=1), [7, 0, 5])
        assert not padding[:, :3].any()

    def test_real_rows_match_single_encodes(self, params):
        encoded, _ = encode_batch(params, self.SEQUENCES)
        for i, ids in enumerate(self.SEQUENCES):
            alone = encode(params, ids).data
            np.testing.assert_allclose(encoded.data[i, : len(ids) + 2], alone, rtol=0, atol=1e-12)

    def test_padded_keys_get_exactly_zero_weight(self, params, monkeypatch):
        weights = recorded_attention_weights(monkeypatch)
        _, padding = encode_batch(params, self.SEQUENCES)
        # one softmax per layer, the heads of item i in rows i * n_heads onwards
        assert len(weights) == CONFIG.n_layers
        for w in weights:
            assert w.shape == (3 * CONFIG.n_heads, 10, 10)
            keys = np.broadcast_to(np.repeat(padding, CONFIG.n_heads, axis=0)[:, None, :], w.shape)
            assert np.all(w[keys] == 0.0)
            assert np.all(w[~keys] > 0.0)

    def test_pad_embedding_changes_no_real_row(self, params):
        before, padding = encode_batch(params, self.SEQUENCES)
        params.tok_emb.data[PAD_ID] += 5.0
        after, _ = encode_batch(params, self.SEQUENCES)
        real = ~padding
        assert after.data[real].tobytes() == before.data[real].tobytes()
        assert not np.array_equal(after.data[padding], before.data[padding])

    def test_batch_representations_pick_each_items_rows(self, params):
        encoded, padding = encode_batch(params, self.SEQUENCES)
        targets = target_representation(encoded, [0, 7, 2], padding)
        np.testing.assert_array_equal(targets.data, encoded.data[[0, 1, 2], [1, 8, 3]])
        np.testing.assert_array_equal(cls_representation(encoded).data, encoded.data[:, 0])

    def test_batch_target_checked_against_its_own_words(self, params):
        encoded, padding = encode_batch(params, self.SEQUENCES)
        # index 1 is inside the padded width but past item 0's single word
        with pytest.raises(ContractError) as err:
            target_representation(encoded, [1, 0, 0], padding)
        assert "item 0" in str(err.value)
        with pytest.raises(ContractError):
            target_representation(encoded, [0, 0, -1], padding)

    def test_first_row_only_matches_row_zero_of_the_full_pass(self):
        config = EncoderConfig(
            vocab_size=20, d_model=8, n_layers=2, n_heads=2, d_ff=16, max_seq_len=10
        )
        params = fresh_encoder(config, np.random.default_rng(1))
        full, padding = encode_batch(params, self.SEQUENCES)
        first, first_padding = ops.encode_first_rows(params, self.SEQUENCES)
        assert first.shape == (3, 1, config.d_model)
        np.testing.assert_array_equal(first_padding, padding)
        np.testing.assert_allclose(first.data[:, 0], full.data[:, 0], rtol=0, atol=1e-12)

    def test_first_row_only_queries_every_real_key_once(self, params, monkeypatch):
        weights = recorded_attention_weights(monkeypatch)
        _, padding = ops.encode_first_rows(params, self.SEQUENCES)
        # the last layer's logits are (b * n_heads, 1, L): one start-marker query per head
        (w,) = weights
        assert w.shape == (3 * CONFIG.n_heads, 1, 10)
        keys = np.repeat(padding, CONFIG.n_heads, axis=0)[:, None, :]
        assert np.all(w[keys] == 0.0) and np.all(w[~keys] > 0.0)

    def test_empty_batch_and_bad_items_rejected(self, params):
        with pytest.raises(ContractError):
            encode_batch(params, [])
        for bad in ([], list(range(4, 4 + CONFIG.max_seq_len - 1)), [CONFIG.vocab_size]):
            with pytest.raises(ContractError):
                encode_batch(params, [[4, 5], bad])

    @pytest.mark.parametrize(
        "bad",
        [
            [], list(range(4, 4 + CONFIG.max_seq_len - 1)), [4, -1], [4, 2**70], [9, 4.5, -0.5],
            [4.5], [4, 5.0], [4, "x"],
        ],
    )
    def test_bad_item_fails_as_it_does_alone(self, params, bad):
        """The one check of the padded batch falls back to the per-item check, so a
        bad item raises the error ``encode`` raises for it."""
        with pytest.raises(ContractError) as alone:
            encode(params, bad)
        with pytest.raises(ContractError) as batched:
            encode_batch(params, [[4, 5], bad, [6]])
        assert str(batched.value) == str(alone.value)


def _numpy_calls(run) -> dict[str, int]:
    """How many times ``run()`` calls each numpy function or method, as cProfile names
    them: numpy's C entry points (``np.array``, ufunc ``reduce``) and its Python code."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
    return {
        name: stats[1]
        for (filename, _, name), stats in pstats.Stats(profile).stats.items()
        if "numpy" in name or f"numpy{os.sep}" in filename
    }


class TestMarkedIds:
    """``marked_ids`` builds every marked batch, its target rows too: it must give the
    ids, padding and targets of the padded-rows builder (``ops.padded_ids``, then
    ``ops.target_rows``) bit for bit, raise what that builder raises, and build an
    unpadded batch in a fixed number of numpy calls."""

    @pytest.mark.parametrize(
        "b, padded",
        [(1, False), (2, False), (2, True), (8, False), (8, True), (73, False), (73, True)],
    )
    def test_equals_the_padded_rows_builder(self, params, b, padded):
        rng, cap = np.random.default_rng(b + padded), CONFIG.max_seq_len - 2
        for _ in range(10):
            lengths = np.full(b, rng.integers(1, cap + 1))
            if padded:
                lengths = rng.integers(1, cap + 1, size=b)
                lengths[rng.choice(b, 2, replace=False)] = 1, cap
            sequences = [rng.integers(0, CONFIG.vocab_size, size=n).tolist() for n in lengths]
            targets = [int(rng.integers(n)) for n in lengths]
            ids, padding, rows = polywsd.encoder.marked_ids(params, sequences, targets)
            want_ids, want_padding = ops.padded_ids(params, sequences)
            _, want_rows = ops.target_rows(targets, want_padding)
            for got, want in ((ids, want_ids), (padding, want_padding), (rows, want_rows)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert padding.any() == padded
            assert polywsd.encoder.marked_ids(params, sequences)[2] is None

    @pytest.mark.parametrize(
        "sequences, targets",
        [
            ([], []),
            ([[4, 5], [], [6]], [0, 0, 0]),
            ([[4, 5], list(range(4, 4 + CONFIG.max_seq_len - 1))], [0, 0]),
            ([[4, 5], [6, -1]], [0, 0]),
            ([[4, 5], [6, CONFIG.vocab_size]], [0, 0]),
            ([[4, 5], [6, 7.0]], [0, 0]),
            ([[4, 5], [6]], [0, 1]),
            ([[4, 5], [6]], [-1, 0]),
            ([[4], [5, -1]], [3, 0]),
        ],
        ids=[
            "empty_batch", "empty_sequence", "over_capacity", "negative_id", "large_id",
            "float_id", "target_past_its_words", "negative_target", "bad_id_before_bad_target",
        ],
    )
    def test_raises_the_padded_rows_builders_errors(self, params, sequences, targets):
        with pytest.raises(ContractError) as want:
            _, padding = ops.padded_ids(params, sequences)
            ops.target_rows(targets, padding)
        with pytest.raises(ContractError) as got:
            polywsd.encoder.marked_ids(params, sequences, targets)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("b", [1, 8])
    def test_an_unpadded_batch_costs_five_numpy_calls(self, params, b):
        """One array of ids, two reductions to check them, one ``np.zeros`` mask and
        one array of target rows, whatever the batch size: no per-item padding, no
        mask derived from the lengths. The padded-rows builder and its target check
        took 16 numpy calls and array operators for one."""
        sequences = [[4, 5, 6, 7]] * b
        calls = _numpy_calls(lambda: polywsd.encoder.marked_ids(params, sequences, [2] * b))
        assert calls == {
            "<built-in method numpy.array>": 2,
            "<method 'reduce' of 'numpy.ufunc' objects>": 2,
            "<built-in method numpy.zeros>": 1,
        }

    def test_a_prediction_builds_its_ids_in_five_numpy_calls(self, monkeypatch):
        """A prediction's context is a batch of one: ``context_codes`` builds its ids,
        padding and target row in ``marked_ids``' five calls before the fused pass."""
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=6, seed=4)
        model, built = tiny_model(corpus, inventory), []
        monkeypatch.setattr(polywsd.model, "_fused_rows", lambda *args: built.append(args[1:]))
        tokens, target = corpus[0].tokens, corpus[0].target_index
        window = polywsd.model._context_window(model, tokens, target)
        calls = _numpy_calls(lambda: polywsd.model.context_codes(model, tokens, target))
        assert sum(calls.values()) <= 5
        ((ids, padding, rows),) = built
        assert ids.tolist() == [[CLS_ID, *window[0], SEP_ID]] and not padding.any()
        assert rows.tolist() == [window[1] + 1]


class TestBoundInputs:
    """Each frozen side binds its pass's arguments once, when it is built: the
    tensors of ``named_tensors`` and their own ``data``, never copies."""

    def test_bound_inputs_are_the_named_tensors_in_manifest_order(self):
        corpus, inventory = synthetic_corpus(n_lemmas=2, senses_per_lemma=2, n_instances=4)
        model = tiny_model(corpus, inventory, n_layers=2)
        for side in (model.context, model.gloss):
            assert len(side.inputs) == 4 + 12 * 2
            assert all(a is b for a, (_, b) in zip(side.inputs, side.named_tensors(), strict=True))
        fusion = [t for _, t in model.fusion.named_tensors()]
        assert all(a is b for a, b in zip(model.fusion.weights, fusion, strict=True))
        context = [t for name, t in model.named_parameters() if not name.startswith("gloss.")]
        assert all(a is b for a, b in zip(model.context_inputs, context, strict=True))

    def test_each_block_binds_its_tensors_own_arrays(self):
        corpus, inventory = synthetic_corpus(n_lemmas=2, senses_per_lemma=2, n_instances=4)
        model = tiny_model(corpus, inventory, n_layers=2)
        for side in (model.context, model.gloss):
            names = list(polywsd.encoder.block_shapes(side.config))
            assert len(side.block_arrays) == len(side.layers) == 2
            for arrays, layer in zip(side.block_arrays, side.layers):
                tensors = [getattr(layer, name) for name in names]
                assert all(a is t.data for a, t in zip(arrays, tensors, strict=True))
        weights = model.fusion.weights
        assert all(a is w.data for a, w in zip(model.fusion.arrays, weights, strict=True))


class TestRepresentations:
    def test_target_offset_first_word(self, params):
        out, target = _one_target(params, [9], 0)
        assert out.shape[1] == 3
        np.testing.assert_array_equal(target.data, out.data[:, 1])

    def test_target_offset_mid_sequence(self, params):
        out, target = _one_target(params, [4, 5, 6, 7, 8], 2)
        np.testing.assert_array_equal(target.data, out.data[:, 3])

    def test_target_out_of_range_reports_bounds(self, params):
        with pytest.raises(ContractError) as err:
            _one_target(params, [4, 5, 6], 3)
        assert "3" in str(err.value)

    def test_cls_is_row_zero(self, params):
        out = encode(params, [4, 5])
        np.testing.assert_array_equal(cls_representation(out).data, out.data[0])

    def test_gloss_lengths_share_width(self, params):
        short = cls_representation(encode(params, [4]))
        long = cls_representation(encode(params, [4, 5, 6, 7]))
        assert short.shape == long.shape == (CONFIG.d_model,)

    def test_cls_differs_from_target_row_on_random_params(self, params):
        out, target = _one_target(params, [4, 5, 6], 0)
        assert np.abs(cls_representation(out).data - target.data).max() > 1e-9


class TestGradientSeparation:
    def test_gloss_loss_leaves_context_params_untouched(self):
        rng = np.random.default_rng(1)
        context = fresh_encoder(CONFIG, rng)
        gloss = fresh_encoder(CONFIG, rng)
        tape = Tape()
        with tape:
            loss = T.sum_all(cls_representation(encode(gloss, [4, 5])))
        backward(loss, tape)
        assert any(t.grad is not None for _, t in gloss.named_tensors())
        for name, tensor in context.named_tensors():
            assert tensor.grad is None, name

    def test_encode_gradient_matches_finite_differences(self):
        config = EncoderConfig(vocab_size=8, d_model=4, n_layers=1, n_heads=2, d_ff=6, max_seq_len=6)
        params = fresh_encoder(config, np.random.default_rng(2))
        proj = np.random.default_rng(3).normal(size=(5, 4))

        def f():
            return T.sum_all(T.mul(encode(params, [4, 5, 6]), Tensor(proj)))

        err = T.finite_diff_check(f, [t for _, t in params.named_tensors()], h=1e-4)
        assert err < 1e-4, f"rel error {err}"


def _chain_encoder(params, ids, key_mask, first_row_only):
    """The encoder pass op by op, one record per layer op, as it ran before the pass
    became one record: the fused pass's bit-level oracle."""
    positions = ids * 0 + np.arange(ids.shape[1])
    x = ops.add(ops.embed(params.tok_emb, ids), ops.embed(params.pos_emb, positions))
    last = params.layers[-1]
    for layer in params.layers:
        normed = queries = ops.layer_norm(x, layer.attn_gain, layer.attn_bias)
        if first_row_only and layer is last:
            queries, x = T.gather(normed, np.s_[:, :1]), T.gather(x, np.s_[:, :1])
        attended = T.attention(
            queries, normed, layer.wq, layer.wk, layer.wv, layer.wo, params.config.n_heads, key_mask
        )
        x = ops.add(x, attended)
        normed = ops.layer_norm(x, layer.ffn_gain, layer.ffn_bias)
        hidden = ops.gelu(ops.add(ops.matmul(normed, layer.w1), layer.b1))
        x = ops.add(x, ops.add(ops.matmul(hidden, layer.w2), layer.b2))
    return ops.layer_norm(x, params.out_gain, params.out_bias)


def _marked(sequences):
    """The (b, L) marker-wrapped, padded ids of ``sequences``, as ``encode_batch``
    builds them, and their (b, L) padding mask."""
    width = max(len(seq) for seq in sequences) + 2
    rows = [[CLS_ID, *seq, SEP_ID] + [PAD_ID] * (width - 2 - len(seq)) for seq in sequences]
    return np.array(rows), np.array(rows) == PAD_ID


class TestFusedPass:
    """``encode_batch``'s pass is one tape record with the op chain's bits."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("first_row_only", [False, True], ids=["all_rows", "first_row"])
    @pytest.mark.parametrize(
        "sequences", [[[4, 5, 6], [7], [8, 9]], [[4, 5, 6], [7, 8, 9]]], ids=["padded", "unpadded"]
    )
    def test_bit_equal_to_the_op_chain_forward_and_adjoints(
        self, n_layers, n_heads, first_row_only, sequences
    ):
        config = EncoderConfig(
            vocab_size=12, d_model=8, n_layers=n_layers, n_heads=n_heads, d_ff=12, max_seq_len=7
        )
        params = fresh_encoder(config, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _, tensor in params.named_tensors():  # every gain and bias away from its init
            tensor.data[...] = rng.normal(scale=0.5, size=tensor.shape)
        ids, padding = _marked(sequences)
        probe = Tensor(rng.normal(size=(len(sequences), 1 if first_row_only else ids.shape[1], 8)))
        fused_pass = ops.encode_first_rows if first_row_only else encode_batch
        runs, lengths = [], []
        for encoder in (
            lambda: (_chain_encoder(params, ids, padding, first_row_only), padding),
            lambda: fused_pass(params, sequences),
        ):
            for _, tensor in params.named_tensors():
                tensor.grad = None
            tape = Tape()
            with tape:
                out, mask = encoder()
                loss = T.sum_all(T.mul(out, probe))
            backward(loss, tape)
            np.testing.assert_array_equal(mask, padding)
            grads = [tensor.grad.tobytes() for _, tensor in params.named_tensors()]
            runs.append([out.data.tobytes(), *grads])
            lengths.append(len(tape))
        chain, fused = runs
        assert lengths[1] == 3  # the pass, the probe's product and its sum
        assert fused == chain

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("first_row_only", [False, True], ids=["all_rows", "first_row"])
    def test_gradients_of_every_parameter_match_finite_differences(self, n_layers, first_row_only):
        config = EncoderConfig(
            vocab_size=8, d_model=4, n_layers=n_layers, n_heads=2, d_ff=6, max_seq_len=5
        )
        params = fresh_encoder(config, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        for _, tensor in params.named_tensors():
            tensor.data[...] = rng.normal(scale=0.5, size=tensor.shape)
        sequences = [[4, 5, 6], [7]]
        probe = Tensor(rng.normal(size=(2, 1 if first_row_only else 5, 4)))

        encoder = ops.encode_first_rows if first_row_only else encode_batch

        def f():
            return T.sum_all(T.mul(encoder(params, sequences)[0], probe))

        err = T.finite_diff_check(f, [t for _, t in params.named_tensors()], h=1e-4)
        assert err < 1e-4, f"rel error {err}"


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=10, d_model=10, n_layers=1, n_heads=4, d_ff=8, max_seq_len=8)

    def test_min_sequence_budget(self):
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=10, d_model=8, n_layers=1, n_heads=2, d_ff=8, max_seq_len=2)

    @pytest.mark.parametrize("value", [16.0, True, "16", None])
    def test_integer_fields_reject_other_types(self, value):
        with pytest.raises(ConfigError) as err:
            EncoderConfig(
                vocab_size=10, d_model=value, n_layers=1, n_heads=2, d_ff=8, max_seq_len=8
            )
        assert "d_model must be an integer" in str(err.value)
        with pytest.raises(ConfigError):
            FusionConfig(d_model=8, poly_m=value, n_heads=2)
        with pytest.raises(ConfigError):
            FusionConfig(d_model=8, poly_m=2, n_heads=value)

    def test_reserved_vocab_floor(self):
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=3, d_model=8, n_layers=1, n_heads=2, d_ff=8, max_seq_len=8)


def _per_head_values(model):
    """Every Glorot-drawn parameter of ``model``'s seed, drawn one (d, d / h) head
    at a time in the per-head order (per layer: every query head, every key head,
    every value head; in the fusion: each head's query, key and value), with
    each projection's heads then placed side by side."""
    rng = np.random.default_rng(0)

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    values = {}
    for side, config in (("context", model.context.config), ("gloss", model.gloss.config)):
        d, dh, h = config.d_model, config.head_dim, config.n_heads
        for i in range(config.n_layers):
            for proj in ("wq", "wk", "wv"):
                values[f"{side}.layer{i}.{proj}"] = np.hstack([glorot(d, dh) for _ in range(h)])
            values[f"{side}.layer{i}.wo"] = glorot(d, d)
            values[f"{side}.layer{i}.w1"] = glorot(d, config.d_ff)
            values[f"{side}.layer{i}.w2"] = glorot(config.d_ff, d)
        values[f"{side}.tok_emb"] = rng.uniform(-0.05, 0.05, (config.vocab_size, d))
        values[f"{side}.pos_emb"] = rng.uniform(-0.05, 0.05, (config.max_seq_len, d))
    config = model.fusion.config
    d, dh = config.d_model, config.head_dim
    heads = [[glorot(d, dh) for _ in range(3)] for _ in range(config.n_heads)]
    for j, proj in enumerate(("wq", "wk", "wv")):
        values[f"fusion.{proj}"] = np.hstack([head[j] for head in heads])
    values["fusion.w_o"] = glorot(d, d)
    return values


class TestStackedHeads:
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_init_matches_per_head_draws_bit_for_bit(self, n_heads):
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=6, seed=4)
        model = tiny_model(corpus, inventory, seed=0, n_heads=n_heads)
        named = dict(model.named_parameters())
        expected = _per_head_values(model)
        for name, value in expected.items():
            assert named[name].data.tobytes() == value.tobytes(), name
        # the rest are the layer-norm gains and the biases, at their constant inits
        for name in named.keys() - expected.keys():
            assert np.all(named[name].data == (1.0 if name.endswith("gain") else 0.0)), name

    def test_embedding_tables_drawn_in_blocks_match_one_whole_draw(self, monkeypatch):
        """Each table is drawn a block of rows at a time, with the bits of one draw of
        the whole table; at d_model 4 the 40,000-row position table takes three blocks."""
        config = EncoderConfig(
            vocab_size=20, d_model=4, n_layers=1, n_heads=2, d_ff=8, max_seq_len=40_000
        )
        blocks = fresh_encoder(config, np.random.default_rng(3))
        monkeypatch.setattr(polywsd.encoder, "_EMBED_DRAW_VALUES", 10**9)
        whole = fresh_encoder(config, np.random.default_rng(3))
        for (name, a), (_, b) in zip(blocks.named_tensors(), whole.named_tensors()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_parameter_count_does_not_depend_on_heads(self):
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=6, seed=4)
        models = [tiny_model(corpus, inventory, n_heads=h) for h in (1, 2, 4, 8)]
        shapes = [[(name, t.shape) for name, t in m.named_parameters()] for m in models]
        assert all(s == shapes[0] for s in shapes[1:])
        assert len(shapes[0]) == 2 * 16 + 4  # two one-layer encoders, then the fusion
