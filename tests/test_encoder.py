"""Miniature encoder: marker convention, determinism, gradient separation."""

import numpy as np
import pytest

from polywsd import tensor as T
from polywsd.encoder import (
    EncoderConfig,
    cls_representation,
    encode,
    init_encoder,
    target_representation,
)
from polywsd.errors import ConfigError, ContractError
from polywsd.tensor import Tape, Tensor, backward


CONFIG = EncoderConfig(vocab_size=20, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=10)


@pytest.fixture
def params():
    return init_encoder(CONFIG, np.random.default_rng(0))


def _zeroed(config):
    params = init_encoder(config, np.random.default_rng(0))
    for _, tensor in params.named_tensors():
        tensor.data[...] = 0.0
    return params


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
        base = target_representation(encode(params, [4, 5, 6, 7, 8]), 0)
        swapped = target_representation(encode(params, [4, 5, 7, 6, 8]), 0)
        assert np.abs(base.data - swapped.data).max() > 1e-9


class TestRepresentations:
    def test_target_offset_first_word(self, params):
        out = encode(params, [9])
        assert out.shape[0] == 3
        np.testing.assert_array_equal(target_representation(out, 0).data, out.data[1])

    def test_target_offset_mid_sequence(self, params):
        out = encode(params, [4, 5, 6, 7, 8])
        np.testing.assert_array_equal(target_representation(out, 2).data, out.data[3])

    def test_target_out_of_range_reports_bounds(self, params):
        out = encode(params, [4, 5, 6])
        with pytest.raises(IndexError) as err:
            target_representation(out, 3)
        assert "3" in str(err.value)

    def test_cls_is_row_zero(self, params):
        out = encode(params, [4, 5])
        np.testing.assert_array_equal(cls_representation(out).data, out.data[0])

    def test_gloss_lengths_share_width(self, params):
        short = cls_representation(encode(params, [4]))
        long = cls_representation(encode(params, [4, 5, 6, 7]))
        assert short.shape == long.shape == (CONFIG.d_model,)

    def test_cls_differs_from_target_row_on_random_params(self, params):
        out = encode(params, [4, 5, 6])
        assert np.abs(cls_representation(out).data - target_representation(out, 0).data).max() > 1e-9


class TestGradientSeparation:
    def test_gloss_loss_leaves_context_params_untouched(self):
        rng = np.random.default_rng(1)
        context = init_encoder(CONFIG, rng)
        gloss = init_encoder(CONFIG, rng)
        tape = Tape()
        with tape:
            loss = T.sum_all(cls_representation(encode(gloss, [4, 5])))
        backward(loss, tape)
        assert any(t.grad is not None for _, t in gloss.named_tensors())
        for name, tensor in context.named_tensors():
            assert tensor.grad is None, name

    def test_encode_gradient_matches_finite_differences(self):
        config = EncoderConfig(vocab_size=8, d_model=4, n_layers=1, n_heads=2, d_ff=6, max_seq_len=6)
        params = init_encoder(config, np.random.default_rng(2))
        proj = np.random.default_rng(3).normal(size=(5, 4))

        def f():
            return T.sum_all(T.mul(encode(params, [4, 5, 6]), Tensor(proj)))

        err = T.finite_diff_check(f, [t for _, t in params.named_tensors()], h=1e-4)
        assert err < 1e-4, f"rel error {err}"


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=10, d_model=10, n_layers=1, n_heads=4, d_ff=8, max_seq_len=8)

    def test_min_sequence_budget(self):
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=10, d_model=8, n_layers=1, n_heads=2, d_ff=8, max_seq_len=2)

    def test_reserved_vocab_floor(self):
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=3, d_model=8, n_layers=1, n_heads=2, d_ff=8, max_seq_len=8)
