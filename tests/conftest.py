"""Shared model/corpus builders for the test suite."""

import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import strategies as st

from polywsd import tensor as T
from polywsd.data import build_vocab
from polywsd.encoder import EncoderConfig, encoder_params, init_encoder
from polywsd.fusion import FusionConfig, fusion_params, init_fusion
from polywsd.model import build_model
from polywsd.synthetic import synthetic_corpus
from polywsd.tensor import Cutter, Tensor


# any JSON value, kept small so fuzz tests stay quick
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def restamp_checksum(raw: bytes) -> bytes:
    """Checkpoint bytes with the CRC32 trailer recomputed over the rest, so that a
    deliberately edited header reaches the header checks."""
    body = raw[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports the package
    from this checkout; the run must succeed."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def recorded_attention_weights(monkeypatch):
    """A list that collects the weights of every masked softmax from now on, such as
    the one inside ``tensor.attention``: its e / s, as the ops divide them."""
    weights, shift_exp = [], T._masked_shift_exp

    def recorded(x, mask):
        out = shift_exp(x, mask)
        weights.append(out[2] / out[3])
        return out

    monkeypatch.setattr(T, "_masked_shift_exp", recorded)
    return weights


def recorded_feed_forward_inputs(monkeypatch):
    """A list that collects the shape of every feed-forward activation's input from
    now on, as the encoder pass hands it to ``tensor.gelu_kernel``."""
    shapes, gelu_kernel = [], T.gelu_kernel

    def recorded(x):
        shapes.append(x.shape)
        return gelu_kernel(x)

    monkeypatch.setattr(T, "gelu_kernel", recorded)
    return shapes


def packed(*arrays):
    """Tensors holding ``arrays``, cut as consecutive views of one buffer, as a
    model's parameters are, so that an ``Adam`` can adopt them."""
    cut = Cutter(np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64))
    return [cut(*np.shape(a)) for a in arrays]


def _loose(*shape):
    return Tensor(np.empty(shape))


def fresh_encoder(config, rng):
    """An initialised encoder outside any model, each tensor on its own array."""
    params = encoder_params(config, _loose)
    init_encoder(params, rng)
    return params


def fresh_fusion(config, rng):
    """An initialised fusion outside any model, each tensor on its own array."""
    params = fusion_params(config, _loose)
    init_fusion(params, rng)
    return params


def tiny_model(
    corpus, inventory, seed=0, d_model=8, poly_m=2, n_heads=2, max_seq_len=12, n_layers=1
):
    vocab = build_vocab(corpus, inventory, min_freq=1)
    encoder_config = EncoderConfig(
        vocab_size=vocab.size,
        d_model=d_model,
        n_layers=n_layers,
        n_heads=n_heads,
        d_ff=2 * d_model,
        max_seq_len=max_seq_len,
    )
    fusion_config = FusionConfig(d_model=d_model, poly_m=poly_m, n_heads=n_heads)
    return build_model(encoder_config, encoder_config, fusion_config, vocab, seed=seed)


@pytest.fixture
def small_world():
    """A 12-instance corpus over 4 lemmas with a freshly built tiny model."""
    corpus, inventory = synthetic_corpus(n_lemmas=4, senses_per_lemma=3, n_instances=12, seed=1)
    model = tiny_model(corpus, inventory, seed=0)
    return corpus, inventory, model
