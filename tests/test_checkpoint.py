"""Checkpoint format: bit-exact round trips, version gating, resume parity."""

import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from polywsd.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from polywsd.cli import DEFAULT_CONFIG
from polywsd.data import build_vocab
from polywsd.encoder import EncoderConfig
from polywsd.errors import CheckpointError, ConfigError, ContractError
from polywsd.fusion import FusionConfig
from polywsd.model import build_model, parameter_count, randomize_parameters
from polywsd.predict import _gloss_rows, score_candidates
from polywsd.synthetic import synthetic_corpus
from polywsd.training import Adam, TrainConfig, make_batches, train, train_step

from conftest import JSON_VALUES, restamp_checksum, run_fresh, tiny_model


def _trained_world(steps=3):
    corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=10, seed=2)
    model = tiny_model(corpus, inventory, seed=6)
    config = TrainConfig(batch_size=4, epochs=4, learning_rate=1e-3, seed=6)
    optimizer = Adam.from_config(model.parameters(), config)
    train(model, optimizer, corpus, inventory, config, max_steps=steps)
    return corpus, inventory, model, optimizer, config


def _edit_header(path, edit):
    """Rewrite a saved checkpoint's JSON header through ``edit(header)``."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    edit(header)
    body = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(
        restamp_checksum(raw[:8] + struct.pack("<Q", len(body)) + body + raw[16 + hlen :])
    )


class TestRoundTrip:
    def test_tensors_bytewise_equal(self, tmp_path):
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        loaded = load_checkpoint(path)
        assert loaded.seed == config.seed and loaded.step == 3
        for (name_a, t_a), (name_b, t_b) in zip(
            model.named_parameters(), loaded.model.named_parameters()
        ):
            assert name_a == name_b
            assert t_a.data.tobytes() == t_b.data.tobytes()
        assert loaded.model.vocab.token_to_id == model.vocab.token_to_id

    def test_optimizer_state_bit_exact(self, tmp_path):
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        loaded = load_checkpoint(path)
        assert loaded.optimizer.t == optimizer.t
        for a, b in zip(optimizer.m, loaded.optimizer.m):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(optimizer.v, loaded.optimizer.v):
            assert a.tobytes() == b.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        _, _, model, optimizer, config = _trained_world()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, optimizer, seed=config.seed, step=3)
        save_checkpoint(p2, model, optimizer, seed=config.seed, step=3)
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_names_at_the_default_config(self, tmp_path):
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=10, seed=2)
        vocab = build_vocab(corpus, inventory, min_freq=1)
        encoder = EncoderConfig(vocab_size=vocab.size, **DEFAULT_CONFIG["encoder"])
        fusion = FusionConfig(d_model=encoder.d_model, **DEFAULT_CONFIG["fusion"])
        path = tmp_path / "model.ckpt"
        model = build_model(encoder, encoder, fusion, vocab, seed=0)
        save_checkpoint(path, model, None, seed=0, step=0)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        encoder_names = ["tok_emb", "pos_emb"]
        encoder_names += [f"layer0.{n}" for n in ("attn_gain", "attn_bias", "wq", "wk", "wv", "wo")]
        encoder_names += [f"layer0.{n}" for n in ("ffn_gain", "ffn_bias", "w1", "b1", "w2", "b2")]
        encoder_names += ["out_gain", "out_bias"]
        expected = [f"{side}.{n}" for side in ("context", "gloss") for n in encoder_names]
        expected += ["fusion.wq", "fusion.wk", "fusion.wv", "fusion.w_o"]
        assert len(expected) == 36
        assert [entry["name"] for entry in json.loads(raw[16 : 16 + hlen])["params"]] == expected

    def test_save_streams_the_payload_without_a_copy(self, tmp_path):
        """The parts go to the file one by one: a save allocates less than the value
        buffer, so a model that fits in memory once can be saved."""
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=10, seed=2)
        model = tiny_model(corpus, inventory, seed=6, d_model=32)
        optimizer = Adam.from_config(model.parameters(), TrainConfig(batch_size=4, epochs=1))
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "model.ckpt", model, optimizer, seed=6, step=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.values.nbytes
        assert load_checkpoint(tmp_path / "model.ckpt").model.values.tobytes() == model.values.tobytes()

    def test_without_optimizer(self, tmp_path):
        _, _, model, _, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, None, seed=config.seed, step=0)
        assert load_checkpoint(path).optimizer is None


class TestRejection:
    def test_version_bump_rejected(self, tmp_path):
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "version" in str(err.value)

    def test_per_head_version_1_file_rejected(self, tmp_path):
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "version 1 is incompatible with supported version 3" in str(err.value)

    def test_version_2_file_rejected(self, tmp_path):
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "version 2 is incompatible with supported version 3" in str(err.value)

    def test_flipped_exponent_bit_of_first_weight_rejected(self, tmp_path):
        """One flipped bit turns the first token embedding value x into x * 2**-256."""
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        raw = bytearray(path.read_bytes())
        (hlen,) = struct.unpack("<Q", raw[8:16])
        first = 16 + hlen  # the payload opens with context.tok_emb
        assert raw[first : first + 8] == model.context.tok_emb.data[0, :1].tobytes()
        raw[first + 7] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "checksum" in str(err.value)

    def test_header_edit_without_new_checksum_rejected(self, tmp_path):
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        saved_crc = path.read_bytes()[-4:]
        _edit_header(path, lambda header: header["context_config"].update(n_heads=8))
        # with its checksum renewed, the edit loads as a different model of the same shapes
        assert load_checkpoint(path).model.context.config.n_heads == 8
        path.write_bytes(path.read_bytes()[:-4] + saved_crc)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "checksum" in str(err.value)

    def test_truncated_file_rejected(self, tmp_path):
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "truncated" in str(err.value)
        # one value short, with a checksum that matches: both sizes in bytes
        path.write_bytes(restamp_checksum(raw[:-12] + raw[-4:]))
        (hlen,) = struct.unpack("<Q", raw[8:16])
        payload = len(raw) - 4 - 16 - hlen
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"payload of {payload - 8} bytes, expected {payload} bytes"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: [h[k].update(d_model=65536) for k in h if k.endswith("_config")],
            lambda h: h["context_config"].update(n_layers=10**6),
            lambda h: h["gloss_config"].update(max_seq_len=10**8),
            lambda h: h["context_config"].update(n_layers=10**12),
        ],
        ids=["d_model", "n_layers", "max_seq_len", "n_layers_1e12"],
    )
    def test_oversized_config_rejected_before_allocating(self, tmp_path, edit):
        """Each header asks for over 4 GiB of parameters; under a 2 GiB address-space
        limit the payload check must refuse it before ``build_model`` draws a value.
        Sizing takes constant time in the layer count: 10**12 layers are refused at once."""
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        _edit_header(path, edit)
        code = (
            "import resource\n"
            "from polywsd.checkpoint import load_checkpoint\n"
            "from polywsd.errors import CheckpointError\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "try:\n"
            f"    load_checkpoint({str(path)!r})\n"
            "except CheckpointError as exc:\n"
            "    print(exc)\n"
        )
        assert run_fresh(code).startswith("payload of ")

    @pytest.mark.parametrize("implied", [True, False], ids=["header_implies_it", "small_header"])
    def test_sparse_file_past_the_limit_exits_1_before_reading_it(self, tmp_path, implied):
        """Under a 1 GiB address-space limit, ``polywsd predict`` on a sparse checkpoint
        larger than the limit exits 1 with a located message and no traceback. A header
        that implies the file's 3 GB fails the memory check before a payload byte is
        read; a small model's header followed by 1.5 GB fails its checksum, read a chunk
        at a time."""
        _, _, model, _, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, None, seed=config.seed, step=3)
        size = 3 << 29
        if implied:  # a ~3 GB gloss encoder, and the file at the exact size it implies
            header = {}

            def grow(edited):
                edited["gloss_config"]["max_seq_len"] = 48 * 10**6
                header.update(edited)

            _edit_header(path, grow)
            count = parameter_count(
                EncoderConfig(**header["context_config"]), EncoderConfig(**header["gloss_config"]),
                FusionConfig(**header["fusion_config"]),
            )
            size = path.stat().st_size + 8 * (count - model.values.size)
            assert size > 3 * 10**9
        with open(path, "r+b") as fh:
            fh.truncate(size)
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from polywsd.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        argv = [
            "predict", "--checkpoint", path, "--corpus", tmp_path / "c.jsonl",
            "--inventory", tmp_path / "i.jsonl", "--out", tmp_path / "out.tsv",
        ]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-c", code, *map(str, argv)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
        want = (
            r"loading \d+ parameter values needs \d+ bytes, more than the \d+ bytes of memory left"
            if implied else "checksum mismatch, the file is truncated or damaged"
        )
        assert re.fullmatch(rf"error: {re.escape(str(path))}: {want}\n", proc.stderr), proc.stderr

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_huge_header_length_rejected(self, tmp_path):
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        raw = bytearray(path.read_bytes())
        raw[8:16] = struct.pack("<Q", 2**40)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "header length" in str(err.value)

    @pytest.mark.parametrize(
        "manifest",
        [5, "params", [1, 2], None],
        ids=["number", "string", "entries-not-objects", "null"],
    )
    def test_malformed_manifest_rejected(self, tmp_path, manifest):
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        _edit_header(path, lambda header: header.update(params=manifest))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_manifest_shape_mismatch_rejected(self, tmp_path):
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        _edit_header(path, lambda header: header["params"][0].update(shape="ab"))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "stored shape" in str(err.value)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda opt: opt.pop("beta1"),
            lambda opt: opt.update(beta1="0.9"),
            lambda opt: opt.update(eps=None),
            lambda opt: opt.update(learning_rate=True),
            lambda opt: opt.update(t=1.5),
            lambda opt: opt.update(t=-1),
            lambda opt: opt.update(learning_rate=-1),
            lambda opt: opt.update(learning_rate=float("nan")),
            lambda opt: opt.update(learning_rate=float("inf")),
            lambda opt: opt.update(eps=0),
            lambda opt: opt.update(eps=10**400),
            *(
                lambda opt, name=name, value=value: opt.update({name: value})
                for name in ("beta1", "beta2")
                for value in (1.5, 1.0, 0.0)
            ),
        ],
        ids=[
            "beta1-missing", "beta1-string", "eps-null", "lr-bool", "t-float", "t-negative",
            "lr-negative", "lr-nan", "lr-inf", "eps-zero", "eps-huge-int",
            *(f"{name}-{value}" for name in ("beta1", "beta2") for value in (1.5, 1.0, 0.0)),
        ],
    )
    def test_bad_optimizer_field_rejected(self, tmp_path, edit):
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        _edit_header(path, lambda header: edit(header["optimizer"]))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "optimizer field" in str(err.value)

    @pytest.mark.parametrize(
        "name,value",
        [("seed", "abc"), ("seed", -1), ("seed", 1.5), ("seed", True), ("step", "x"), ("step", -3)],
    )
    def test_bad_seed_or_step_rejected(self, tmp_path, name, value):
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        _edit_header(path, lambda header: header.update({name: value}))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert f"header field {name!r}" in str(err.value)

    def test_optimizer_header_not_an_object_rejected(self, tmp_path):
        _, _, model, optimizer, config = _trained_world()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
        _edit_header(path, lambda header: header.update(optimizer=[1]))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_optimizer_of_another_model_rejected(self, tmp_path, n_layers):
        corpus, inventory, model, optimizer, config = _trained_world()
        other = tiny_model(corpus, inventory, seed=7, n_layers=n_layers)
        with pytest.raises(ContractError, match="not the next view of the value buffer"):
            Adam(model.parameters()[::-1])
        for model_a, optimizer_b in ((model, Adam(other.parameters())), (other, optimizer)):
            with pytest.raises(ContractError, match="this model's parameters, in order"):
                save_checkpoint(tmp_path / "model.ckpt", model_a, optimizer_b, seed=0, step=3)
        assert list(tmp_path.iterdir()) == []

    def test_no_temp_files_left_behind(self, tmp_path):
        _, _, model, optimizer, config = _trained_world()
        save_checkpoint(tmp_path / "model.ckpt", model, optimizer, seed=config.seed, step=3)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert MAGIC == (tmp_path / "model.ckpt").read_bytes()[:4]


@pytest.mark.parametrize(
    "context, gloss",
    [
        ({}, {}),
        ({"n_layers": 2, "d_ff": 24}, {"max_seq_len": 20}),
        ({"d_model": 12, "n_heads": 3, "max_seq_len": 5}, {"d_model": 12, "n_layers": 3}),
    ],
)
def test_parameter_count_matches_build_model(context, gloss):
    corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=10, seed=2)
    vocab = build_vocab(corpus, inventory, min_freq=1)
    base = dict(vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=12)
    configs = (
        EncoderConfig(**{**base, **context}),
        EncoderConfig(**{**base, **gloss}),
        FusionConfig(d_model=context.get("d_model", 8), poly_m=1, n_heads=2),
    )
    model = build_model(*configs, vocab, seed=0)
    assert parameter_count(*configs) == sum(t.size for t in model.parameters())
    assert parameter_count(*configs) == model.values.size


def test_a_load_draws_no_random_numbers(tmp_path, monkeypatch):
    _, _, model, optimizer, config = _trained_world()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, optimizer, seed=config.seed, step=3)

    def no_draws(*args, **kwargs):
        raise AssertionError("a load drew random numbers")

    # numpy.random.default_rng, as polywsd.model, .encoder and .fusion see it
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = load_checkpoint(path)
    for (_, saved), (_, got) in zip(model.named_parameters(), loaded.model.named_parameters()):
        assert saved.data.tobytes() == got.data.tobytes()
    assert loaded.optimizer.t == optimizer.t
    for saved, got in zip(optimizer.m + optimizer.v, loaded.optimizer.m + loaded.optimizer.v):
        assert saved.tobytes() == got.tobytes()


def test_a_load_peaks_at_the_bytes_it_keeps(tmp_path):
    """The payload is read into the buffers the load keeps (the values and Adam's five),
    never held as file bytes beside them: the traced peak is those buffers plus less
    than a MiB for the header and the model's objects."""
    corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=10, seed=2)
    model = tiny_model(corpus, inventory, seed=6, max_seq_len=32768)  # 4 MB of values
    optimizer = Adam(model.parameters())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, optimizer, seed=6, step=0)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.model.values.tobytes() == model.values.tobytes()
    assert peak < 6 * model.values.nbytes + (1 << 20)


def test_a_loaded_model_owns_a_writable_buffer_and_trains(tmp_path):
    corpus, inventory, model, _, config = _trained_world()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, None, seed=config.seed, step=3)
    loaded = load_checkpoint(path).model
    assert loaded.values.flags.owndata and loaded.values.flags.writeable
    assert loaded.values.tobytes() == model.values.tobytes()

    def scores():
        return [score_candidates(inst, inventory, loaded).scores for inst in corpus]

    before, stamp = scores(), _gloss_rows[loaded][0]
    randomize_parameters(loaded, seed=3)
    assert scores() != before
    restamped = _gloss_rows[loaded][0]
    assert restamped != stamp and restamped == loaded.gloss_values.tobytes()

    randomized = [p.data.copy() for p in loaded.parameters()]
    batch = make_batches(corpus, inventory, batch_size=4, seed=0, epoch=0)[0]
    train_step(batch, loaded, Adam(loaded.parameters()))
    assert all(not np.array_equal(r, p.data) for r, p in zip(randomized, loaded.parameters()))


class TestResume:
    def test_resume_matches_uninterrupted_next_step_loss(self, tmp_path):
        corpus, inventory = synthetic_corpus(n_lemmas=3, senses_per_lemma=2, n_instances=10, seed=2)
        config = TrainConfig(batch_size=4, epochs=4, learning_rate=1e-3, seed=6)

        # run A: straight through k+1 steps
        model_a = tiny_model(corpus, inventory, seed=6)
        opt_a = Adam.from_config(model_a.parameters(), config)
        metrics_a = train(model_a, opt_a, corpus, inventory, config, max_steps=4)
        uninterrupted_loss = metrics_a.records[3].loss

        # run B: k steps, checkpoint, reload, one more step
        model_b = tiny_model(corpus, inventory, seed=6)
        opt_b = Adam.from_config(model_b.parameters(), config)
        train(model_b, opt_b, corpus, inventory, config, max_steps=3)
        path = tmp_path / "resume.ckpt"
        save_checkpoint(path, model_b, opt_b, seed=config.seed, step=3)
        loaded = load_checkpoint(path)
        metrics_b = train(
            loaded.model, loaded.optimizer, corpus, inventory, config,
            start_step=loaded.step, max_steps=4,
        )
        assert len(metrics_b.records) == 1
        resumed_loss = metrics_b.records[0].loss
        assert np.float64(resumed_loss).tobytes() == np.float64(uninterrupted_loss).tobytes()


_TOP_FIELDS = (
    "context_config", "gloss_config", "fusion_config", "vocab", "seed", "step", "params",
    "optimizer",
)
_OPTIMIZER_FIELDS = ("learning_rate", "beta1", "beta2", "eps", "t")


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    _, _, model, optimizer, config = _trained_world()
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(path, model, optimizer, seed=config.seed, step=3)
    return path


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from(
        [(name,) for name in _TOP_FIELDS] + [("optimizer", name) for name in _OPTIMIZER_FIELDS]
    ),
    value=JSON_VALUES,
)
def test_fuzzed_header_field_fails_only_as_checkpoint_error(saved_checkpoint, field, value):
    """Any JSON value in place of one header field loads or raises CheckpointError."""
    path = saved_checkpoint.with_name("fuzzed.ckpt")
    path.write_bytes(saved_checkpoint.read_bytes())

    def edit(header):
        *outer, name = field
        (header[outer[0]] if outer else header)[name] = value

    _edit_header(path, edit)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


def _damaged(saved_checkpoint, raw: bytes):
    path = saved_checkpoint.with_name("damaged.ckpt")
    path.write_bytes(raw)
    return path


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_truncated_checkpoint_is_always_a_checkpoint_error(saved_checkpoint, data):
    raw = saved_checkpoint.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(CheckpointError):
        load_checkpoint(_damaged(saved_checkpoint, raw[:cut]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), mask=st.integers(1, 255))
def test_flipped_byte_is_always_a_checkpoint_error(saved_checkpoint, data, mask):
    raw = bytearray(saved_checkpoint.read_bytes())
    (hlen,) = struct.unpack("<Q", raw[8:16])
    # half the flips land in the magic, lengths or JSON header, the rest anywhere
    raw[data.draw(st.integers(0, 16 + hlen - 1) | st.integers(0, len(raw) - 1))] ^= mask
    with pytest.raises(CheckpointError):
        load_checkpoint(_damaged(saved_checkpoint, bytes(raw)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(extra=st.binary(min_size=1, max_size=64))
def test_appended_bytes_are_always_a_checkpoint_error(saved_checkpoint, extra):
    with pytest.raises(CheckpointError):
        load_checkpoint(_damaged(saved_checkpoint, saved_checkpoint.read_bytes() + extra))


@pytest.fixture(scope="module")
def trained_model():
    return _trained_world()[2]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    learning_rate=st.floats(min_value=0.0, exclude_min=True) | st.integers(1),
    eps=st.floats(min_value=0.0, exclude_min=True) | st.integers(1),
    beta1=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    beta2=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
@example(learning_rate=float("inf"), eps=1e-8, beta1=0.9, beta2=0.999)
@example(learning_rate=1e-3, eps=float("inf"), beta1=0.9, beta2=0.999)
def test_checkpoint_of_any_accepted_train_config_loads(
    saved_checkpoint, trained_model, learning_rate, eps, beta1, beta2
):
    """What TrainConfig accepts, the checkpoint loader accepts too, value for value."""
    try:
        config = TrainConfig(
            batch_size=4, epochs=1, learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps
        )
    except ConfigError:
        reject()  # infinite, or an int past the float range
    optimizer = Adam.from_config(trained_model.parameters(), config)
    path = saved_checkpoint.with_name("settings.ckpt")
    save_checkpoint(path, trained_model, optimizer, seed=0, step=0)
    loaded = load_checkpoint(path).optimizer
    assert (loaded.learning_rate, loaded.beta1, loaded.beta2, loaded.eps) == (
        learning_rate, beta1, beta2, eps
    )
