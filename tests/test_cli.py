"""CLI: end-to-end pipeline, bench, gradcheck, baselines, failure modes."""

import json
import struct

import pytest

from polywsd.cli import main
from polywsd.data import load_predictions
from polywsd.evaluation import score_f1

from conftest import restamp_checksum


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic world plus a short training config shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert (
        main(
            [
                "synth",
                "--out-dir", str(root),
                "--lemmas", "4",
                "--senses", "3",
                "--instances", "16",
                "--seed", "1",
            ]
        )
        == 0
    )
    config = root / "config.json"
    config.write_text(
        json.dumps({"train": {"batch_size": 4, "epochs": 8, "learning_rate": 2e-3}}),
        encoding="utf-8",
    )
    return root


def test_end_to_end_train_predict_eval(workspace, capsys):
    ckpt = workspace / "model.ckpt"
    pred = workspace / "pred.tsv"
    report_json = workspace / "report.json"

    assert main(
        [
            "train",
            "--corpus", str(workspace / "corpus.jsonl"),
            "--inventory", str(workspace / "inventory.jsonl"),
            "--config", str(workspace / "config.json"),
            "--out", str(ckpt),
            "--metrics", str(workspace / "metrics.jsonl"),
            "--seed", "3",
        ]
    ) == 0
    assert ckpt.exists()

    assert main(
        [
            "predict",
            "--checkpoint", str(ckpt),
            "--corpus", str(workspace / "corpus.jsonl"),
            "--inventory", str(workspace / "inventory.jsonl"),
            "--out", str(pred),
        ]
    ) == 0
    assert len(load_predictions(pred)) == 16

    assert main(
        [
            "eval",
            "--predictions", str(pred),
            "--gold", str(workspace / "gold.key"),
            "--corpus", str(workspace / "corpus.jsonl"),
            "--out", str(report_json),
        ]
    ) == 0
    printed = capsys.readouterr().out

    report = score_f1(pred, workspace / "gold.key")
    assert f"micro_f1 {report.micro_f1:.6f}" in printed
    saved = json.loads(report_json.read_text(encoding="utf-8"))
    assert saved["micro_f1"] == report.micro_f1


def test_bench_reports_exact_reduction(workspace, capsys):
    out_dir = workspace / "bench"
    assert main(
        [
            "bench",
            "--corpus", str(workspace / "corpus.jsonl"),
            "--inventory", str(workspace / "inventory.jsonl"),
            "--config", str(workspace / "config.json"),
            "--out-dir", str(out_dir),
            "--seed", "3",
        ]
    ) == 0
    printed = capsys.readouterr().out
    assert "gloss-forward reduction: 66.6667%" in printed
    assert (out_dir / "metrics_bcl.jsonl").exists()
    assert (out_dir / "metrics_all-candidates.jsonl").exists()


@pytest.mark.parametrize(
    "command,flags,message",
    [
        *(
            (command, ["--seed", "-1"], "--seed must be a non-negative integer, got -1")
            for command in ("train", "bench", "gradcheck", "synth")
        ),
        ("synth", ["--lemmas", "0"], "--lemmas must be positive, got 0"),
        ("synth", ["--senses", "0"], "--senses must be positive, got 0"),
        ("synth", ["--instances", "0"], "--instances must be positive, got 0"),
        ("synth", ["--instances", "-5"], "--instances must be positive, got -5"),
    ],
    ids=[
        "train-seed", "bench-seed", "gradcheck-seed", "synth-seed",
        "synth-lemmas-zero", "synth-senses-zero", "synth-instances-zero",
        "synth-instances-negative",
    ],
)
def test_bad_flag_value_is_a_located_error(workspace, tmp_path, capsys, command, flags, message):
    out = tmp_path / "never"
    argv = {
        "train": ["--out", str(out)],
        "bench": ["--out-dir", str(out)],
        "gradcheck": [],
        "synth": ["--out-dir", str(out)],
    }[command]
    if command in ("train", "bench"):
        argv += [
            "--corpus", str(workspace / "corpus.jsonl"),
            "--inventory", str(workspace / "inventory.jsonl"),
        ]
    assert main([command, *argv, *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gradcheck_exits_zero(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    assert "passed" in capsys.readouterr().out


def test_baselines(workspace):
    s1_path = workspace / "s1.tsv"
    mfs_path = workspace / "mfs.tsv"
    assert main(
        [
            "baseline",
            "--method", "s1",
            "--corpus", str(workspace / "corpus.jsonl"),
            "--inventory", str(workspace / "inventory.jsonl"),
            "--out", str(s1_path),
        ]
    ) == 0
    assert main(
        [
            "baseline",
            "--method", "mfs",
            "--corpus", str(workspace / "corpus.jsonl"),
            "--train-corpus", str(workspace / "corpus.jsonl"),
            "--inventory", str(workspace / "inventory.jsonl"),
            "--out", str(mfs_path),
        ]
    ) == 0
    s1 = load_predictions(s1_path)
    assert len(s1) == 16
    assert all(sense.endswith("%1") for sense in s1.values())
    # mfs counts come from the gold labels themselves, so mfs beats or ties s1
    s1_f1 = score_f1(s1_path, workspace / "gold.key").micro_f1
    mfs_f1 = score_f1(mfs_path, workspace / "gold.key").micro_f1
    assert mfs_f1 >= s1_f1


def test_unknown_flag_is_a_usage_error(workspace):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--no-such-flag", "x"])
    assert err.value.code == 2


@pytest.mark.parametrize("command,out", [("train", "--out"), ("bench", "--out-dir")])
def test_device_count_is_not_a_flag(workspace, command, out):
    """Runs are one process: device-hours are the run's wall-clock hours, not declared."""
    with pytest.raises(SystemExit) as err:
        main(
            [
                command,
                "--corpus", str(workspace / "corpus.jsonl"),
                "--inventory", str(workspace / "inventory.jsonl"),
                out, str(workspace / "never"),
                "--device-count", "2",
            ]
        )
    assert err.value.code == 2
    assert not (workspace / "never").exists()


@pytest.mark.parametrize("flag", ["--out", "--metrics"])
@pytest.mark.parametrize("bad", ["missing-dir", "a-dir"])
def test_train_output_path_is_checked_before_training(workspace, tmp_path, capsys, flag, bad):
    (tmp_path / "a-dir").mkdir()
    target = tmp_path / "missing-dir" / "file" if bad == "missing-dir" else tmp_path / "a-dir"
    paths = {"--out": tmp_path / "m.ckpt", "--metrics": tmp_path / "m.jsonl", flag: target}
    code = main(
        [
            "train",
            "--corpus", str(workspace / "corpus.jsonl"),
            "--inventory", str(workspace / "inventory.jsonl"),
            "--out", str(paths["--out"]),
            "--metrics", str(paths["--metrics"]),
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = f"directory {target.parent} does not exist" if bad == "missing-dir" else "is a directory"
    assert captured.err == f"error: {flag} {target}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir"]
    assert not any((tmp_path / "a-dir").iterdir())


@pytest.mark.parametrize("command", ["predict", "baseline", "eval"])
@pytest.mark.parametrize("bad", ["missing-dir", "a-dir"])
def test_out_path_is_checked_before_any_input_is_read(workspace, tmp_path, capsys, command, bad):
    """Each command fails on a bad --out before it reads anything: predict does so
    even though its checkpoint does not exist."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "a-dir").mkdir()
    predictions = inputs / "pred.tsv"
    predictions.write_text(
        (workspace / "gold.key").read_text(encoding="utf-8").replace(" ", "\t"), encoding="utf-8"
    )
    target = tmp_path / "missing-dir" / "out" if bad == "missing-dir" else inputs / "a-dir"
    world = ["--corpus", str(workspace / "corpus.jsonl")]
    inventory = ["--inventory", str(workspace / "inventory.jsonl")]
    argv = {
        "predict": ["--checkpoint", str(tmp_path / "no-such.ckpt"), *world, *inventory],
        "baseline": ["--method", "mfs", *world, *inventory],
        "eval": ["--predictions", str(predictions), "--gold", str(workspace / "gold.key"), *world],
    }[command]
    assert main([command, *argv, "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = f"directory {target.parent} does not exist" if bad == "missing-dir" else "is a directory"
    assert captured.err == f"error: --out {target}: {reason}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a-dir", "inputs", "pred.tsv"]


def test_missing_file_is_reported(workspace, capsys):
    code = main(
        [
            "eval",
            "--predictions", str(workspace / "does-not-exist.tsv"),
            "--gold", str(workspace / "gold.key"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,located",
    [
        (json.dumps({"fusion": {"bogus": 1}}), "section 'fusion'"),
        (json.dumps({"encoder": {"d_model": "16"}}), "section 'encoder'"),
        (json.dumps({"train": {"learning_rate": "0.1"}}), "section 'train'"),
        (json.dumps({"trian": {"epochs": 1}}), "unknown section 'trian'"),
        (json.dumps({"train": [1]}), "section 'train' must be a JSON object"),
        ("{not json", "malformed config JSON"),
        (json.dumps({"encoder": {"d_model": 16.0}}), "section 'encoder'"),
        (json.dumps({"encoder": {"n_layers": True}}), "section 'encoder'"),
        (json.dumps({"fusion": {"n_heads": 2.0}}), "section 'fusion'"),
        (json.dumps({"fusion": {"poly_m": "2"}}), "section 'fusion'"),
        (json.dumps({"train": {"min_freq": "2"}}), "section 'train'"),
        (json.dumps({"train": {"min_freq": 1.5}}), "section 'train'"),
        (json.dumps({"train": {"min_freq": 0}}), "section 'train'"),
        (json.dumps({"train": {"batch_size": 2.5}}), "section 'train'"),
        (json.dumps({"train": {"epochs": 1.5}}), "section 'train'"),
        (json.dumps({"train": {"epochs": True}}), "section 'train'"),
        (json.dumps({"train": {"seed": -1}}), "section 'train': the seed is set by --seed"),
        (json.dumps({"train": {"learning_rate": True}}), "section 'train'"),
        (json.dumps({"train": {"learning_rate": float("nan")}}), "section 'train'"),
        *(
            (json.dumps({"train": {name: value}}), "section 'train'")
            for name in ("beta1", "beta2")
            for value in (1.5, 1.0, 0.0)
        ),
        ("[" * 100_000, "malformed config JSON"),
        (b'{"train": {"eps": \xff}}', "malformed config JSON"),
        *(
            (json.dumps({"train": {name: value}}), "section 'train'")
            for name in ("eps", "learning_rate", "clip_norm")
            for value in (float("inf"), 10**400)
        ),
        # a null is checked like any other value, not dropped for the default
        *(
            (json.dumps({"train": {name: None}}), f"section 'train': {name} must be")
            for name in ("learning_rate", "beta1", "beta2", "eps", "batch_size", "epochs")
        ),
        (json.dumps({"train": {"seed": None}}), "section 'train': the seed is set by --seed"),
        (
            json.dumps({"encoder": {"vocab_size": 7}}),
            "section 'encoder': the vocab_size is set by the vocabulary",
        ),
        (
            json.dumps({"fusion": {"d_model": 8}}),
            "section 'fusion': the d_model is set by the encoder section",
        ),
    ],
    ids=[
        "unknown-key", "encoder-type", "train-type", "unknown-section", "section-type", "json",
        "encoder-float", "encoder-bool", "fusion-float", "fusion-string",
        "min-freq-string", "min-freq-float", "min-freq-zero",
        "batch-size-float", "epochs-float", "epochs-bool", "seed-in-config",
        "learning-rate-bool", "learning-rate-nan",
        *(f"{name}-{value}" for name in ("beta1", "beta2") for value in (1.5, 1.0, 0.0)),
        "deeply-nested", "not-utf8",
        *(
            f"{name}-{value}"
            for name in ("eps", "learning-rate", "clip-norm")
            for value in ("inf", "huge-int")
        ),
        *(
            f"{name}-null"
            for name in ("learning-rate", "beta1", "beta2", "eps", "batch-size", "epochs")
        ),
        "seed-null", "vocab-size-in-config", "fusion-d-model-in-config",
    ],
)
def test_bad_config_is_a_located_error(workspace, tmp_path, capsys, text, located):
    config = tmp_path / "bad.json"
    config.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    code = main(
        [
            "train",
            "--corpus", str(workspace / "corpus.jsonl"),
            "--inventory", str(workspace / "inventory.jsonl"),
            "--config", str(config),
            "--out", str(tmp_path / "never.ckpt"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {config}: ") and located in err
    assert not (tmp_path / "never.ckpt").exists()


def test_null_clip_norm_means_no_clipping(workspace, tmp_path):
    """``"clip_norm": null`` trains exactly as a config without the key."""
    paths = []
    for name, train_section in (("null", {"clip_norm": None}), ("absent", {})):
        config, ckpt = tmp_path / f"{name}.json", tmp_path / f"{name}.ckpt"
        config.write_text(json.dumps({"train": {"epochs": 2, **train_section}}), encoding="utf-8")
        assert main(
            [
                "train",
                "--corpus", str(workspace / "corpus.jsonl"),
                "--inventory", str(workspace / "inventory.jsonl"),
                "--config", str(config),
                "--out", str(ckpt),
            ]
        ) == 0
        paths.append(ckpt)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _predict_on_edited_checkpoint(workspace, tmp_path, capsys, edit, body=None):
    """Train, rewrite the checkpoint's JSON header through ``edit`` (or replace it by
    ``body``), then predict; returns the exit code and stderr, and checks no
    predictions were written."""
    ckpt = tmp_path / "model.ckpt"
    corpus, inventory = workspace / "corpus.jsonl", workspace / "inventory.jsonl"
    assert main(
        [
            "train",
            "--corpus", str(corpus),
            "--inventory", str(inventory),
            "--config", str(workspace / "config.json"),
            "--out", str(ckpt),
        ]
    ) == 0
    raw = ckpt.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    edit(header)
    body = body or json.dumps(header, sort_keys=True).encode("utf-8")
    ckpt.write_bytes(
        restamp_checksum(raw[:8] + struct.pack("<Q", len(body)) + body + raw[16 + hlen :])
    )
    capsys.readouterr()
    code = main(
        [
            "predict",
            "--checkpoint", str(ckpt),
            "--corpus", str(corpus),
            "--inventory", str(inventory),
            "--out", str(tmp_path / "pred.tsv"),
        ]
    )
    assert not (tmp_path / "pred.tsv").exists()
    return code, capsys.readouterr().err


def test_checkpoint_missing_optimizer_field_is_an_error(workspace, tmp_path, capsys):
    code, err = _predict_on_edited_checkpoint(
        workspace, tmp_path, capsys, lambda header: header["optimizer"].pop("beta1")
    )
    assert code == 1
    assert err.startswith("error: ") and "'beta1'" in err


def test_checkpoint_non_integer_seed_is_an_error(workspace, tmp_path, capsys):
    code, err = _predict_on_edited_checkpoint(
        workspace, tmp_path, capsys, lambda header: header.update(seed="abc")
    )
    assert code == 1
    assert err.startswith("error: ") and "'seed'" in err


def test_gradcheck_bad_config_is_a_located_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"fusion": {"bogus": 1}}), encoding="utf-8")
    assert main(["gradcheck", "--config", str(config)]) == 1
    assert f"error: {config}: section 'fusion'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "train, message",
    [
        ({"learning_rate": "x", "batch_size": 0}, "batch_size must be positive, got 0"),
        ({"min_freq": 0}, "min_freq must be positive, got 0"),
    ],
)
def test_gradcheck_checks_the_train_section_as_train_does(
    workspace, tmp_path, capsys, train, message
):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"train": train}), encoding="utf-8")
    located = f"error: {config}: section 'train': {message}"
    assert main(["gradcheck", "--config", str(config)]) == 1
    assert located in capsys.readouterr().err
    train_args = [
        "train",
        "--corpus", str(workspace / "corpus.jsonl"),
        "--inventory", str(workspace / "inventory.jsonl"),
        "--config", str(config),
        "--out", str(tmp_path / "m.ckpt"),
    ]
    assert main(train_args) == 1
    assert located in capsys.readouterr().err


def test_non_integer_target_index_is_a_located_error(workspace, tmp_path, capsys):
    lines = (workspace / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["target_index"] = "x"
    lines[1] = json.dumps(record)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(
        [
            "baseline",
            "--method", "s1",
            "--corpus", str(corpus),
            "--inventory", str(workspace / "inventory.jsonl"),
            "--out", str(tmp_path / "s1.tsv"),
        ]
    )
    assert code == 1
    assert f"error: {corpus}:2: target_index" in capsys.readouterr().err


def test_duplicate_instance_id_is_an_error(workspace, tmp_path, capsys):
    lines = (workspace / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines + lines[:1]) + "\n", encoding="utf-8")
    code = main(
        [
            "baseline",
            "--method", "s1",
            "--corpus", str(corpus),
            "--inventory", str(workspace / "inventory.jsonl"),
            "--out", str(tmp_path / "s1.tsv"),
        ]
    )
    assert code == 1
    first_id = json.loads(lines[0])["id"]
    assert f"error: duplicate instance id {first_id!r} in corpus" in capsys.readouterr().err
    assert not (tmp_path / "s1.tsv").exists()


def _assert_located_error(capsys, argv, location):
    code = main([str(arg) for arg in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {location}") and "Traceback" not in err


def _with_bad_byte(path, tmp_path):
    """A copy of ``path`` with byte 0xff inserted into its second line."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
    bad = tmp_path / f"bad-{path.name}"
    bad.write_bytes(b"".join(lines))
    return bad


def test_corpus_byte_that_is_not_utf8_is_a_located_error(workspace, tmp_path, capsys):
    corpus = _with_bad_byte(workspace / "corpus.jsonl", tmp_path)
    argv = [
        "baseline", "--method", "s1", "--corpus", corpus,
        "--inventory", workspace / "inventory.jsonl", "--out", tmp_path / "s1.tsv",
    ]
    _assert_located_error(capsys, argv, f"{corpus}:2: ")
    assert not (tmp_path / "s1.tsv").exists()


def test_inventory_byte_that_is_not_utf8_is_a_located_error(workspace, tmp_path, capsys):
    inventory = _with_bad_byte(workspace / "inventory.jsonl", tmp_path)
    argv = [
        "train", "--corpus", workspace / "corpus.jsonl", "--inventory", inventory,
        "--out", tmp_path / "never.ckpt",
    ]
    _assert_located_error(capsys, argv, f"{inventory}:2: ")
    assert not (tmp_path / "never.ckpt").exists()


@pytest.mark.parametrize("bad_file", ["predictions", "gold"])
def test_key_file_byte_that_is_not_utf8_is_a_located_error(workspace, tmp_path, capsys, bad_file):
    gold = workspace / "gold.key"
    predictions = tmp_path / "pred.tsv"
    predictions.write_bytes(gold.read_bytes().replace(b" ", b"\t"))
    paths = {"predictions": predictions, "gold": gold}
    paths[bad_file] = _with_bad_byte(paths[bad_file], tmp_path)
    argv = ["eval", "--predictions", paths["predictions"], "--gold", paths["gold"]]
    _assert_located_error(capsys, argv, f"{paths[bad_file]}:2: ")


def test_deeply_nested_corpus_line_is_a_located_error(workspace, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((workspace / "corpus.jsonl").read_bytes() + b"[" * 100_000 + b"\n")
    argv = [
        "baseline", "--method", "s1", "--corpus", corpus,
        "--inventory", workspace / "inventory.jsonl", "--out", tmp_path / "s1.tsv",
    ]
    _assert_located_error(capsys, argv, f"{corpus}:17: malformed record")


def test_deeply_nested_checkpoint_header_is_an_error(workspace, tmp_path, capsys):
    code, err = _predict_on_edited_checkpoint(
        workspace, tmp_path, capsys, lambda header: None, body=b"[" * 100_000
    )
    assert code == 1
    assert err.startswith(f"error: {tmp_path / 'model.ckpt'}: malformed checkpoint header")
