"""Command-line entry point: train, predict, eval, bench, gradcheck, baseline, synth."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    build_vocab,
    load_corpus,
    load_inventory,
    parse_json,
    save_corpus,
    save_gold_keys,
    save_inventory,
    save_predictions,
)
from .encoder import EncoderConfig
from .errors import ConfigError, DataError, PolyWsdError, check_positive_ints, is_count
from .evaluation import compare_costs, config_fingerprint, save_metrics, score_f1
from .fusion import FusionConfig
from .model import build_model, randomize_parameters
from .predict import first_sense_predictor, mfs_predictor, predict_corpus
from .synthetic import gold_keys, synthetic_corpus
from .training import (
    MODE_ALL_CANDIDATES,
    MODE_CONTRASTIVE,
    MODES,
    Adam,
    RunMetrics,
    TrainConfig,
    check_bcl_gradients,
    make_batches,
    train,
)

DEFAULT_CONFIG = {
    "encoder": {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32, "max_seq_len": 16},
    "fusion": {"poly_m": 2, "n_heads": 2},
    "train": {"batch_size": 8, "epochs": 20, "learning_rate": 1e-3, "min_freq": 1},
}


def _load_config(path) -> dict:
    """The default config, overlaid section by section with the JSON file at ``path``."""
    merged = {section: dict(values) for section, values in DEFAULT_CONFIG.items()}
    if path is None:
        return merged
    with open(path, "rb") as fh:
        config = parse_json(fh.read(), path, ConfigError, "config JSON")
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for section, values in config.items():
        if section not in merged:
            raise ConfigError(
                f"{path}: unknown section {section!r}, expected one of {list(merged)}"
            )
        if not isinstance(values, dict):
            raise ConfigError(f"{path}: section {section!r} must be a JSON object")
        merged[section].update(values)
    return merged


def _section(build, source, section: str, values: dict, origin: str = "", **fixed):
    """``build`` (a config dataclass or check) applied to a config section's values
    and the ``fixed`` ones, which come from ``origin``, not the section; bad keys
    and values, and a fixed key set in the section, name the file and the section."""
    where = f"{source or 'default config'}: section {section!r}"
    if clash := sorted(fixed.keys() & values.keys()):
        raise ConfigError(f"{where}: the {clash[0]} is set by {origin}, not the config")
    try:
        return build(**fixed, **values)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _model_configs(config: dict, source, vocab_size: int) -> tuple[EncoderConfig, FusionConfig]:
    encoder_config = _section(
        EncoderConfig, source, "encoder", config["encoder"], "the vocabulary", vocab_size=vocab_size
    )
    fusion_config = _section(
        FusionConfig, source, "fusion", config["fusion"], "the encoder section",
        d_model=encoder_config.d_model,
    )
    return encoder_config, fusion_config


def _train_config(config: dict, source, seed: int) -> tuple[int, TrainConfig]:
    """The train section's ``min_freq`` and the rest of it as a ``TrainConfig``."""
    section = dict(config["train"])
    min_freq = section.pop("min_freq", 1)
    _section(check_positive_ints, source, "train", {"min_freq": min_freq})
    return min_freq, _section(TrainConfig, source, "train", section, "--seed", seed=seed)


def _file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_output_path(flag: str, path, args, *others: str) -> None:
    """Fail before any work if ``path`` cannot be written as a file, or if it names
    the same file as one of the flags ``others`` of ``args``."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"{flag} {path}: directory {parent} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"{flag} {path}: is a directory")
    for other in others:
        given = getattr(args, other[2:].replace("-", "_"))
        if given is not None and os.path.realpath(given) == os.path.realpath(path):
            raise ConfigError(f"{flag} {path}: names the same file as {other}")


def _build_world(args, config):
    corpus = load_corpus(args.corpus)
    inventory = load_inventory(args.inventory)
    min_freq, train_config = _train_config(config, args.config, args.seed)
    vocab = build_vocab(corpus, inventory, min_freq=min_freq)
    encoder_config, fusion_config = _model_configs(config, args.config, vocab.size)
    fingerprint = config_fingerprint(
        asdict(encoder_config),
        asdict(fusion_config),
        asdict(train_config),
        _file_digest(args.corpus),
        _file_digest(args.inventory),
    )
    return corpus, inventory, vocab, encoder_config, fusion_config, train_config, fingerprint


def _build_model(source, enc_cfg, fus_cfg, vocab, seed: int):
    """``build_model`` with both encoders on ``enc_cfg``; its errors name the config."""
    try:
        return build_model(enc_cfg, enc_cfg, fus_cfg, vocab, seed=seed)
    except ConfigError as exc:
        raise ConfigError(f"{source or 'default config'}: section 'encoder': {exc}") from None


def _train_and_save(world, source, mode: str, checkpoint_path, metrics_path) -> RunMetrics:
    """Build a fresh model, train it in ``mode``, and save its checkpoint and metrics log."""
    corpus, inventory, vocab, enc_cfg, fus_cfg, train_cfg, fingerprint = world
    model = _build_model(source, enc_cfg, fus_cfg, vocab, train_cfg.seed)
    optimizer = Adam.from_config(model.parameters(), train_cfg)
    metrics = train(
        model, optimizer, corpus, inventory, train_cfg, mode=mode, fingerprint=fingerprint
    )
    steps = len(metrics.records)
    save_checkpoint(checkpoint_path, model, optimizer, seed=train_cfg.seed, step=steps)
    save_metrics(metrics_path, metrics)
    return metrics


def _load_corpus_to_predict(path) -> list:
    """``load_corpus``, and a DataError for a repeated instance id, before any prediction."""
    corpus, seen = load_corpus(path), set()
    for inst in corpus:
        if inst.id in seen:
            raise DataError(f"duplicate instance id {inst.id!r} in corpus")
        seen.add(inst.id)
    return corpus


def _cmd_train(args) -> int:
    metrics_path = args.metrics if args.metrics else f"{args.out}.metrics.jsonl"
    inputs = ("--corpus", "--inventory", "--config")
    _check_output_path("--out", args.out, args, *inputs)
    _check_output_path("--metrics", metrics_path, args, *inputs, "--out")
    world = _build_world(args, _load_config(args.config))
    metrics = _train_and_save(world, args.config, args.mode, args.out, metrics_path)
    steps = len(metrics.records)
    final_loss = metrics.records[-1].loss if metrics.records else float("nan")
    print(
        f"trained {steps} steps ({args.mode}); final loss {final_loss:.6f}; "
        f"context forwards {metrics.context_forwards}, gloss forwards {metrics.gloss_forwards}; "
        f"wall {metrics.wall_seconds:.2f}s; checkpoint -> {args.out}"
    )
    return 0


def _cmd_predict(args) -> int:
    _check_output_path("--out", args.out, args, "--checkpoint", "--corpus", "--inventory")
    loaded = load_checkpoint(args.checkpoint)
    corpus = _load_corpus_to_predict(args.corpus)
    inventory = load_inventory(args.inventory)
    predictions = predict_corpus(corpus, inventory, loaded.model)
    save_predictions(args.out, {p.instance_id: p.sense_id for p in predictions})
    print(f"wrote {len(predictions)} predictions -> {args.out}")
    return 0


def _format_report(report) -> str:
    lines = [
        f"gold {report.counts.total_gold}, attempted {report.counts.attempted}, "
        f"correct {report.counts.correct}",
        f"precision {report.precision:.6f}",
        f"recall {report.recall:.6f}",
        f"micro_f1 {report.micro_f1:.6f}",
    ]
    for pos, f1 in report.per_pos.items():
        counts = report.per_pos_counts[pos]
        lines.append(f"{pos} f1 {f1:.6f} ({counts.correct}/{counts.total_gold})")
    return "\n".join(lines)


def _cmd_eval(args) -> int:
    if args.out:
        _check_output_path("--out", args.out, args, "--predictions", "--gold", "--corpus")
    corpus = load_corpus(args.corpus) if args.corpus else None
    report = score_f1(args.predictions, args.gold, corpus)
    print(_format_report(report))
    if args.out:
        payload = {
            "micro_f1": report.micro_f1,
            "precision": report.precision,
            "recall": report.recall,
            "counts": asdict(report.counts),
            "per_pos": report.per_pos,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_bench(args) -> int:
    world = _build_world(args, _load_config(args.config))
    os.makedirs(args.out_dir, exist_ok=True)
    runs = [
        _train_and_save(
            world,
            args.config,
            mode,
            os.path.join(args.out_dir, f"model_{mode}.ckpt"),
            os.path.join(args.out_dir, f"metrics_{mode}.jsonl"),
        )
        for mode in (MODE_CONTRASTIVE, MODE_ALL_CANDIDATES)
    ]
    comparison = compare_costs(*runs)
    for run in (comparison.run, comparison.baseline):
        print(
            f"{run.mode}: gloss forwards {run.gloss_forwards}, "
            f"context forwards {run.context_forwards}, "
            f"wall {run.wall_seconds:.2f}s, device-hours {run.device_hours:.6f}"
        )
    print(f"gloss-forward reduction: {comparison.gloss_forward_reduction:.4%}")
    print(f"wall-clock reduction: {comparison.wall_clock_reduction:.4%}")
    return 0


def _cmd_gradcheck(args) -> int:
    config = _load_config(args.config)
    if args.config is None:
        # small default so the check stays quick
        config["encoder"].update({"d_model": 8, "d_ff": 16, "max_seq_len": 12})
    _train_config(config, args.config, args.seed)  # checked as train checks it, though unused
    corpus, inventory = synthetic_corpus(
        n_lemmas=3, senses_per_lemma=2, n_instances=6, seed=args.seed
    )
    vocab = build_vocab(corpus, inventory, min_freq=1)
    enc_cfg, fus_cfg = _model_configs(config, args.config, vocab.size)
    model = _build_model(args.config, enc_cfg, fus_cfg, vocab, args.seed)
    randomize_parameters(model, seed=args.seed)
    batch = make_batches(corpus, inventory, batch_size=3, seed=args.seed, epoch=0)[0]
    error = check_bcl_gradients(batch, model, h=1e-4)
    n_params = sum(t.size for t in model.parameters())
    print(f"checked {n_params} parameters; max relative error {error:.3e} (threshold 1e-4)")
    if error >= 1e-4:
        print("gradient check FAILED", file=sys.stderr)
        return 1
    print("gradient check passed")
    return 0


def _cmd_baseline(args) -> int:
    _check_output_path("--out", args.out, args, "--corpus", "--train-corpus", "--inventory")
    corpus = _load_corpus_to_predict(args.corpus)
    inventory = load_inventory(args.inventory)
    if args.method == "mfs":
        train_path = args.train_corpus if args.train_corpus else args.corpus
        predictor = mfs_predictor(load_corpus(train_path), inventory)
    else:
        predictor = first_sense_predictor(inventory)
    save_predictions(args.out, {inst.id: predictor(inst).sense_id for inst in corpus})
    print(f"wrote {len(corpus)} {args.method} predictions -> {args.out}")
    return 0


def _cmd_synth(args) -> int:
    sizes = {"--lemmas": args.lemmas, "--senses": args.senses, "--instances": args.instances}
    check_positive_ints(**sizes)
    os.makedirs(args.out_dir, exist_ok=True)
    corpus, inventory = synthetic_corpus(
        n_lemmas=args.lemmas,
        senses_per_lemma=args.senses,
        n_instances=args.instances,
        seed=args.seed,
    )
    save_corpus(os.path.join(args.out_dir, "corpus.jsonl"), corpus)
    save_inventory(os.path.join(args.out_dir, "inventory.jsonl"), inventory)
    save_gold_keys(os.path.join(args.out_dir, "gold.key"), gold_keys(corpus))
    print(
        f"wrote {len(corpus)} instances over {args.lemmas} lemmas "
        f"({args.senses} senses each) -> {args.out_dir}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polywsd",
        description="Train, run, and evaluate the gloss-matching sense disambiguator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--inventory", required=True)
    p_train.add_argument("--config", default=None, help="JSON config file")
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    p_train.add_argument(
        "--metrics", default=None,
        help="metrics log output path (default: <checkpoint>.metrics.jsonl)",
    )
    p_train.add_argument("--mode", choices=MODES, default=MODE_CONTRASTIVE)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.set_defaults(handler=_cmd_train)

    p_predict = sub.add_parser("predict", help="predict senses with a trained checkpoint")
    p_predict.add_argument("--checkpoint", required=True)
    p_predict.add_argument("--corpus", required=True)
    p_predict.add_argument("--inventory", required=True)
    p_predict.add_argument("--out", required=True)
    p_predict.set_defaults(handler=_cmd_predict)

    p_eval = sub.add_parser("eval", help="score predictions against gold keys")
    p_eval.add_argument("--predictions", required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--corpus", default=None, help="corpus for the per-POS breakdown")
    p_eval.add_argument("--out", default=None, help="optional JSON report path")
    p_eval.set_defaults(handler=_cmd_eval)

    p_bench = sub.add_parser("bench", help="train both regimes and compare costs")
    p_bench.add_argument("--corpus", required=True)
    p_bench.add_argument("--inventory", required=True)
    p_bench.add_argument("--config", default=None)
    p_bench.add_argument("--out-dir", required=True)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(handler=_cmd_bench)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of the full loss")
    p_grad.add_argument("--config", default=None)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(handler=_cmd_gradcheck)

    p_base = sub.add_parser("baseline", help="run the mfs or first-sense baseline")
    p_base.add_argument("--method", choices=("mfs", "s1"), required=True)
    p_base.add_argument("--corpus", required=True, help="corpus to predict on")
    p_base.add_argument("--train-corpus", default=None, help="labelled corpus for mfs counts")
    p_base.add_argument("--inventory", required=True)
    p_base.add_argument("--out", required=True)
    p_base.set_defaults(handler=_cmd_baseline)

    p_synth = sub.add_parser("synth", help="write a synthetic corpus, inventory, and gold keys")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--lemmas", type=int, default=10)
    p_synth.add_argument("--senses", type=int, default=3)
    p_synth.add_argument("--instances", type=int, default=50)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(handler=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not is_count(getattr(args, "seed", 0)):
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.handler(args)
    except (PolyWsdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
