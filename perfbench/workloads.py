"""The three benchmark workloads, their output checks and their metrics.

Each workload is a closed loop with one client in one thread: the next op
starts when the previous one has returned. An op is one training step
(``bcl-desk``, ``allcand-polysemous``) or one predicted instance
(``predict-polysemous``). The benchmark reaches the program only through
its public functions and times every call from here.

A run has three phases:

1. Set-up, repeated ``Scale.setups`` times and reported as the median:
   load the world files, build the vocabulary, build the model (and, for
   prediction, train it and save the checkpoint the timed phase loads).
2. The timed phase, ``seconds`` long: whole training rounds from a fresh
   model (checkpoint saved at every epoch end), or whole passes over the
   held-out split (checkpoint loaded at the start of each pass). The first
   round or pass always completes; later ones stop at the deadline. With
   tracing on, every second op of a round runs with the probes installed,
   so traced and untraced ops interleave and their difference is the
   tracing cost. Counts come from complete rounds only, so they repeat
   exactly; times come from every traced op.
3. Checks, outside the timed phase. An op that raises or fails its own
   check is a failed op, and so is every failed run-level check.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

import polywsd.checkpoint
import polywsd.model
import polywsd.training
from polywsd.data import build_vocab
from polywsd.encoder import EncoderConfig
from polywsd.evaluation import score_keys
from polywsd.fusion import FusionConfig, score_pair
from polywsd.model import build_model, context_codes, gloss_codes
from polywsd.synthetic import synthetic_corpus

from calibration import CalibratedClock
from polyworld import World, polysemous_world, read_world, write_world
from spans import Tracer

# the package re-exports the function ``predict`` under the submodule's name
predict_module = importlib.import_module("polywsd.predict")

WORKLOADS = ("bcl-desk", "allcand-polysemous", "predict-polysemous")


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    setups: int  # set-up repetitions for the training workloads
    predict_setups: int  # for prediction, whose set-up trains a model
    desk_held_out: int
    poly_lemmas: int


FULL = Scale(setups=60, predict_setups=3, desk_held_out=300, poly_lemmas=3)
TINY = Scale(setups=2, predict_setups=2, desk_held_out=30, poly_lemmas=1)

DESK_EPOCHS = 20  # the CLI default
ALLCAND_EPOCHS = 5
PREDICT_TRAIN_EPOCHS = 8
REFERENCE_SAMPLE = 24  # held-out instances checked against the reference argmax

# The program's own seed stays at the CLI default; --seed varies the inputs.
PROGRAM_SEED = 0


@dataclass(frozen=True)
class ModelSpec:
    """The CLI's desk-scale defaults, with max_seq_len and learning rate per world."""

    max_seq_len: int
    learning_rate: float
    d_model: int = 16
    n_layers: int = 1
    n_heads: int = 2
    d_ff: int = 32
    poly_m: int = 2
    batch_size: int = 8


DESK = ModelSpec(max_seq_len=16, learning_rate=1e-3)
POLY = ModelSpec(max_seq_len=32, learning_rate=3e-3)


@dataclass
class Round:
    """One training round or prediction pass."""

    complete: bool = False
    losses: list[float] = field(default_factory=list)
    predictions: dict[str, str] = field(default_factory=dict)
    items: int = 0
    gloss_forwards: int = 0
    context_forwards: int = 0
    ops: int = 0  # ops attempted; the odd-numbered ones are traced
    spans: tuple[int, int] = (0, 0)  # index range of the round's spans
    model: object = None
    optimizer: object = None
    steps: int = 0


@dataclass
class Chunk:
    """The timed work of one epoch, or one prediction pass, and its instances."""

    work: list[tuple[float, float]] = field(default_factory=list)  # (start, seconds)
    items: int = 0
    complete: bool = False


class Bench:
    """Everything one run measures, counts and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: Scale, workdir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.workdir = workdir
        self.tracer = Tracer(enabled=trace)
        self.clock: CalibratedClock | None = None
        self.ops: list[tuple[float, float, bool]] = []  # (start, seconds, traced) of ops that returned
        self.round_ops = 0  # ops attempted in the current round
        self.raised = 0  # ops that raised
        self.op_failures = 0  # ops that raised or returned a wrong output
        self.chunks: list[Chunk] = []
        self.checkpoint_s = 0.0
        self.setup_s: list[float] = []
        self.data_load_s: list[float] = []
        self.build_vocab_s: list[float] = []
        self.saves_s: list[float] = []
        self.loads_s: list[float] = []
        self.batching_s: list[float] = []
        self.checkpoint_bytes = 0
        self.evaluation_s = 0.0
        self.distinct_gloss_ratios: list[float] = []  # per complete prediction pass
        self.checks = 0
        self.failures: list[str] = []
        self.rounds: list[Round] = []
        self.mean_train_loss = float("nan")
        self.micro_f1 = float("nan")
        self.first_sense_f1 = float("nan")

    # -- bookkeeping -------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks += 1
        if not ok:
            self.failures.append(f"check failed: {name}: {detail}")
        return ok

    def fail_op(self, what: str) -> None:
        self.op_failures += 1
        self.failures.append(f"op failed: {what}")

    def timed(self, name: str, fn, *args):
        """Call a program function as work of the timed phase."""
        with self.tracer.span(name):
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        self.chunks[-1].work.append((start, elapsed))
        return result, elapsed

    def run_op(self, name: str, fn, *args):
        """One op: calibrate if due, then time the call. Returns None if it raised."""
        self.clock.between_ops()
        traced = self.trace and self.round_ops % 2 == 1
        self.round_ops += 1
        with self.tracer.record(traced), self.tracer.span(name):
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception:  # a failing op is counted and reported, never fatal
                self.raised += 1
                self.fail_op(f"{name} raised\n{traceback.format_exc()}")
                return None
            elapsed = time.perf_counter() - start
        self.chunks[-1].work.append((start, elapsed))
        self.ops.append((start, elapsed, traced))
        return result

    def rounds_until_deadline(self, run_round) -> None:
        """Run rounds until the deadline; the first always finishes."""
        self.clock = CalibratedClock()
        deadline = time.perf_counter() + self.seconds
        while not self.rounds or time.perf_counter() < deadline:
            self.round_ops = 0
            first_span = len(self.tracer.spans)
            rnd = run_round(deadline if self.rounds else None)
            rnd.spans = (first_span, len(self.tracer.spans))
            rnd.ops = self.round_ops
            if self.rounds:
                rnd.model = rnd.optimizer = None  # only the first round's model is checked
            self.rounds.append(rnd)
            if not rnd.complete and len(self.rounds) == 1:
                break  # the first round failed; later rounds would repeat it

    # -- the model ---------------------------------------------------------

    def fresh_model(self, spec: ModelSpec, vocab, epochs: int):
        encoder = EncoderConfig(
            vocab_size=vocab.size,
            d_model=spec.d_model,
            n_layers=spec.n_layers,
            n_heads=spec.n_heads,
            d_ff=spec.d_ff,
            max_seq_len=spec.max_seq_len,
        )
        fusion = FusionConfig(d_model=spec.d_model, poly_m=spec.poly_m, n_heads=spec.n_heads)
        model = build_model(encoder, encoder, fusion, vocab, seed=PROGRAM_SEED)
        config = polywsd.training.TrainConfig(
            batch_size=spec.batch_size,
            epochs=epochs,
            learning_rate=spec.learning_rate,
            seed=PROGRAM_SEED,
        )
        return model, polywsd.training.Adam.from_config(model.parameters(), config), config

    def setup(self, paths: dict[str, str], build, repeats: int) -> object:
        """Repeat the set-up; each repetition is timed whole, the last result is kept."""
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            with self.tracer.span("data.load"):
                t = time.perf_counter()
                world = read_world(paths)
                self.data_load_s.append(time.perf_counter() - t)
            with self.tracer.span("data.build_vocab"):
                t = time.perf_counter()
                vocab = build_vocab(world.train, world.inventory)
                self.build_vocab_s.append(time.perf_counter() - t)
            result = build(world, vocab)
            self.setup_s.append(time.perf_counter() - start)
        return result

    # -- training ----------------------------------------------------------

    def train_epochs(self, world: World, model, optimizer, config, mode: str, path: str, cutoff) -> Round:
        """Train ``config.epochs`` epochs as timed ops, saving a checkpoint at each epoch end."""
        rnd = Round(model=model, optimizer=optimizer)
        inventory = world.inventory
        for epoch in range(config.epochs):
            chunk = Chunk()
            self.chunks.append(chunk)
            batches, elapsed = self.timed(
                "training.make_batches",
                polywsd.training.make_batches,
                world.train,
                inventory,
                config.batch_size,
                config.seed,
                epoch,
            )
            self.batching_s.append(elapsed)
            for batch in batches:
                if cutoff is not None and time.perf_counter() >= cutoff:
                    return rnd
                if mode == polywsd.training.MODE_CONTRASTIVE:
                    expected_gloss = len(batch)
                    out = self.run_op(
                        "op.step", polywsd.training.train_step, batch, model, optimizer
                    )
                else:
                    expected_gloss = sum(
                        len(inventory.candidates(inst.lemma, inst.pos)) for inst in batch.instances
                    )
                    out = self.run_op(
                        "op.step",
                        polywsd.training.train_all_candidates_step,
                        batch,
                        inventory,
                        model,
                        optimizer,
                    )
                if out is None:
                    return rnd
                loss, counts = out
                chunk.items += len(batch)
                rnd.items += len(batch)
                rnd.gloss_forwards += counts.gloss
                rnd.context_forwards += counts.context
                rnd.steps += 1
                if counts.gloss != expected_gloss or counts.context != len(batch):
                    self.fail_op(
                        f"step {rnd.steps}: forwards (context {counts.context}, gloss "
                        f"{counts.gloss}), expected ({len(batch)}, {expected_gloss})"
                    )
                elif not math.isfinite(loss.value):
                    self.fail_op(f"step {rnd.steps}: loss {loss.value}")
                rnd.losses.append(loss.value)
            _, elapsed = self.timed(
                "checkpoint.save",
                polywsd.checkpoint.save_checkpoint,
                path,
                model,
                optimizer,
                config.seed,
                rnd.steps,
            )
            self.saves_s.append(elapsed)
            self.checkpoint_s += elapsed
            chunk.complete = True
        rnd.complete = True
        return rnd

    def run_training(self, world: World, spec: ModelSpec, epochs: int, mode: str) -> None:
        paths = write_world(world, self.workdir)
        first = self.setup(
            paths,
            lambda w, vocab: (w, vocab, *self.fresh_model(spec, vocab, epochs)),
            self.scale.setups,
        )
        world, vocab = first[0], first[1]
        path = os.path.join(self.workdir, "model.ckpt")

        def run_round(cutoff):
            nonlocal first
            if first is not None:
                _, _, model, optimizer, config = first
                first = None
            else:
                model, optimizer, config = self.fresh_model(spec, vocab, epochs)
            return self.train_epochs(world, model, optimizer, config, mode, path, cutoff)

        self.rounds_until_deadline(run_round)
        reference = self.rounds[0]
        if not reference.complete:
            self.check("first round completes", False, "the first training round stopped early")
            return
        self.mean_train_loss = float(np.mean(reference.losses))
        self.check_rounds_repeat("losses")
        self.check_roundtrip(reference.model, reference.optimizer, reference.steps)
        predictions = {
            inst.id: predict_module.predict(inst, world.inventory, reference.model).sense_id
            for inst in world.held_out
        }
        self.check_quality(world, reference.model, predictions)

    # -- prediction --------------------------------------------------------

    def run_prediction(self, world: World, spec: ModelSpec) -> None:
        paths = write_world(world, self.workdir)
        path = os.path.join(self.workdir, "model.ckpt")
        digests = []

        def build_and_train(w, vocab):
            model, optimizer, config = self.fresh_model(spec, vocab, PREDICT_TRAIN_EPOCHS)
            trained = polywsd.training.train(model, optimizer, w.train, w.inventory, config)
            with self.tracer.span("checkpoint.save"):
                start = time.perf_counter()
                polywsd.checkpoint.save_checkpoint(
                    path, model, optimizer, config.seed, len(trained.records)
                )
                self.saves_s.append(time.perf_counter() - start)
            with open(path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
            return w, model, trained

        world, model, trained = self.setup(paths, build_and_train, self.scale.predict_setups)
        self.checkpoint_bytes = os.path.getsize(path)
        self.check("set-up repeats bit for bit", len(set(digests)) == 1, f"checkpoints {digests}")
        self.mean_train_loss = float(np.mean([r.loss for r in trained.records]))
        self.check("set-up training loss is finite", math.isfinite(self.mean_train_loss))

        def run_pass(cutoff):
            chunk = Chunk()
            self.chunks.append(chunk)
            loaded, elapsed = self.timed("checkpoint.load", polywsd.checkpoint.load_checkpoint, path)
            self.loads_s.append(elapsed)
            self.checkpoint_s += elapsed
            rnd = Round(model=loaded.model)
            gloss_params = loaded.model.gloss
            original_encode = polywsd.model.encode
            distinct = set()

            def counted_encode(params, token_ids):
                if params is gloss_params:
                    rnd.gloss_forwards += 1
                    distinct.add(tuple(token_ids))
                return original_encode(params, token_ids)

            polywsd.model.encode = counted_encode
            try:
                for inst in world.held_out:
                    if cutoff is not None and time.perf_counter() >= cutoff:
                        return rnd
                    prediction = self.run_op(
                        "op.instance", predict_module.predict, inst, world.inventory, loaded.model
                    )
                    if prediction is not None:
                        chunk.items += 1
                        rnd.items += 1
                        rnd.predictions[inst.id] = prediction.sense_id
            finally:
                polywsd.model.encode = original_encode
            rnd.complete = chunk.complete = len(rnd.predictions) == len(world.held_out)
            if rnd.complete:
                self.distinct_gloss_ratios.append(len(distinct) / rnd.gloss_forwards)
            return rnd

        self.rounds_until_deadline(run_pass)
        reference = self.rounds[0]
        if not reference.complete:
            self.check("first pass completes", False, "the first prediction pass stopped early")
            return
        self.check_rounds_repeat("predictions")
        self.check(
            "checkpoint round trip is bit-exact",
            same_parameters(model, reference.model),
            "loaded parameters differ from the trained model",
        )
        self.check_quality(world, reference.model, reference.predictions)

    # -- checks ------------------------------------------------------------

    def check_rounds_repeat(self, what: str) -> None:
        first = self.rounds[0]
        for i, rnd in enumerate(self.rounds[1:], start=2):
            if rnd.complete:
                same = rnd.losses == first.losses and rnd.predictions == first.predictions
                self.check(f"round {i} repeats round 1", same, f"{what} differ")

    def check_roundtrip(self, model, optimizer, steps: int) -> None:
        path = os.path.join(self.workdir, "roundtrip.ckpt")
        polywsd.checkpoint.save_checkpoint(path, model, optimizer, PROGRAM_SEED, steps)
        start = time.perf_counter()
        loaded = polywsd.checkpoint.load_checkpoint(path)
        self.loads_s.append(time.perf_counter() - start)
        self.checkpoint_bytes = os.path.getsize(path)
        same = (
            same_parameters(model, loaded.model)
            and loaded.optimizer is not None
            and loaded.optimizer.t == optimizer.t
            and all(
                a.tobytes() == b.tobytes()
                for a, b in zip(optimizer.m + optimizer.v, loaded.optimizer.m + loaded.optimizer.v)
            )
        )
        self.check("checkpoint round trip is bit-exact", same, "parameters or moments differ")

    def check_quality(self, world: World, model, predictions: dict[str, str]) -> None:
        gold = {inst.id: inst.gold for inst in world.held_out}
        self.check(
            "every held-out instance predicted",
            set(predictions) == set(gold),
            f"{len(predictions)} of {len(gold)}",
        )
        if set(predictions) != set(gold):
            return
        with self.tracer.span("evaluation.score_keys"):
            start = time.perf_counter()
            self.micro_f1 = score_keys(predictions, gold).micro_f1
            self.evaluation_s = time.perf_counter() - start
        first_sense = predict_module.first_sense_predictor(world.inventory)
        self.first_sense_f1 = score_keys(
            {inst.id: first_sense(inst).sense_id for inst in world.held_out}, gold
        ).micro_f1
        self.check(
            "micro F1 beats the first-sense baseline",
            self.micro_f1 > self.first_sense_f1,
            f"{self.micro_f1:.4f} <= {self.first_sense_f1:.4f}",
        )
        rng = np.random.default_rng([self.seed, 0xC4EC])
        size = min(REFERENCE_SAMPLE, len(world.held_out))
        sample = rng.choice(len(world.held_out), size=size, replace=False)
        wrong = []
        for index in sorted(int(i) for i in sample):
            inst = world.held_out[index]
            senses = world.inventory.candidates(inst.lemma, inst.pos)
            expected = senses[reference_choice(model, inst, senses)].id
            if predictions[inst.id] != expected:
                wrong.append(f"{inst.id}: predicted {predictions[inst.id]}, reference {expected}")
        self.check("predictions equal the reference argmax", not wrong, "; ".join(wrong))


def reference_choice(model, instance, senses) -> int:
    """Index of the best-scoring sense, ties to the first, from the scoring primitives."""
    word = context_codes(model, instance.tokens, instance.target_index)
    best, best_score = 0, -math.inf
    for index, sense in enumerate(senses):
        score = score_pair(word, gloss_codes(model, sense.gloss)).item()
        if score > best_score:
            best, best_score = index, score
    return best


def same_parameters(a, b) -> bool:
    named_a, named_b = a.named_parameters(), b.named_parameters()
    return [n for n, _ in named_a] == [n for n, _ in named_b] and all(
        x.data.tobytes() == y.data.tobytes() for (_, x), (_, y) in zip(named_a, named_b)
    )


# -- metrics ---------------------------------------------------------------


def in_cu(bench: Bench, intervals) -> np.ndarray:
    """Each (start, seconds) interval in cu measured around it."""
    if not intervals:
        return np.zeros(0)
    starts, seconds = np.array(intervals, dtype=float).T[:2]
    return seconds / bench.clock.local_cu(starts + seconds / 2)


def work_seconds(bench: Bench) -> float:
    return sum(s for chunk in bench.chunks for _, s in chunk.work)


def op_cu(bench: Bench, traced: bool) -> np.ndarray:
    return in_cu(bench, [(start, s) for start, s, t in bench.ops if t == traced])


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ms_per(total_s: float, n: int) -> float:
    return 1e3 * total_s / n if n else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end_metrics(bench: Bench) -> dict[str, tuple[float, str]]:
    untraced = op_cu(bench, traced=False)
    complete = [rnd for rnd in bench.rounds if rnd.complete]
    attempted, failed = attempted_failed(bench)
    return {
        "setup_s": (statistics.median(bench.setup_s), "s"),
        "op_p50_cu": (_percentile(untraced, 50), "cu"),
        "items_per_cu": (
            _percentile(
                [c.items / float(np.sum(in_cu(bench, c.work))) for c in bench.chunks if c.complete], 50
            ),
            "1/cu",
        ),
        "gloss_forwards_per_item": (
            _ratio(sum(r.gloss_forwards for r in complete), sum(r.items for r in complete)),
            "count",
        ),
        "micro_f1": (bench.micro_f1, "ratio"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(bench: Bench) -> dict[str, tuple[float, str]]:
    tracer = bench.tracer
    complete = [rnd for rnd in bench.rounds if rnd.complete]
    # times from every traced op; counts from the traced ops of complete rounds
    summary = tracer.summary()
    counted = tracer.summary([rnd.spans for rnd in complete])
    traced_ops = [s for _, s, traced in bench.ops if traced]
    n_ops, op_s = len(traced_ops), sum(traced_ops)
    n_counted = sum(rnd.ops // 2 for rnd in complete)

    def total(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    def attr(name: str, key: str) -> float:
        return counted.get(name, {}).get(key, 0)

    backward_n = counted.get("tensor.backward", {}).get("count", 0)
    steps = sum(rnd.steps for rnd in complete)
    training = bench.workload != "predict-polysemous"
    traced_cu, untraced_cu = op_cu(bench, traced=True), op_cu(bench, traced=False)
    overhead = (
        float(np.median(traced_cu) / np.median(untraced_cu)) - 1.0
        if len(traced_cu) and len(untraced_cu)
        else 0.0
    )
    return {
        "tensor.tape_records_per_step": (_ratio(attr("tensor.backward", "records"), backward_n), "count"),
        "tensor.backward_ms_per_step": (_ms_per(total("tensor.backward"), n_ops), "ms"),
        "tensor.backward_share": (_ratio(total("tensor.backward"), op_s), "ratio"),
        "encoder.context_seqs_per_op": (_ratio(attr("encoder.encode", "context"), n_counted), "count"),
        "encoder.gloss_seqs_per_op": (_ratio(attr("encoder.encode", "gloss"), n_counted), "count"),
        "encoder.context_ms_per_op": (_ms_per(total("encoder.encode.context"), n_ops), "ms"),
        "encoder.gloss_ms_per_op": (_ms_per(total("encoder.encode.gloss"), n_ops), "ms"),
        "encoder.gloss_share": (_ratio(total("encoder.encode.gloss"), op_s), "ratio"),
        "encoder.useful_position_ratio": (
            _ratio(attr("encoder.encode", "real"), attr("encoder.encode", "computed")),
            "ratio",
        ),
        "fusion.fuse_context_ms_per_op": (_ms_per(total("fusion.fuse_context"), n_ops), "ms"),
        "fusion.fuse_gloss_ms_per_op": (_ms_per(total("fusion.fuse_gloss"), n_ops), "ms"),
        "model.context_codes_ms_per_op": (_ms_per(total("model.context_codes"), n_ops), "ms"),
        "model.gloss_codes_ms_per_op": (_ms_per(total("model.gloss_codes"), n_ops), "ms"),
        "model.codes_self_ms_per_op": (
            _ms_per(
                summary.get("model.context_codes", {}).get("self_s", 0.0)
                + summary.get("model.gloss_codes", {}).get("self_s", 0.0),
                n_ops,
            ),
            "ms",
        ),
        "training.make_batches_ms_per_epoch": (
            1e3 * statistics.median(bench.batching_s) if bench.batching_s else 0.0,
            "ms",
        ),
        "training.score_loss_ms_per_step": (
            _ms_per(total("training.fusion_matrix") + total("training.bcl_loss"), n_ops if training else 0),
            "ms",
        ),
        "training.adam_ms_per_step": (_ms_per(total("training.adam"), n_ops), "ms"),
        "training.adam_share": (_ratio(total("training.adam"), op_s), "ratio"),
        "training.masked_negatives_per_step": (
            _ratio(attr("training.duplicate_gloss_mask", "masked"), n_counted),
            "count",
        ),
        "training.useful_negative_ratio": (
            1.0 - _ratio(
                attr("training.duplicate_gloss_mask", "masked"),
                attr("training.duplicate_gloss_mask", "cells"),
            )
            if attr("training.duplicate_gloss_mask", "cells")
            else 0.0,
            "ratio",
        ),
        "training.gloss_forwards_per_step": (
            _ratio(sum(r.gloss_forwards for r in complete), steps) if training else 0.0,
            "count",
        ),
        "training.context_forwards_per_step": (
            _ratio(sum(r.context_forwards for r in complete), steps),
            "count",
        ),
        "predict.score_candidates_ms_per_instance": (
            _ms_per(total("predict.score_candidates"), n_ops if not training else 0),
            "ms",
        ),
        "predict.gloss_encodes_per_instance": (
            0.0 if training else _ratio(attr("encoder.encode", "gloss"), n_counted),
            "count",
        ),
        "predict.distinct_gloss_ratio": (
            statistics.median(bench.distinct_gloss_ratios) if bench.distinct_gloss_ratios else 0.0,
            "ratio",
        ),
        "checkpoint.save_ms": (1e3 * statistics.median(bench.saves_s), "ms"),
        "checkpoint.load_ms": (1e3 * statistics.median(bench.loads_s), "ms"),
        "checkpoint.bytes": (float(bench.checkpoint_bytes), "bytes"),
        "checkpoint.stall_share": (_ratio(bench.checkpoint_s, work_seconds(bench)), "ratio"),
        "data.load_ms": (1e3 * statistics.median(bench.data_load_s), "ms"),
        "data.build_vocab_ms": (1e3 * statistics.median(bench.build_vocab_s), "ms"),
        "evaluation.score_ms": (1e3 * bench.evaluation_s, "ms"),
        "trace.overhead_share": (overhead, "ratio"),
    }


def attempted_failed(bench: Bench) -> tuple[int, int]:
    failed_checks = sum(1 for f in bench.failures if f.startswith("check failed"))
    return len(bench.ops) + bench.raised + bench.checks, bench.op_failures + failed_checks


def machine_note(bench: Bench) -> dict:
    cu = bench.clock.cu_seconds
    untraced = op_cu(bench, traced=False)
    ops_ms = [1e3 * s for _, s, traced in bench.ops if not traced]
    work_s = work_seconds(bench)
    return {
        "workload": bench.workload,
        "seed": bench.seed,
        "trace": int(bench.trace),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: val for var, val in sorted(os.environ.items()) if var.endswith("_THREADS")},
        "calib_ms": 1e3 * cu,
        "calib_samples": len(bench.clock.samples),
        "calib_iqr_ms": iqr_ms(bench.clock.samples),
        "op_p50_ms": _percentile(ops_ms, 50),
        "op_p90_ms": _percentile(ops_ms, 90),
        # the tail is context only: its run-to-run spread is too wide to gate
        "op_p90_cu": _percentile(untraced, 90),
        "op_p99_cu": _percentile(untraced, 99),
        "ops_beyond_p90": len(ops_ms) // 10,
        "ops_beyond_p99": len(ops_ms) // 100,
        "ops_timed": len(bench.ops),
        "ops_untraced": len(ops_ms),
        "rounds": len(bench.rounds),
        "work_s": work_s,
        "setup_s_all": bench.setup_s,
        "first_sense_f1": bench.first_sense_f1,
        "mean_train_loss": bench.mean_train_loss,
        "error_rate": attempted_failed(bench)[1] / max(1, attempted_failed(bench)[0]),
        "device_hours_derived": 1 * work_s / 3600.0,
        "device_note": "device-hours = device_count (1 CPU) x op wall time, derived not measured; "
        "no accelerator, so accelerator utilisation is not measurable here",
        "failures": bench.failures,
    }


def iqr_ms(samples: list[float]) -> float | None:
    if len(samples) < 2:
        return None
    q = statistics.quantiles(samples, n=4)
    return 1e3 * (q[2] - q[0])


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str, scale: Scale = FULL):
    """Run one workload; returns the result line and the context (dicts) and the tracer."""
    bench = Bench(workload, seed, seconds, trace, scale, workdir)
    if workload == "bcl-desk":
        train, inventory = synthetic_corpus(10, 3, 50, seed)
        held_out, _ = synthetic_corpus(10, 3, scale.desk_held_out, seed + 1)
        for inst in held_out:
            inst.id = "ho" + inst.id
        world = World(train=train, held_out=held_out, inventory=inventory)
        bench.run_training(world, DESK, DESK_EPOCHS, polywsd.training.MODE_CONTRASTIVE)
    elif workload == "allcand-polysemous":
        world = polysemous_world(seed, scale.poly_lemmas)
        bench.run_training(world, POLY, ALLCAND_EPOCHS, polywsd.training.MODE_ALL_CANDIDATES)
    elif workload == "predict-polysemous":
        bench.run_prediction(polysemous_world(seed, scale.poly_lemmas), POLY)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

    metrics = layer_metrics(bench) if trace else end_to_end_metrics(bench)
    attempted, failed = attempted_failed(bench)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, machine_note(bench), bench.tracer
