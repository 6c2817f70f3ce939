"""Acceptance suite: one test per release criterion, each printing a verdict line.

The headline full-scale F1 figures from large pretrained encoders on the
standard benchmark corpora are out of scope for this desk-scale, trained
from-scratch artifact; the property-based criteria below stand in for them.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from polywsd.checkpoint import load_checkpoint, save_checkpoint
from polywsd.data import Vocab, build_vocab, save_gold_keys, save_predictions
from polywsd.encoder import EncoderConfig
from polywsd.fusion import FusionConfig
from polywsd.model import build_model, context_codes, gloss_codes, randomize_parameters
from polywsd.predict import predict_corpus, score_candidates
from polywsd.synthetic import synthetic_corpus
from polywsd.tensor import Tensor
from polywsd.training import (
    MODE_CONTRASTIVE,
    Adam,
    ScoreMatrix,
    TrainConfig,
    bcl_loss,
    check_bcl_gradients,
    fusion_matrix,
    make_batches,
    scored_forward,
    train,
)
from polywsd.evaluation import compare_costs, config_fingerprint, score_f1

from ops import row_softmax


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def _world(n_lemmas, senses, instances, seed, *, d_model, n_heads, d_ff, max_seq_len,
           poly_m, fusion_heads, model_seed, vocab_pad_to=None):
    corpus, inventory = synthetic_corpus(
        n_lemmas=n_lemmas, senses_per_lemma=senses, n_instances=instances, seed=seed
    )
    vocab = build_vocab(corpus, inventory, min_freq=1)
    if vocab_pad_to is not None:
        tokens = vocab.tokens_in_id_order()
        while len(tokens) + 4 < vocab_pad_to:
            tokens.append(f"pad_token_{len(tokens)}")
        vocab = Vocab.from_tokens(tokens)
        assert vocab.size == vocab_pad_to
    encoder_config = EncoderConfig(
        vocab_size=vocab.size, d_model=d_model, n_layers=1, n_heads=n_heads,
        d_ff=d_ff, max_seq_len=max_seq_len,
    )
    fusion_config = FusionConfig(d_model=d_model, poly_m=poly_m, n_heads=fusion_heads)
    model = build_model(encoder_config, encoder_config, fusion_config, vocab, seed=model_seed)
    return corpus, inventory, model


def test_gradient_fidelity():
    """Full contrastive loss vs central differences: rel error < 1e-4, < 60 s."""
    with criterion("gradient fidelity (rel error < 1e-4, runtime < 60s)"):
        start = time.perf_counter()
        corpus, inventory, model = _world(
            4, 3, 12, seed=0,
            d_model=8, n_heads=2, d_ff=16, max_seq_len=12,
            poly_m=2, fusion_heads=2, model_seed=0, vocab_pad_to=50,
        )
        randomize_parameters(model, seed=11)  # random small params
        batch = make_batches(corpus, inventory, batch_size=3, seed=0, epoch=0)[0]
        assert len(batch) == 3
        error = check_bcl_gradients(batch, model, h=1e-4)
        elapsed = time.perf_counter() - start
        assert error < 1e-4, f"max relative error {error}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_loss_calibration():
    """A constant score matrix (zeroed output projection) gives loss ln b."""
    with criterion("loss calibration (ln b within 1e-9 for b in {2, 4, 8})"):
        corpus, inventory, model = _world(
            8, 1, 8, seed=1,
            d_model=8, n_heads=2, d_ff=16, max_seq_len=12,
            poly_m=2, fusion_heads=2, model_seed=1,
        )
        model.fusion.w_o.data[...] = 0.0
        for b in (2, 4, 8):
            batches = make_batches(corpus[:b], inventory, batch_size=b, seed=0, epoch=0)
            sm, loss, _ = scored_forward(batches[0], None, model, MODE_CONTRASTIVE)
            assert not sm.mask.any()  # single-sense lemmas: no duplicate glosses
            assert abs(loss.value - math.log(b)) <= 1e-9, f"b={b}: {loss.value}"


def test_overfit_capacity():
    """50 instances, 10 lemmas x 3 senses, 200 epochs: >= 95% train accuracy, < 5 min."""
    with criterion("overfit capacity (>= 95% training accuracy, runtime < 5 min)"):
        start = time.perf_counter()
        corpus, inventory, model = _world(
            10, 3, 50, seed=0,
            d_model=16, n_heads=2, d_ff=32, max_seq_len=16,
            poly_m=2, fusion_heads=2, model_seed=0,
        )
        config = TrainConfig(batch_size=8, epochs=200, learning_rate=1e-3, seed=0)
        optimizer = Adam.from_config(model.parameters(), config)
        train(model, optimizer, corpus, inventory, config)
        predictions = predict_corpus(corpus, inventory, model)
        correct = sum(1 for inst, p in zip(corpus, predictions) if p.sense_id == inst.gold)
        elapsed = time.perf_counter() - start
        accuracy = correct / len(corpus)
        assert accuracy >= 0.95, f"training accuracy {accuracy:.2%}"
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


# BCL's lead over all-candidates at this fixture's size is about a tenth of
# a step, and two back-to-back identical runs on a busy host differ by more
# than that about one time in ten. The wall-clock criterion therefore takes
# the median over interleaved repeats: each repeat runs both regimes back to
# back, in alternating order, and compares their wall clocks, so a slow
# spell of the host and the warm-up of whichever regime runs first fall on
# both sides alike.
_COST_REPEATS = 11


def test_cost_reduction():
    """Three candidates everywhere: gloss-forward reduction exactly 2/3 and, in
    the median of interleaved repeats, the contrastive run's wall clock strictly
    below the all-candidates run's."""
    with criterion("cost reduction (exactly 2/3 gloss forwards; faster in the median repeat)"):
        corpus, inventory, _ = _world(
            6, 3, 24, seed=2,
            d_model=16, n_heads=2, d_ff=32, max_seq_len=16,
            poly_m=2, fusion_heads=2, model_seed=2,
        )
        config = TrainConfig(batch_size=4, epochs=4, learning_rate=1e-3, seed=2)
        fingerprint = config_fingerprint("cost-reduction-fixture")
        ratios = []
        for repeat in range(_COST_REPEATS):
            runs = {}
            order = ("bcl", "all-candidates") if repeat % 2 == 0 else ("all-candidates", "bcl")
            for mode in order:
                _, _, model = _world(
                    6, 3, 24, seed=2,
                    d_model=16, n_heads=2, d_ff=32, max_seq_len=16,
                    poly_m=2, fusion_heads=2, model_seed=2,
                )
                optimizer = Adam.from_config(model.parameters(), config)
                runs[mode] = train(
                    model, optimizer, corpus, inventory, config, mode=mode,
                    fingerprint=fingerprint,
                )
            comparison = compare_costs(runs["bcl"], runs["all-candidates"])
            bcl_gloss = comparison.run.gloss_forwards
            all_gloss = comparison.baseline.gloss_forwards
            assert all_gloss == 3 * bcl_gloss  # exact count arithmetic
            assert comparison.gloss_forward_reduction == 1.0 - bcl_gloss / all_gloss
            assert abs(comparison.gloss_forward_reduction - 2.0 / 3.0) < 1e-15
            ratios.append(comparison.run.wall_seconds / comparison.baseline.wall_seconds)
        assert statistics.median(ratios) < 1.0, sorted(ratios)


# At 8 candidates a lemma and a batch of 8, an all-candidates step encodes 64
# glosses for BCL's 8, and BCL's lead is about a quarter of the run, not a
# tenth. In 22 isolated replays of this test on a shared 2-core host, the median
# ratio ran 0.70-0.76 (interquartile range 0.03), so the bound of 0.85 sits more
# than three times that range above the worst replay and fails only if BCL loses
# most of its lead.
_GLOSS_HEAVY_BOUND = 0.85


def test_cost_reduction_gloss_heavy():
    """Eight candidates everywhere: gloss-forward reduction exactly 7/8 and, in the
    median of interleaved repeats, the contrastive run's wall clock below 0.85 of the
    all-candidates run's."""
    with criterion("gloss-heavy cost reduction (exactly 7/8 gloss forwards; median wall "
                   f"clock ratio < {_GLOSS_HEAVY_BOUND})"):
        sizes = dict(d_model=16, n_heads=2, d_ff=32, max_seq_len=16, poly_m=2, fusion_heads=2)
        corpus, inventory, _ = _world(4, 8, 32, seed=3, model_seed=3, **sizes)
        config = TrainConfig(batch_size=8, epochs=4, learning_rate=1e-3, seed=3)
        ratios = []
        for repeat in range(_COST_REPEATS):
            runs = {}
            order = ("bcl", "all-candidates") if repeat % 2 == 0 else ("all-candidates", "bcl")
            for mode in order:
                _, _, model = _world(4, 8, 32, seed=3, model_seed=3, **sizes)
                optimizer = Adam.from_config(model.parameters(), config)
                runs[mode] = train(model, optimizer, corpus, inventory, config, mode=mode)
            comparison = compare_costs(runs["bcl"], runs["all-candidates"])
            assert comparison.baseline.gloss_forwards == 8 * comparison.run.gloss_forwards
            assert abs(comparison.gloss_forward_reduction - 7.0 / 8.0) < 1e-15
            ratios.append(comparison.run.wall_seconds / comparison.baseline.wall_seconds)
        assert statistics.median(ratios) < _GLOSS_HEAVY_BOUND, sorted(ratios)


def test_scoring_oracle(tmp_path):
    """score_f1 reproduces the three hand-computed fixtures exactly."""
    with criterion("scoring oracle (0.75, 2/3, and 0 fixtures exact)"):
        fixtures = [
            # (predictions, expected F1): 4 gold, 4 attempted, 3 correct
            ({"g0": "s0", "g1": "s1", "g2": "s2", "g3": "wrong"}, 0.75),
            # 4 gold, 2 attempted, 2 correct: P=1, R=1/2, F1=2/3
            ({"g0": "s0", "g1": "s1"}, 2.0 * 1.0 * 0.5 / 1.5),
            # zero attempted
            ({}, 0.0),
        ]
        gold = {f"g{i}": f"s{i}" for i in range(4)}
        gold_path = tmp_path / "gold.key"
        save_gold_keys(gold_path, gold)
        for i, (predictions, expected) in enumerate(fixtures):
            pred_path = tmp_path / f"pred{i}.tsv"
            save_predictions(pred_path, predictions)
            report = score_f1(pred_path, gold_path)
            assert report.micro_f1 == expected, f"fixture {i}: {report.micro_f1} != {expected}"


def test_invariance_suite():
    """100 seeded trials each: softmax row normalization (1e-9), loss shift
    invariance (1e-9), batch-permutation invariance (1e-12), and argmax
    invariance of prediction under positive scaling."""
    with criterion("invariance suite (4 properties x 100 seeded trials)"):
        rng = np.random.default_rng(2024)

        for _ in range(100):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 7))
            m = Tensor(rng.normal(scale=4.0, size=(rows, cols)))
            np.testing.assert_allclose(row_softmax(m).data.sum(axis=1), 1.0, atol=1e-9)

        for _ in range(100):
            b = int(rng.integers(2, 7))
            raw = rng.normal(scale=2.0, size=(b, b))
            shift = float(rng.normal(scale=10.0))
            mask = np.zeros((b, b), dtype=bool)
            base = bcl_loss(ScoreMatrix(scores=Tensor(raw), mask=mask))
            moved = bcl_loss(ScoreMatrix(scores=Tensor(raw + shift), mask=mask.copy()))
            assert abs(base.value - moved.value) <= 1e-9
            np.testing.assert_allclose(moved.per_example, base.per_example, atol=1e-9)

        for _ in range(100):
            b = int(rng.integers(2, 6))
            words = [Tensor(rng.normal(size=(1, 5))) for _ in range(b)]
            glosses = [Tensor(rng.normal(size=(1, 5))) for _ in range(b)]
            perm = rng.permutation(b)
            base = bcl_loss(fusion_matrix(words, glosses))
            permuted = bcl_loss(
                fusion_matrix([words[i] for i in perm], [glosses[i] for i in perm])
            )
            assert abs(base.value - permuted.value) <= 1e-12
            np.testing.assert_allclose(permuted.per_example, base.per_example[perm], atol=1e-12)

        corpus, inventory, model = _world(
            5, 3, 20, seed=5,
            d_model=8, n_heads=2, d_ff=16, max_seq_len=12,
            poly_m=2, fusion_heads=2, model_seed=5,
        )
        for t in range(100):
            inst = corpus[t % len(corpus)]
            ranked = score_candidates(inst, inventory, model)
            scores = np.array(ranked.scores)
            c = float(rng.uniform(0.01, 100.0))
            assert int(np.argmax(scores * c)) == ranked.chosen_index
            assert int(np.argmax(scores + c)) == ranked.chosen_index


def test_determinism(tmp_path):
    """Same seed/config twice: bit-identical checkpoints; resuming from a
    checkpoint reproduces the uninterrupted run's next-step loss to the bit."""
    with criterion("determinism (bit-identical checkpoints; bit-exact resume)"):
        config = TrainConfig(batch_size=4, epochs=3, learning_rate=1e-3, seed=7)

        def fresh():
            corpus, inventory, model = _world(
                4, 3, 16, seed=3,
                d_model=8, n_heads=2, d_ff=16, max_seq_len=12,
                poly_m=2, fusion_heads=2, model_seed=7,
            )
            return corpus, inventory, model, Adam.from_config(model.parameters(), config)

        paths = []
        for run in range(2):
            corpus, inventory, model, optimizer = fresh()
            metrics = train(model, optimizer, corpus, inventory, config)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(path, model, optimizer, seed=config.seed, step=len(metrics.records))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        # uninterrupted: 5 steps; resumed: 4 steps, checkpoint, reload, 1 step
        corpus, inventory, model, optimizer = fresh()
        straight = train(model, optimizer, corpus, inventory, config, max_steps=5)
        corpus, inventory, model, optimizer = fresh()
        train(model, optimizer, corpus, inventory, config, max_steps=4)
        resume_path = tmp_path / "resume.ckpt"
        save_checkpoint(resume_path, model, optimizer, seed=config.seed, step=4)
        loaded = load_checkpoint(resume_path)
        resumed = train(
            loaded.model, loaded.optimizer, corpus, inventory, config,
            start_step=loaded.step, max_steps=5,
        )
        a = np.float64(straight.records[-1].loss)
        b = np.float64(resumed.records[-1].loss)
        assert a.tobytes() == b.tobytes()


def test_cross_path_consistency():
    """Candidate scores equal the matching score-matrix cells within 1e-12 on
    50 random (instance, gloss-set) fixtures."""
    with criterion("cross-path consistency (50 fixtures within 1e-12)"):
        checked = 0
        for model_seed in (0, 1):
            corpus, inventory, model = _world(
                5, 3, 25, seed=model_seed,
                d_model=8, n_heads=2, d_ff=16, max_seq_len=12,
                poly_m=2, fusion_heads=2, model_seed=model_seed,
            )
            randomize_parameters(model, seed=model_seed + 50, scale=0.3)
            for inst in corpus:
                ranked = score_candidates(inst, inventory, model)
                word = context_codes(model, inst.tokens, inst.target_index)
                glosses = [
                    gloss_codes(model, s.gloss)
                    for s in inventory.candidates(inst.lemma, inst.pos)
                ]
                sm = fusion_matrix([word] * len(glosses), glosses)
                np.testing.assert_allclose(np.diag(sm.scores.data), ranked.scores, atol=1e-12)
                checked += 1
        assert checked == 50
