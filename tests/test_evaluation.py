"""F1 scorer fixtures and the cost-accounting arithmetic."""

import json

import pytest

from polywsd.data import CorpusInstance, save_gold_keys, save_predictions
from polywsd.errors import ComparisonError, ScoringError
from polywsd.evaluation import (
    compare_costs,
    config_fingerprint,
    load_metrics,
    save_metrics,
    score_f1,
    score_keys,
)
from polywsd.training import RunMetrics, StepRecord


def _instance(i, pos="NOUN"):
    return CorpusInstance(
        id=f"g{i}", tokens=["w", "t"], target_index=1, lemma="t", pos=pos, gold=f"s{i}"
    )


class TestScoreKeys:
    def test_three_of_four_correct(self):
        gold = {f"g{i}": f"s{i}" for i in range(4)}
        preds = {"g0": "s0", "g1": "s1", "g2": "s2", "g3": "wrong"}
        report = score_keys(preds, gold)
        assert report.micro_f1 == 0.75
        assert report.precision == report.recall == 0.75

    def test_half_attempted_all_correct(self):
        gold = {f"g{i}": f"s{i}" for i in range(4)}
        preds = {"g0": "s0", "g1": "s1"}
        report = score_keys(preds, gold)
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.micro_f1 == pytest.approx(2.0 / 3.0, abs=0)

    def test_zero_attempted(self):
        gold = {"g0": "s0"}
        report = score_keys({}, gold)
        assert report.micro_f1 == 0.0
        assert report.counts.attempted == 0

    def test_full_coverage_f1_equals_accuracy_exactly(self):
        # 1/3 is not a dyadic float; the harmonic-mean formula would drift an ulp
        gold = {f"g{i}": f"s{i}" for i in range(3)}
        preds = {"g0": "s0", "g1": "no", "g2": "no"}
        report = score_keys(preds, gold)
        assert report.micro_f1 == 1 / 3

    def test_unknown_prediction_id(self):
        with pytest.raises(ScoringError):
            score_keys({"ghost": "s0"}, {"g0": "s0"})

    def test_permutation_invariance(self):
        gold = {f"g{i}": f"s{i}" for i in range(6)}
        preds = {f"g{i}": (f"s{i}" if i % 2 == 0 else "no") for i in range(6)}
        shuffled = dict(reversed(list(preds.items())))
        assert score_keys(preds, gold).micro_f1 == score_keys(shuffled, gold).micro_f1

    def test_per_pos_partition_and_recombination(self):
        instances = [_instance(i, pos) for i, pos in enumerate(["NOUN", "NOUN", "VERB", "ADJ", "ADV", "VERB"])]
        gold = {inst.id: inst.gold for inst in instances}
        preds = {inst.id: inst.gold for inst in instances}
        preds["g2"] = "wrong"
        pos_by_id = {inst.id: inst.pos for inst in instances}
        report = score_keys(preds, gold, pos_by_id)
        # counts partition the totals
        assert sum(c.total_gold for c in report.per_pos_counts.values()) == len(gold)
        assert sum(c.correct for c in report.per_pos_counts.values()) == report.counts.correct
        # with full coverage, gold-count-weighted per-POS F1 equals accuracy
        weighted = sum(
            report.per_pos[pos] * report.per_pos_counts[pos].total_gold
            for pos in report.per_pos
        ) / len(gold)
        assert weighted == pytest.approx(report.counts.correct / len(gold), abs=1e-12)

    def test_gold_id_missing_from_corpus(self):
        with pytest.raises(ScoringError):
            score_keys({"g0": "s0"}, {"g0": "s0"}, pos_by_id={})


class TestScoreF1Files:
    def test_file_fixture(self, tmp_path):
        gold = {f"g{i}": f"s{i}" for i in range(4)}
        preds = {"g0": "s0", "g1": "s1", "g2": "s2", "g3": "bad"}
        gold_path, pred_path = tmp_path / "gold.key", tmp_path / "pred.tsv"
        save_gold_keys(gold_path, gold)
        save_predictions(pred_path, preds)
        corpus = [_instance(i) for i in range(4)]
        report = score_f1(pred_path, gold_path, corpus)
        assert report.micro_f1 == 0.75
        assert report.per_pos["NOUN"] == 0.75


def _metrics(mode, fingerprint, gloss_per_step, steps, wall, b=4):
    records = [
        StepRecord(step=s, epoch=0, loss=1.0, context_forwards=b,
                   gloss_forwards=gloss_per_step, elapsed=wall / steps)
        for s in range(steps)
    ]
    return RunMetrics(
        mode=mode, fingerprint=fingerprint, records=records, wall_seconds=wall,
    )


class TestCosts:
    def test_three_candidates_closed_form(self):
        fp = config_fingerprint({"d": 8}, "corpus-hash")
        run = _metrics("bcl", fp, gloss_per_step=4, steps=10, wall=1.0)
        baseline = _metrics("all-candidates", fp, gloss_per_step=12, steps=10, wall=3.0)
        cmp = compare_costs(run, baseline)
        assert baseline.gloss_forwards == 3 * run.gloss_forwards
        assert cmp.gloss_forward_reduction == 1.0 - run.gloss_forwards / baseline.gloss_forwards
        assert cmp.gloss_forward_reduction == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert cmp.wall_clock_reduction == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_monosemous_equality_means_zero_reduction(self):
        fp = config_fingerprint("same")
        run = _metrics("bcl", fp, gloss_per_step=4, steps=5, wall=1.0)
        baseline = _metrics("all-candidates", fp, gloss_per_step=4, steps=5, wall=1.0)
        assert compare_costs(run, baseline).gloss_forward_reduction == 0.0

    def test_mismatched_fingerprints_rejected(self):
        run = _metrics("bcl", config_fingerprint("a"), 4, 5, 1.0)
        baseline = _metrics("all-candidates", config_fingerprint("b"), 12, 5, 3.0)
        with pytest.raises(ComparisonError):
            compare_costs(run, baseline)

    def test_device_hours(self):
        metrics = _metrics("bcl", config_fingerprint("x"), 4, 5, wall=7200.0)
        assert metrics.device_hours == 2.0


class TestMetricsIO:
    def test_round_trip(self, tmp_path):
        fp = config_fingerprint("roundtrip")
        metrics = _metrics("bcl", fp, 4, 3, wall=0.5)
        path = tmp_path / "metrics.jsonl"
        save_metrics(path, metrics)
        loaded = load_metrics(path)
        assert loaded.mode == metrics.mode
        assert loaded.fingerprint == metrics.fingerprint
        assert loaded.wall_seconds == metrics.wall_seconds
        assert [r.step for r in loaded.records] == [0, 1, 2]
        assert loaded.gloss_forwards == metrics.gloss_forwards

    def test_header_with_a_device_count_still_loads(self, tmp_path):
        """Logs from releases that declared a device count load; the key is ignored."""
        path, lines = self._saved_lines(tmp_path)
        header = json.loads(lines[0])
        lines[0] = json.dumps({**header, "device_count": 1})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_metrics(path)
        assert (loaded.mode, loaded.wall_seconds, len(loaded.records)) == ("bcl", 0.5, 3)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ComparisonError):
            load_metrics(path)

    def _saved_lines(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        save_metrics(path, _metrics("bcl", config_fingerprint("lines"), 4, 3, wall=0.5))
        return path, path.read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize(
        "bad",
        [
            "{not json",
            "[1, 2]",
            '{"kind": "stpe", "step": 1}',
            '{"step": 1}',
        ],
    )
    def test_malformed_line_names_path_and_line(self, tmp_path, bad):
        path, lines = self._saved_lines(tmp_path)
        lines[2] = bad
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ComparisonError) as err:
            load_metrics(path)
        assert f"{path}:3: " in str(err.value)

    @pytest.mark.parametrize(
        "order,line,message",
        [
            ([1, 0, 2, 3, 4], 1, "step record before the run header"),
            ([4, 0, 1, 2, 3], 1, "summary record before the run header"),
            ([0, 0, 1, 2, 3, 4], 2, "second run header"),
            ([0, 1, 4, 2, 3], 4, "step record after the summary"),
            ([0, 1, 2, 3, 4, 4], 6, "summary record after the summary"),
            ([0, 1, 2, 3], None, "the log ends without a summary record"),
        ],
    )
    def test_records_out_of_order_name_path_and_line(self, tmp_path, order, line, message):
        """One run header first, then steps, then one summary last; nothing else loads."""
        path, lines = self._saved_lines(tmp_path)
        path.write_text("\n".join(lines[i] for i in order) + "\n", encoding="utf-8")
        with pytest.raises(ComparisonError) as err:
            load_metrics(path)
        where = f"{path}:{line}: " if line else f"{path}: "
        assert str(err.value) == where + message

    def test_step_missing_field_names_path_line_and_field(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        record = json.loads(lines[2])
        del record["gloss_forwards"]
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ComparisonError) as err:
            load_metrics(path)
        assert f"{path}:3: " in str(err.value) and "gloss_forwards" in str(err.value)

    def test_byte_that_is_not_utf8_names_path_and_line(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        raw = "\n".join(lines).encode("utf-8").replace(b'"loss"', b'"lo\xffss"', 1)
        path.write_bytes(raw + b"\n")
        with pytest.raises(ComparisonError) as err:
            load_metrics(path)
        assert f"{path}:2: " in str(err.value)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("mode", "fast"),
            ("mode", ["bcl"]),
            ("fingerprint", 7),
        ],
    )
    def test_bad_run_value_names_path_line_and_field(self, tmp_path, field, value):
        self._assert_bad_value(tmp_path, 0, field, value)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("loss", "x"),
            ("loss", float("nan")),
            ("elapsed", None),
            ("gloss_forwards", "b"),
            ("gloss_forwards", 1.5),
            ("context_forwards", -1),
            ("step", True),
            ("epoch", [0]),
            ("elapsed", -3.0),
        ],
    )
    def test_bad_step_value_names_path_line_and_field(self, tmp_path, field, value):
        self._assert_bad_value(tmp_path, 2, field, value)

    @pytest.mark.parametrize("value", ["z", float("inf"), False, {"s": 1}, -2.0])
    def test_bad_summary_value_names_path_line_and_field(self, tmp_path, value):
        self._assert_bad_value(tmp_path, 4, "wall_seconds", value)

    def _assert_bad_value(self, tmp_path, line, field, value):
        path, lines = self._saved_lines(tmp_path)
        record = json.loads(lines[line])
        record[field] = value
        lines[line] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ComparisonError) as err:
            load_metrics(path)
        assert f"{path}:{line + 1}: " in str(err.value) and repr(field) in str(err.value)


def test_fingerprint_is_stable_and_sensitive():
    a = config_fingerprint({"d_model": 8}, "hash1")
    b = config_fingerprint({"d_model": 8}, "hash1")
    c = config_fingerprint({"d_model": 16}, "hash1")
    assert a == b != c
