"""Run-level tests: metrics, config parsing, report files, modes, CLI."""
import configparser
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from semgkit import features, pipeline
from semgkit.cli import _rewrite_mode_flag, main
from semgkit.dataset import (
    SyntheticSpec,
    generate_synthetic,
    load_recording,
    make_cv_plans,
    save_recording,
)
from semgkit.dsp import cascade, design_bandpass, design_notch, filter_channels
from semgkit.ensemble import BaggedModel, load_bagged, train_bagged
from semgkit.features import FeatureConfig
from semgkit.gbdt import LossSpec, ModelFormatError, TrainParams, load_model, save_model
from semgkit.gbdt.booster import detect_hard_classes
from semgkit.pipeline import (
    PipelineConfig,
    PipelineError,
    _effective,
    _filter_recording,
    _holdout_fit,
    _load_plan,
    _plan_rows,
    _prepare_windows,
    _save_plan,
    _worker_pool,
    default_config,
    emit_report,
    evaluate,
    load_config,
    run_pipeline,
    write_transfer_csv,
)
from semgkit.transfer import TransferConfig, TransferReport

SRC = str(Path(__file__).resolve().parent.parent / "src")

class TestEvaluate:
    def test_worked_example(self):
        # true [0,0,1,1] vs pred [0,1,1,1], checked by hand
        m = evaluate([0, 1, 1, 1], [0, 0, 1, 1], 2)
        assert m.accuracy == 0.75
        assert np.array_equal(m.confusion, [[1, 1], [0, 2]])
        assert np.allclose(m.per_class_precision, [1.0, 2 / 3])
        assert np.allclose(m.per_class_recall, [0.5, 1.0])
        assert np.allclose(m.per_class_f1, [2 / 3, 0.8])
        assert m.macro_precision == pytest.approx(5 / 6, abs=1e-12)
        assert m.macro_recall == pytest.approx(0.75, abs=1e-12)
        assert m.macro_f1 == pytest.approx(11 / 15, abs=1e-12)

    def test_confusion_rows_are_truth(self):
        m = evaluate([1], [0], 2)
        assert np.array_equal(m.confusion, [[0, 1], [0, 0]])

    def test_perfect_predictions(self):
        y = [0, 1, 2, 1, 0, 2]
        m = evaluate(y, y, 3)
        assert m.accuracy == 1.0
        assert m.macro_precision == 1.0
        assert m.macro_recall == 1.0
        assert m.macro_f1 == 1.0
        assert np.array_equal(np.diag(m.confusion), [2, 2, 2])
        assert m.confusion.sum() == 6

    def test_undefined_ratios_score_zero(self):
        # class 2 never appears; class 0 has no correct predictions
        m = evaluate([1, 1], [0, 0], 3)
        assert m.per_class_precision[2] == 0.0
        assert m.per_class_recall[2] == 0.0
        assert m.per_class_f1[2] == 0.0
        assert m.per_class_recall[1] == 0.0  # no true samples: 0/0
        assert m.per_class_f1.sum() == 0.0
        assert m.accuracy == 0.0

    def test_macro_scores_are_unweighted_means(self):
        rng = np.random.default_rng(3)
        true = rng.integers(0, 4, size=200)
        pred = rng.integers(0, 4, size=200)
        m = evaluate(pred, true, 4)
        assert m.macro_precision == pytest.approx(m.per_class_precision.mean())
        assert m.macro_recall == pytest.approx(m.per_class_recall.mean())
        assert m.macro_f1 == pytest.approx(m.per_class_f1.mean())

    def test_input_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            evaluate([[0]], [[0]], 2)
        with pytest.raises(ValueError, match="equal length"):
            evaluate([0, 1], [0], 2)
        with pytest.raises(ValueError, match="at least one sample"):
            evaluate([], [], 2)
        with pytest.raises(ValueError, match="pred labels"):
            evaluate([2], [0], 2)
        with pytest.raises(ValueError, match="true labels"):
            evaluate([0], [-1], 2)
        with pytest.raises(ValueError, match="n_classes"):
            evaluate([0], [0], 0)


FULL_INI = """
[data]
csv = /some/data.csv
n_classes = 4
repetitions = 3
hold_duration = 1.5
rest_duration = 0.5
sample_rate = 1000
snr_db = 25
mains_hz = 60
class_seed = 11

[filter]
low_hz = 15
high_hz = 180
order = 4
notch_hz = 60, 120
quality = 25
zero_phase = true

[window]
length = 640
step = 160
include_rest = true

[features]
stft_seg_len = 128
stft_hop = 64

[train]
learning_rate = 0.2
num_leaves = 16
max_rounds = 40
min_data_in_leaf = 10
l2_regularization = 0.5
feature_fraction = 0.8
bagging_fraction = 0.9
top_rate = 0.3
other_rate = 0.2
max_bins = 127
early_stop_rounds = 5

[loss]
gain = 2.0
hard_classes = 1 3
auto = true

[ensemble]
enabled = false
k = 3

[hpo]
n_trials = 12
fast = false

[transfer]
base_model = /models/base
target_seed = 9
learning_rate = 0.08
max_rounds = 25
early_stop_rounds = 10
seeds = 2 4 6

[run]
out = results
model_dir = models
seed = 42
"""


class TestLoadConfig:
    def test_every_key_round_trips(self, tmp_path):
        path = tmp_path / "full.ini"
        path.write_text(FULL_INI)
        cfg = load_config(path)
        assert cfg.data_path == "/some/data.csv"
        assert cfg.synthetic == SyntheticSpec(
            n_classes=4, repetitions=3, hold_duration=1.5, rest_duration=0.5,
            sample_rate=1000.0, snr_db=25.0, mains_hz=60.0, class_seed=11,
        )
        assert cfg.bandpass_low_hz == 15.0
        assert cfg.bandpass_high_hz == 180.0
        assert cfg.bandpass_order == 4
        assert cfg.notch_hz == (60.0, 120.0)
        assert cfg.notch_quality == 25.0
        assert cfg.zero_phase is True
        assert cfg.window_len == 640
        assert cfg.step == 160
        assert cfg.include_rest is True
        assert cfg.features.sample_rate == 1000.0
        assert cfg.features.stft_seg_len == 128
        assert cfg.features.stft_hop == 64
        assert cfg.params == TrainParams(
            learning_rate=0.2, num_leaves=16, max_rounds=40,
            min_data_in_leaf=10, l2_regularization=0.5, feature_fraction=0.8,
            bagging_fraction=0.9, top_rate=0.3, other_rate=0.2, max_bins=127,
            early_stop_rounds=5,
        )
        assert cfg.loss == LossSpec(gain=2.0, hard_classes=frozenset({1, 3}))
        assert cfg.auto_hard_classes is True
        assert cfg.use_ensemble is False
        assert cfg.ensemble_k == 3
        assert cfg.hpo_trials == 12
        assert cfg.hpo_fast is False
        assert cfg.transfer == TransferConfig(
            learning_rate=0.08, max_rounds=25, early_stop_rounds=10
        )
        assert cfg.transfer_base_model == "/models/base"
        assert cfg.transfer_target_seed == 9
        assert cfg.transfer_seeds == (2, 4, 6)
        assert cfg.out_dir == "results"
        assert cfg.model_dir == "models"
        assert cfg.seed == 42
        assert cfg.resolved_model_dir() == "models"

    def test_missing_keys_fall_back_to_defaults(self, tmp_path):
        path = tmp_path / "min.ini"
        path.write_text("[run]\nseed = 7\n")
        cfg = load_config(path)
        ref = default_config()
        assert cfg.seed == 7
        assert cfg.data_path is None
        assert cfg.synthetic == ref.synthetic
        assert cfg.params == ref.params
        assert cfg.features == ref.features
        assert cfg.notch_hz == (74.0, 148.0)
        assert cfg.transfer == ref.transfer
        assert cfg.use_ensemble is True
        assert cfg.model_dir is None
        assert cfg.resolved_model_dir() == os.path.join(cfg.out_dir, "model")
        assert cfg == replace(default_config(), seed=7)

    def test_inline_comments_are_stripped(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[window]\nlength = 640 ; half-size windows\nstep = 160 # hop\n"
        )
        cfg = load_config(path)
        assert cfg.window_len == 640
        assert cfg.step == 160

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[windowing]\nlength = 640\n")
        with pytest.raises(ValueError, match=r"unknown config section \[windowing\]"):
            load_config(path)

    def test_unknown_keys_rejected_sorted(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[window]\nlenght = 3\nfoo = 1\n")
        with pytest.raises(ValueError, match=r"unknown key\(s\) in \[window\]: foo, lenght"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="config file not found"):
            load_config(tmp_path / "nope.ini")

    def test_window_shorter_than_a_segment_rejected_when_built(self):
        with pytest.raises(ValueError, match=r"\[window\] length 255 is shorter"):
            PipelineConfig(window_len=255)
        with pytest.raises(ValueError, match=r"\[features\] stft_seg_len 64$"):
            PipelineConfig(window_len=32, features=FeatureConfig(stft_seg_len=64))
        with pytest.raises(ValueError, match="must be at least 1"):
            PipelineConfig(step=-1)
        assert PipelineConfig(window_len=256).window_len == 256

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        # the README's "Config file" block shows every key at its default
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        assert load_config(path) == default_config()
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cp.read_string(block)
        shown = {section: set(cp[section]) for section in cp.sections()}
        assert shown == {section: set(keys) for section, keys in pipeline._INI_KEYS.items()}

    @pytest.mark.parametrize("gain", ["0", "-1"])
    def test_bad_gain_rejected_when_read(self, tmp_path, gain):
        path = tmp_path / "loss.ini"
        path.write_text(f"[loss]\ngain = {gain}\n")
        with pytest.raises(ValueError, match="gain must be > 0"):
            load_config(path)
        with pytest.raises(ValueError, match="gain must be > 0"):
            PipelineConfig(loss=LossSpec(gain=float(gain)))


def read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh]


class TestEmitReport:
    @pytest.fixture()
    def two_plans(self):
        a = evaluate([0, 1, 1], [0, 0, 1], 2)
        b = evaluate([0, 1, 0], [0, 1, 1], 2)
        return [a, b]

    def test_metrics_table(self, tmp_path, two_plans):
        paths = emit_report(two_plans, [1, 5], tmp_path, train_seconds=12.25)
        rows = read_rows(paths["metrics"])
        assert rows[0] == ["plan", "accuracy", "macro_precision", "macro_recall", "macro_f1"]
        assert len(rows) == 4  # header, two plans, mean
        assert [r[0] for r in rows[1:]] == ["1", "2", "mean"]
        for row, m in zip(rows[1:3], two_plans):
            got = [float(v) for v in row[1:]]
            assert got == [m.accuracy, m.macro_precision, m.macro_recall, m.macro_f1]
        means = [float(v) for v in rows[3][1:]]
        for j, name in enumerate(["accuracy", "macro_precision", "macro_recall", "macro_f1"]):
            expect = np.mean([getattr(m, name) for m in two_plans])
            assert means[j] == pytest.approx(expect, abs=1e-12)

    def test_per_movement_uses_pooled_confusion(self, tmp_path, two_plans):
        paths = emit_report(two_plans, [1, 5], tmp_path)
        rows = read_rows(paths["per_movement"])
        assert rows[0] == ["movement", "accuracy"]
        assert [r[0] for r in rows[1:]] == ["1", "5", "mean"]
        pooled = two_plans[0].confusion + two_plans[1].confusion
        per_class = np.diag(pooled) / pooled.sum(axis=1)
        assert float(rows[1][1]) == pytest.approx(per_class[0], abs=1e-12)
        assert float(rows[2][1]) == pytest.approx(per_class[1], abs=1e-12)
        assert float(rows[3][1]) == pytest.approx(per_class.mean(), abs=1e-12)

    def test_confusion_table(self, tmp_path, two_plans):
        paths = emit_report(two_plans, [1, 5], tmp_path)
        rows = read_rows(paths["confusion"])
        assert rows[0] == ["true", "pred_1", "pred_5"]
        pooled = two_plans[0].confusion + two_plans[1].confusion
        assert [r[0] for r in rows[1:]] == ["1", "5"]
        got = np.array([[int(v) for v in r[1:]] for r in rows[1:]])
        assert np.array_equal(got, pooled)

    def test_summary_carries_training_time(self, tmp_path, two_plans):
        paths = emit_report(two_plans, [1, 5], tmp_path, train_seconds=12.25)
        rows = read_rows(paths["summary"])
        assert rows[0] == ["accuracy", "macro_precision", "macro_recall", "macro_f1", "train_seconds"]
        assert len(rows) == 2
        assert float(rows[1][4]) == 12.25
        metrics_rows = read_rows(paths["metrics"])
        assert rows[1][:4] == metrics_rows[3][1:]

    def test_atomic_overwrite_leaves_no_temp_files(self, tmp_path, two_plans):
        emit_report(two_plans, [1, 5], tmp_path, train_seconds=1.0)
        first = (tmp_path / "metrics.csv").read_text()
        emit_report(two_plans, [1, 5], tmp_path, train_seconds=2.0)
        assert (tmp_path / "metrics.csv").read_text() == first
        assert "2.0" in (tmp_path / "summary.csv").read_text()
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_writes_leave_other_temp_files_alone(self, tmp_path, two_plans):
        # each write picks a fresh temp name, so a file another run is
        # still writing under the old fixed name is neither used nor moved
        other = tmp_path / "metrics.csv.tmp"
        other.write_text("another run")
        emit_report(two_plans, [1, 5], tmp_path, train_seconds=1.0)
        assert other.read_text() == "another run"
        assert (tmp_path / "metrics.csv").read_text().startswith("plan,")

    def test_empty_plan_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one plan"):
            emit_report([], [0], tmp_path)

    def test_exact_bytes(self, tmp_path, two_plans):
        paths = emit_report(two_plans, [1, 5], tmp_path, train_seconds=12.25)
        third = "0.6666666666666666"  # accuracy and macro_f1 of both plans
        expected = {
            "metrics": "plan,accuracy,macro_precision,macro_recall,macro_f1\n"
            f"1,{third},0.75,0.75,{third}\n2,{third},0.75,0.75,{third}\n"
            f"mean,{third},0.75,0.75,{third}\n",
            "per_movement": f"movement,accuracy\n1,{third}\n5,{third}\nmean,{third}\n",
            "confusion": "true,pred_1,pred_5\n1,2,1\n5,1,2\n",
            "summary": "accuracy,macro_precision,macro_recall,macro_f1,train_seconds\n"
            f"{third},0.75,0.75,{third},12.25\n",
        }
        for name, text in expected.items():
            assert Path(paths[name]).read_bytes() == text.encode()


class TestTransferCsv:
    def test_exact_bytes_with_an_absent_class(self, tmp_path):
        # class 4 is absent from every seed's test split: its row is nan
        # and the mean row skips it
        nan = np.nan
        report = TransferReport(
            classes=np.array([1, 4, 7]),
            seeds=(0, 1),
            before_per_class=np.array([[0.5, nan, 1.0], [0.25, nan, 0.75]]),
            after_per_class=np.array([[1.0, nan, 0.5], [0.75, nan, 1.0]]),
            before_accuracy=np.array([0.6, 0.4]),
            after_accuracy=np.array([0.7, 0.9]),
        )
        path = write_transfer_csv(report, tmp_path / "out")
        assert Path(path).read_bytes() == (
            b"movement,before_accuracy,after_accuracy\n"
            b"1,0.375,0.875\n4,nan,nan\n7,0.875,0.75\nmean,0.625,0.8125\n"
        )


TINY_SPEC = SyntheticSpec(
    n_classes=3, repetitions=6, hold_duration=0.8, rest_duration=0.25
)
TINY_PARAMS = TrainParams(
    learning_rate=0.3, num_leaves=8, max_rounds=4, min_data_in_leaf=5,
    max_bins=31, early_stop_rounds=0,
)


class TestFilterRecording:
    SPEC = SyntheticSpec(n_classes=6, hold_duration=1.5, seed=3)

    @pytest.mark.parametrize("zero_phase", [False, True], ids=["causal", "zero_phase"])
    def test_filters_in_place_like_the_whole_block(self, zero_phase):
        config = PipelineConfig(synthetic=self.SPEC, zero_phase=zero_phase)
        recording = generate_synthetic(self.SPEC)
        raw = recording.channels.copy()
        fs = recording.sample_rate
        chain = [design_bandpass(config.bandpass_low_hz, config.bandpass_high_hz,
                                 order=config.bandpass_order, sample_rate=fs)]
        chain += [design_notch(f0, quality=config.notch_quality, sample_rate=fs)
                  for f0 in config.notch_hz]
        want = filter_channels(cascade(*chain), raw, zero_phase=zero_phase)
        channels = recording.channels
        filtered = _filter_recording(config, recording)
        assert filtered.channels is channels
        assert filtered.channels.tobytes() == want.tobytes()

    @pytest.mark.parametrize("zero_phase", [False, True], ids=["causal", "zero_phase"])
    def test_filtering_allocates_no_full_size_array(self, zero_phase):
        config = PipelineConfig(synthetic=self.SPEC, zero_phase=zero_phase)
        recording = generate_synthetic(self.SPEC)
        tracemalloc.start()  # traces only what is allocated from here on
        try:
            _filter_recording(config, recording)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * recording.channels.nbytes


def tiny_config(out_dir, seed=5):
    return PipelineConfig(
        synthetic=TINY_SPEC,
        params=TINY_PARAMS,
        use_ensemble=False,
        out_dir=str(out_dir),
        seed=seed,
    )


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("train_a")
    config = tiny_config(out)
    result = run_pipeline(config, mode="train")
    return config, result


@pytest.fixture(scope="module")
def bagged_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("train_bagged")
    config = replace(tiny_config(out), use_ensemble=True, ensemble_k=3)
    result = run_pipeline(config, mode="train")
    return config, result


class TestRunModes:
    def test_train_mode_artifacts(self, trained_run):
        config, result = trained_run
        assert result["mode"] == "train"
        assert len(result["plan_accuracies"]) == 3
        assert result["mean_accuracy"] == pytest.approx(
            np.mean(result["plan_accuracies"])
        )
        for name in ("metrics", "per_movement", "confusion", "summary"):
            assert os.path.exists(result["files"][name])
        for i in (1, 2, 3):
            plan_dir = os.path.join(result["model_dir"], f"plan_{i}")
            assert sorted(os.listdir(plan_dir)) == ["model.json"]
        assert "train" in result["timings"]
        rows = read_rows(result["files"]["per_movement"])
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "mean"]

    def test_rerun_same_seed_byte_identical(self, trained_run, tmp_path):
        config, result = trained_run
        rerun = run_pipeline(tiny_config(tmp_path), mode="train")
        for name in ("metrics", "per_movement", "confusion"):
            assert (
                Path(rerun["files"][name]).read_bytes()
                == Path(result["files"][name]).read_bytes()
            )
        a = Path(result["model_dir"], "plan_1", "model.json").read_bytes()
        b = Path(rerun["model_dir"], "plan_1", "model.json").read_bytes()
        assert a == b
        first = read_rows(result["files"]["summary"])[1][:4]
        second = read_rows(rerun["files"]["summary"])[1][:4]
        assert first == second  # only train_seconds may differ

    def test_evaluate_mode_reproduces_metrics(self, trained_run, tmp_path):
        config, result = trained_run
        eval_config = replace(
            config, out_dir=str(tmp_path), model_dir=result["model_dir"]
        )
        rerun = run_pipeline(eval_config, mode="evaluate")
        assert rerun["mode"] == "evaluate"
        assert rerun["plan_accuracies"] == result["plan_accuracies"]
        assert (
            Path(rerun["files"]["metrics"]).read_bytes()
            == Path(result["files"]["metrics"]).read_bytes()
        )

    def test_evaluate_mode_needs_model_dir(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        config.model_dir = str(tmp_path / "missing")
        with pytest.raises(PipelineError, match="model directory not found") as err:
            run_pipeline(config, mode="evaluate")
        assert err.value.stage == "load"

    def test_transfer_mode_end_to_end(self, trained_run, tmp_path):
        config, result = trained_run
        transfer_config = replace(
            config,
            out_dir=str(tmp_path),
            transfer_base_model=os.path.join(result["model_dir"], "plan_1"),
            transfer_seeds=(0,),
            transfer=TransferConfig(
                learning_rate=0.2, max_rounds=4, early_stop_rounds=2
            ),
        )
        out = run_pipeline(transfer_config, mode="transfer")
        assert out["mode"] == "transfer"
        assert 0.0 <= out["before_mean"] <= 1.0
        assert 0.0 <= out["after_mean"] <= 1.0
        rows = read_rows(out["files"]["transfer_report"])
        assert rows[0] == ["movement", "before_accuracy", "after_accuracy"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "mean"]
        assert float(rows[4][2]) == pytest.approx(out["after_mean"], abs=1e-12)

    def test_transfer_mode_requires_base_model(self, tmp_path):
        config = tiny_config(tmp_path)
        with pytest.raises(PipelineError, match="base_model is required") as err:
            run_pipeline(config, mode="transfer")
        assert err.value.stage == "transfer"
        assert str(err.value).startswith("[transfer] ")

    def test_transfer_rejects_dir_without_model(self, tmp_path):
        base_dir = tmp_path / "ens"
        base_dir.mkdir()
        config = tiny_config(tmp_path / "out")
        config.transfer_base_model = str(base_dir)
        with pytest.raises(PipelineError, match="single boosted model") as err:
            run_pipeline(config, mode="transfer")
        assert err.value.stage == "load_model"

    def test_transfer_rejects_bagged_base(self, bagged_run, tmp_path):
        _, result = bagged_run
        config = tiny_config(tmp_path)
        config.transfer_base_model = os.path.join(result["model_dir"], "plan_1")
        with pytest.raises(PipelineError, match="bagged_ensemble") as err:
            run_pipeline(config, mode="transfer")
        assert err.value.stage == "load_model"

    def test_load_model_reads_a_bagged_plan_as_load_bagged_does(self, bagged_run):
        _, result = bagged_run
        plan_dir = os.path.join(result["model_dir"], "plan_1")
        model = load_model(os.path.join(plan_dir, "model.json"))
        bagged = load_bagged(plan_dir)
        assert isinstance(model, BaggedModel)
        rows = np.random.default_rng(0).normal(size=(25, len(model.bin_edges)))
        np.testing.assert_array_equal(model.predict_proba(rows), bagged.predict_proba(rows))
        np.testing.assert_array_equal(model.predict_label(rows), bagged.predict_label(rows))

    def test_load_bagged_refuses_a_single_model_plan(self, trained_run):
        _, result = trained_run
        plan_dir = os.path.join(result["model_dir"], "plan_1")
        with pytest.raises(ModelFormatError, match="single boosted model, not a bagged"):
            load_bagged(plan_dir)

    def test_evaluate_rejects_version_3_bagged_plan(self, bagged_run, tmp_path):
        # a v3 bagged plan dir held its ensemble in manifest.json
        config, result = bagged_run
        model_dir = tmp_path / "model"
        shutil.copytree(result["model_dir"], model_dir)
        for i in (1, 2, 3):
            plan_dir = model_dir / f"plan_{i}"
            doc = json.loads((plan_dir / "model.json").read_text())
            doc["format_version"] = 3
            for body in doc["member_bodies"]:
                body["round_scales"] = [body["params"]["learning_rate"]] * len(body["trees"])
            (plan_dir / "manifest.json").write_text(json.dumps(doc))
            (plan_dir / "model.json").unlink()
        eval_config = replace(config, out_dir=str(tmp_path), model_dir=str(model_dir))
        with pytest.raises(PipelineError) as err:
            run_pipeline(eval_config, mode="evaluate")
        assert err.value.stage == "load_model"

    @pytest.mark.parametrize("first_bagged", [True, False])
    def test_switching_model_kind_leaves_one_layout(self, tmp_path, first_bagged):
        # bagged then single, or single then bagged, into one out: each run
        # leaves only its own files, and evaluate scores what it trained
        out = tmp_path / "out"
        for bagged in (first_bagged, not first_bagged):
            config = replace(tiny_config(out, seed=3), use_ensemble=bagged, ensemble_k=3)
            result = run_pipeline(config, mode="train")
            for i in (1, 2, 3):
                plan_dir = os.path.join(result["model_dir"], f"plan_{i}")
                assert sorted(os.listdir(plan_dir)) == ["model.json"]
            eval_out = tmp_path / f"eval_{bagged}"
            rerun = run_pipeline(replace(config, out_dir=str(eval_out),
                                         model_dir=result["model_dir"]),
                                 mode="evaluate")
            assert (
                Path(rerun["files"]["metrics"]).read_bytes()
                == Path(result["files"]["metrics"]).read_bytes()
            )

    def test_tune_mode(self, tmp_path):
        config = replace(tiny_config(tmp_path), hpo_trials=3)
        result = run_pipeline(config, mode="tune")
        assert result["mode"] == "tune"
        assert result["n_trials"] == 3
        log = result["files"]["trials"]
        with open(log, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert all("bagging_fraction" in r["params"] for r in records)
        best_record = max(
            (r for r in records if r["status"] == "ok"), key=lambda r: r["value"]
        )
        with open(tmp_path / "best_params.json", encoding="utf-8") as fh:
            best = json.load(fh)
        assert best == {"value": best_record["value"], "params": best_record["params"]}
        assert result["best_value"] == best_record["value"]

        rerun = run_pipeline(replace(config, hpo_trials=4), mode="tune")
        assert rerun["n_trials"] == 4
        with open(log, encoding="utf-8") as fh:
            relines = fh.read().splitlines()
        assert relines[:3] == lines
        assert len(relines) == 4

    def test_tune_under_goss_leaves_bagging_fraction_out(self, tmp_path):
        # with GOSS on, bagging_fraction cannot change a model, so it is
        # not searched
        goss = replace(TINY_PARAMS, top_rate=0.2, other_rate=0.1)
        config = replace(tiny_config(tmp_path), params=goss, hpo_trials=2)
        result = run_pipeline(config, mode="tune")
        with open(result["files"]["trials"], encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == 2
        for record in records:
            assert record["status"] == "ok"
            assert "bagging_fraction" not in record["params"]

    def test_tune_names_an_empty_plan_side(self, tmp_path):
        # with 2 repetitions plan 3 tests on repetitions 4 and 6, which
        # do not exist
        config = replace(
            tiny_config(tmp_path),
            synthetic=replace(TINY_SPEC, repetitions=2),
            hpo_fast=False,
            hpo_trials=1,
        )
        with pytest.raises(PipelineError, match="plan 3 leaves an empty train or test side"):
            run_pipeline(config, mode="tune")

    def test_features_rate_must_match_recording(self, tmp_path):
        # band powers of a 1 kHz recording read at 2 kHz would cover the
        # wrong frequencies
        config = replace(
            tiny_config(tmp_path), synthetic=replace(TINY_SPEC, sample_rate=1000.0)
        )
        with pytest.raises(
            PipelineError, match="2000.0 Hz does not match the recording's 1000.0 Hz"
        ) as err:
            run_pipeline(config, mode="train")
        assert err.value.stage == "load"

    @pytest.mark.parametrize("use_ensemble", [False, True])
    def test_auto_hard_classes(self, tmp_path, use_ensemble):
        # each plan's loss flags what detect_hard_classes finds on that
        # plan's training rows, and a rerun is byte-identical
        config = replace(
            tiny_config(tmp_path / "a"),
            synthetic=replace(TINY_SPEC, snr_db=-20.0),
            auto_hard_classes=True,
            use_ensemble=use_ensemble,
            ensemble_k=3,
        )
        result = run_pipeline(config, mode="train")
        rerun = run_pipeline(replace(config, out_dir=str(tmp_path / "b")), mode="train")
        for name in ("metrics", "per_movement", "confusion"):
            assert (
                Path(rerun["files"][name]).read_bytes()
                == Path(result["files"][name]).read_bytes()
            )
        spec, params = _effective(config)
        windows = _prepare_windows(config, {}, spec)
        with _worker_pool(windows, 1) as pool:
            plan_rows = _plan_rows(config, windows, make_cv_plans(), {}, pool)
        for i, (_, X, y, _, _) in enumerate(plan_rows, start=1):
            plan_dir = os.path.join(result["model_dir"], f"plan_{i}")
            assert sorted(os.listdir(plan_dir)) == ["model.json"]
            assert (
                Path(plan_dir, "model.json").read_bytes()
                == Path(rerun["model_dir"], f"plan_{i}", "model.json").read_bytes()
            )
            detected = _holdout_fit(detect_hard_classes, X, y, params)
            assert detected
            model, _ = _load_plan(plan_dir)
            for member in model.members if use_ensemble else [model]:
                weighted = {
                    int(c) for c, w in zip(member.classes, member.class_weights) if w != 1.0
                }
                assert weighted == detected

    def test_transfer_from_model_file(self, trained_run, tmp_path):
        # a plan's model.json names the same base as its directory, and a
        # lone copy of it is a complete base: it carries the plan's stats
        config, result = trained_run
        plan_dir = os.path.join(result["model_dir"], "plan_1")
        lone = tmp_path / "lone"
        lone.mkdir()
        shutil.copy(os.path.join(plan_dir, "model.json"), lone / "model.json")
        reports = []
        bases = (plan_dir, os.path.join(plan_dir, "model.json"), str(lone / "model.json"))
        for k, base in enumerate(bases):
            transfer_config = replace(
                config,
                out_dir=str(tmp_path / str(k)),
                transfer_base_model=base,
                transfer_seeds=(0,),
                transfer=TransferConfig(learning_rate=0.2, max_rounds=4, early_stop_rounds=2),
            )
            out = run_pipeline(transfer_config, mode="transfer")
            reports.append(Path(out["files"]["transfer_report"]).read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_transfer_rejects_a_bare_saved_model(self, trained_run, tmp_path):
        # save_model writes a model without a plan's standardization
        _, result = trained_run
        model, _ = _load_plan(os.path.join(result["model_dir"], "plan_1"))
        save_model(model, tmp_path / "bare.json")
        config = tiny_config(tmp_path / "out")
        config.transfer_base_model = str(tmp_path / "bare.json")
        with pytest.raises(PipelineError, match="standardization") as err:
            run_pipeline(config, mode="transfer")
        assert err.value.stage == "load_model"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: s.pop("mean"), "standardization.mean must be a list of numbers"),
            (lambda s: s.update(std="1.0"), "standardization.std must be a list of numbers"),
            (lambda s: s.update(std=[1.0]),
             "standardization: mean and std must be 1-D arrays of equal length"),
            (None, "standardization must map mean and std to lists"),
            (lambda s: s["std"].__setitem__(3, float("nan")),
             "standardization: non-finite mean or std of channel(s): ch4"),
        ],
        ids=["missing-mean", "string-std", "short-std", "list", "nan-std"],
    )
    def test_malformed_standardization_names_file_and_key(
        self, trained_run, tmp_path, edit, message
    ):
        _, result = trained_run
        doc = json.loads(
            Path(result["model_dir"], "plan_1", "model.json").read_text()
        )
        stats = doc["standardization"]
        if edit is None:
            doc["standardization"] = [stats["mean"], stats["std"]]
        else:
            edit(stats)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        config = tiny_config(tmp_path / "out")
        config.transfer_base_model = str(path)
        with pytest.raises(PipelineError) as err:
            run_pipeline(config, mode="transfer")
        assert err.value.stage == "load_model"
        assert str(err.value) == f"[load_model] {path}: {message}"

    def test_transfer_rejects_empty_seeds(self, trained_run, tmp_path):
        config, result = trained_run
        transfer_config = replace(
            config,
            out_dir=str(tmp_path),
            transfer_base_model=os.path.join(result["model_dir"], "plan_1"),
            transfer_seeds=(),
        )
        with pytest.raises(PipelineError, match="at least one seed") as err:
            run_pipeline(transfer_config, mode="transfer")
        assert err.value.stage == "transfer"
        assert not os.path.exists(tmp_path / "transfer_report.csv")

    def test_bad_data_path_fails_in_load_stage(self, tmp_path):
        config = tiny_config(tmp_path)
        config.data_path = str(tmp_path / "missing.csv")
        with pytest.raises(PipelineError) as err:
            run_pipeline(config, mode="train")
        assert err.value.stage == "load"

    def test_non_finite_cell_fails_in_load_stage(self, tmp_path):
        # a Recording refuses NaN itself, so the cell is written into the file
        csv = tmp_path / "recording.csv"
        save_recording(generate_synthetic(replace(TINY_SPEC, seed=5)), csv)
        lines = csv.read_text().splitlines(keepends=True)
        cells = lines[8].split(",")  # line 9 holds sample 7
        cells[3] = "nan"
        lines[8] = ",".join(cells)
        csv.write_text("".join(lines))
        config = replace(tiny_config(tmp_path / "out"), data_path=str(csv))
        with pytest.raises(PipelineError) as err:
            run_pipeline(config, mode="train")
        assert err.value.stage == "load"
        assert str(err.value) == "[load] line 9: non-finite ch4 value nan"

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mode must be one of"):
            run_pipeline(tiny_config(tmp_path), mode="predict")

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_ensemble_k_below_two_fails_before_data_work(self, tmp_path, monkeypatch, k):
        monkeypatch.setattr(
            pipeline, "_prepare_windows", lambda *args: pytest.fail("data work began")
        )
        config = replace(tiny_config(tmp_path), use_ensemble=True, ensemble_k=k)
        with pytest.raises(PipelineError) as err:
            run_pipeline(config, mode="train")
        assert err.value.stage == "train"
        assert str(err.value) == f"[train] config [ensemble] k must be at least 2, not {k}"
        assert not os.path.exists(config.resolved_model_dir())


RUN_FILES = ("metrics.csv", "per_movement.csv", "confusion.csv") + tuple(
    f"model/plan_{i}/model.json" for i in (1, 2, 3)
)


def run_bytes(out_dir):
    return {name: (out_dir / name).read_bytes() for name in RUN_FILES}


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every pool the pipeline opens, in order."""
    sizes = []
    pool_class = pipeline.ProcessPoolExecutor

    def counted(max_workers, **kwargs):
        sizes.append(max_workers)
        return pool_class(max_workers, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", counted)
    return sizes


# Submits an unpicklable job three times to a 2-worker _worker_pool and
# prints the error's type and the number of live children after the pool.
UNPICKLABLE_SCRIPT = """
import multiprocessing, os
from semgkit import pipeline
os.sched_getaffinity = lambda pid: {0, 1}
job = lambda: None
try:
    with pipeline._worker_pool((), 3) as pool:
        futures = [pool.submit(job) for _ in range(3)]
        futures[0].result()
except Exception as exc:
    print(type(exc).__name__, str(exc), len(multiprocessing.active_children()))
"""


class TestWorkerPool:
    """train runs its feature rows and fits in min(CPUs, fits) worker processes."""

    @pytest.mark.parametrize("use_ensemble", [True, False], ids=["bagged", "single"])
    def test_any_worker_count_gives_the_same_files(
        self, tmp_path, monkeypatch, pool_sizes, use_ensemble
    ):
        config = replace(tiny_config(tmp_path), use_ensemble=use_ensemble, ensemble_k=3)
        outputs = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            out = tmp_path / f"cpus{cpus}"
            run_pipeline(replace(config, out_dir=str(out)), mode="train")
            outputs.append(run_bytes(out))
            assert multiprocessing.active_children() == []
        assert outputs[0] == outputs[1] == outputs[2]
        fits = 3 * (3 if use_ensemble else 1)
        assert pool_sizes == [min(cpus, fits) for cpus in (1, 2, 4)]

    def test_saved_members_equal_train_bagged(self, bagged_run, tmp_path):
        config, result = bagged_run
        spec, params = _effective(config)
        windows = _prepare_windows(config, {}, spec)
        with _worker_pool(windows, 1) as pool:
            plan_rows = _plan_rows(config, windows, make_cv_plans(), {}, pool)
        for i, (stats, X, y, _, _) in enumerate(plan_rows, start=1):
            model = train_bagged(
                X, y, params=params, loss=config.loss, k=config.ensemble_k
            )
            _save_plan(str(tmp_path / f"plan_{i}"), model, stats)
            assert (tmp_path / f"plan_{i}" / "model.json").read_bytes() == Path(
                result["model_dir"], f"plan_{i}", "model.json"
            ).read_bytes()

    @pytest.mark.parametrize("use_ensemble", [True, False], ids=["bagged", "single"])
    def test_one_class_train_side_fails_in_train_stage(self, tmp_path, use_ensemble):
        # classes 2 and 3 are held only in repetitions 1 and 3, which plan 1
        # tests on, so plan 1 trains on class 1 alone; holds of 4 windows
        # give every class of plans 2 and 3 a sample in each of 5 folds.
        # Plan 1's fit arguments are built in this process, so they fail
        # before any of its fit jobs is submitted.
        recording = generate_synthetic(replace(TINY_SPEC, hold_duration=1.2, seed=5))
        stimulus = recording.stimulus.copy()
        stimulus[(stimulus > 1) & ~np.isin(recording.repetition, (1, 3))] = 0
        csv = tmp_path / "recording.csv"
        save_recording(replace(recording, stimulus=stimulus), csv)
        config = replace(
            tiny_config(tmp_path / "out"), data_path=str(csv),
            use_ensemble=use_ensemble, ensemble_k=3,
        )
        with pytest.raises(PipelineError) as err:
            run_pipeline(config, mode="train")
        assert str(err.value) == "[train] training needs at least two classes"
        assert err.value.stage == "train"
        assert multiprocessing.active_children() == []

    def test_unpicklable_jobs_fail_without_a_hang(self):
        # several jobs that fail to pickle once left shutdown waiting forever,
        # so the run gets a hard timeout and is killed with its workers
        run = subprocess.Popen(
            [sys.executable, "-c", UNPICKLABLE_SCRIPT],
            env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, stderr = run.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.communicate()
            pytest.fail("_worker_pool did not return in 60 s")
        assert run.returncode == 0, stderr
        # the pickling error reaches the caller, and no worker outlives the pool
        assert "pickle" in stdout
        assert stdout.split()[-1] == "0"


class TestTransferPool:
    """transfer makes its rows and fits in min(CPUs, jobs) worker processes."""

    SEEDS = (0, 1, 2)

    @pytest.fixture
    def transfer_config(self, trained_run, tmp_path):
        config, result = trained_run
        return replace(
            config,
            out_dir=str(tmp_path / "out"),
            transfer_base_model=os.path.join(result["model_dir"], "plan_1"),
            transfer_seeds=self.SEEDS,
            transfer=TransferConfig(learning_rate=0.2, max_rounds=4, early_stop_rounds=2),
        )

    def test_any_worker_count_gives_the_same_report(
        self, transfer_config, tmp_path, monkeypatch, pool_sizes
    ):
        reports = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            out = run_pipeline(
                replace(transfer_config, out_dir=str(tmp_path / f"cpus{cpus}")),
                mode="transfer",
            )
            reports.append(Path(out["files"]["transfer_report"]).read_bytes())
            assert multiprocessing.active_children() == []
        assert reports[0] == reports[1] == reports[2]
        # 36 target windows make one feature job, fewer than the 6 fits
        windows = _prepare_windows(transfer_config, {}, _effective(transfer_config)[0])
        assert len(windows) == 36
        jobs = 2 * len(self.SEEDS)
        assert pool_sizes == [min(cpus, jobs) for cpus in (1, 2, 4)]

    def test_report_equals_the_serial_report(self, transfer_config, monkeypatch):
        reports = []
        report_fn = pipeline.transfer_report

        def serial_too(*args, pool, **kwargs):
            reports.append(report_fn(*args, **kwargs))
            reports.append(report_fn(*args, pool=pool, **kwargs))
            return reports[-1]

        monkeypatch.setattr(pipeline, "transfer_report", serial_too)
        run_pipeline(transfer_config, mode="transfer")
        serial, pooled = reports
        for name in ("before_per_class", "after_per_class", "before_accuracy",
                     "after_accuracy"):
            np.testing.assert_array_equal(getattr(serial, name), getattr(pooled, name))

    def test_target_class_outside_the_base_fails_in_transfer_stage(
        self, transfer_config
    ):
        config = replace(transfer_config, synthetic=replace(TINY_SPEC, n_classes=4))
        with pytest.raises(PipelineError) as err:
            run_pipeline(config, mode="transfer")
        assert str(err.value) == "[transfer] labels outside the model classes: [4]"
        assert multiprocessing.active_children() == []

    def test_failing_fit_job_fails_in_transfer_stage(self, transfer_config, tmp_path):
        # a target of class 1 alone: each scratch arm has one class to train
        # on, and its fit arguments, built in this process, fail before any
        # fit job is submitted
        recording = generate_synthetic(replace(TINY_SPEC, seed=6))
        stimulus = np.where(recording.stimulus > 1, 0, recording.stimulus)
        csv = tmp_path / "target.csv"
        save_recording(replace(recording, stimulus=stimulus), csv)
        with pytest.raises(PipelineError) as err:
            run_pipeline(replace(transfer_config, data_path=str(csv)), mode="transfer")
        assert str(err.value) == "[transfer] training needs at least two classes"
        assert multiprocessing.active_children() == []


def test_a_job_raising_in_a_worker_fails_the_run(trained_run, tmp_path, monkeypatch):
    # the feature jobs of train and transfer call _analytic_signal in the
    # pool's forked workers, which inherit this replacement
    def failing(x):
        raise ValueError(f"no analytic signal in process {os.getpid()}")

    config, result = trained_run
    monkeypatch.setattr(features, "_analytic_signal", failing)
    transfer_config = replace(
        config, out_dir=str(tmp_path / "transfer"),
        transfer_base_model=os.path.join(result["model_dir"], "plan_1"),
    )
    for run, mode in ((replace(config, out_dir=str(tmp_path / "train")), "train"),
                      (transfer_config, "transfer")):
        with pytest.raises(PipelineError) as err:
            run_pipeline(run, mode=mode)
        assert err.value.stage == "features"
        message, pid = str(err.value).rsplit(" ", 1)
        assert message == "[features] no analytic signal in process"
        assert int(pid) != os.getpid()
        assert multiprocessing.active_children() == []


CLI_INI = """
[data]
n_classes = 2
repetitions = 6
hold_duration = 0.8
rest_duration = 0.25

[train]
max_rounds = 3
num_leaves = 8
min_data_in_leaf = 5
max_bins = 31
top_rate = 1.0
other_rate = 0.0
early_stop_rounds = 0

[ensemble]
enabled = false
"""


def write_cli_ini(tmp_path, out_dir, extra=""):
    path = tmp_path / "run.ini"
    path.write_text(CLI_INI + f"\n[run]\nout = {out_dir}\nseed = 3\n" + extra)
    return str(path)


class TestCli:
    def test_synth_writes_recording(self, tmp_path, capsys):
        ini = write_cli_ini(tmp_path, tmp_path / "out")
        assert main(["synth", "--config", ini]) == 0
        csv_path = tmp_path / "out" / "recording.csv"
        assert csv_path.exists()
        assert "wrote" in capsys.readouterr().out
        recording = load_recording(csv_path)
        assert recording.n_channels == 12
        assert set(np.unique(recording.stimulus)) == {0, 1, 2}

    def test_synth_seed_pins_bytes(self, tmp_path, capsys):
        ini_a = write_cli_ini(tmp_path, tmp_path / "a")
        assert main(["synth", "--config", ini_a]) == 0
        assert main(["synth", "--config", ini_a, "--out", str(tmp_path / "b")]) == 0
        assert main([
            "synth", "--config", ini_a, "--out", str(tmp_path / "c"), "--seed", "4",
        ]) == 0
        a = (tmp_path / "a" / "recording.csv").read_bytes()
        assert (tmp_path / "b" / "recording.csv").read_bytes() == a
        assert (tmp_path / "c" / "recording.csv").read_bytes() != a

    def test_train_subcommand(self, tmp_path, capsys):
        out = tmp_path / "run"
        ini = write_cli_ini(tmp_path, out)
        assert main(["train", "--config", ini]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["mode"] == "train"
        assert (out / "metrics.csv").exists()
        assert (out / "model" / "plan_2" / "model.json").exists()

    def test_mode_flag_spelling(self, tmp_path, capsys):
        ini = write_cli_ini(tmp_path, tmp_path / "out")
        assert main(["--mode", "synth", "--config", ini]) == 0
        assert (tmp_path / "out" / "recording.csv").exists()

    def test_rewrite_mode_flag(self):
        assert _rewrite_mode_flag(["--mode", "train", "--seed", "1"]) == [
            "train", "--seed", "1",
        ]
        assert _rewrite_mode_flag(["--mode=tune"]) == ["tune"]
        assert _rewrite_mode_flag(["synth", "--seed", "1"]) == ["synth", "--seed", "1"]

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[bogus]\nx = 1\n")
        assert main(["train", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert main(["train", "--config", str(tmp_path / "missing.ini")]) == 1
        assert "config file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["train", "tune", "transfer"])
    @pytest.mark.parametrize("gain", ["0", "-1"])
    def test_bad_gain_fails_before_any_output(self, tmp_path, capsys, mode, gain):
        out = tmp_path / "out"
        ini = write_cli_ini(tmp_path, out, extra=f"\n[loss]\ngain = {gain}\n")
        assert main([mode, "--config", ini]) == 1
        assert capsys.readouterr().err == "error: gain must be > 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                "\n[window]\nlength = 200\n",
                "[window] length 200 is shorter than [features] stft_seg_len 256",
            ),
            (
                "\n[features]\nstft_seg_len = 2000\n",
                "[window] length 1280 is shorter than [features] stft_seg_len 2000",
            ),
            (
                "\n[window]\nlength = 0\n",
                "[window] length and step must be at least 1, not 0 and 320",
            ),
            (
                "\n[window]\nstep = 0\n",
                "[window] length and step must be at least 1, not 1280 and 0",
            ),
        ],
        ids=["short_window", "long_segment", "zero_length", "zero_step"],
    )
    @pytest.mark.parametrize("mode", ["train", "evaluate", "tune", "transfer"])
    def test_window_without_a_segment_fails_before_any_output(
        self, tmp_path, capsys, monkeypatch, mode, extra, message
    ):
        def no_data_work(*args):
            raise AssertionError("the config error must come before any data work")

        monkeypatch.setattr(pipeline, "_prepare_windows", no_data_work)
        out = tmp_path / "out"
        assert main([mode, "--config", write_cli_ini(tmp_path, out, extra=extra)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "[ensemble]\nk = 3\nk = 4\n",
                "option 'k' in section 'ensemble' already exists",
            ),
            ("n_classes = 3\n[data]\n", "File contains no section headers."),
        ],
        ids=["duplicate_key", "no_section"],
    )
    def test_unreadable_config_names_the_file(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {bad}: ")
        assert message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("data", "n_classes", "abc", "invalid literal for int() with base 10: 'abc'"),
            ("filter", "low_hz", "low", "could not convert string to float: 'low'"),
            ("window", "include_rest", "maybe", "Not a boolean: maybe"),
            ("loss", "hard_classes", "1 two", "invalid literal for int() with base 10: 'two'"),
        ],
        ids=["int", "float", "bool", "int_list"],
    )
    def test_unparsable_value_names_section_and_key(
        self, tmp_path, capsys, section, key, value, message
    ):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: [{section}] {key}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_report_merges_runs(self, tmp_path, capsys):
        for name, acc in (("run_x", "0.5"), ("run_y", "0.75")):
            d = tmp_path / name
            d.mkdir()
            (d / "per_movement.csv").write_text(
                f"movement,accuracy\n1,{acc}\n2,0.25\nmean,0.4\n"
            )
        out = tmp_path / "cmp"
        assert main([
            "report", str(tmp_path / "run_x"), str(tmp_path / "run_y"),
            "--out", str(out),
        ]) == 0
        assert (out / "comparison.csv").read_bytes() == (
            b"movement,run_x,run_y\n1,0.5,0.75\n2,0.25,0.25\nmean,0.4,0.4\n"
        )

    def test_report_missing_table_fails(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["report", str(tmp_path / "empty")]) == 1
        assert "no per_movement.csv" in capsys.readouterr().err

    def test_report_mismatched_rows_fail(self, tmp_path, capsys):
        for name, rows in (("p", "1,0.5\n2,0.5\n"), ("q", "1,0.5\n3,0.5\n")):
            d = tmp_path / name
            d.mkdir()
            (d / "per_movement.csv").write_text("movement,accuracy\n" + rows)
        assert main(["report", str(tmp_path / "p"), str(tmp_path / "q")]) == 1
        assert "do not match" in capsys.readouterr().err
