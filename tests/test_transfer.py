"""Warm-start transfer: additivity, frozen base trees, paired reports."""
from __future__ import annotations

import dataclasses
import pickle
from concurrent.futures import Executor, Future

import numpy as np
import pytest

from semgkit.ensemble import predict_bagged, train_bagged
from semgkit.gbdt import (
    TrainParams, Tree, load_model, predict_label, predict_proba, predict_raw,
    save_model, train,
)
from semgkit.gbdt import tree as tree_module
from semgkit.transfer import (
    TransferConfig,
    _paired_split,
    _phase_params,
    transfer_report,
    warm_start,
)


def shifted(features, seed, gain_lo=0.6, gain_hi=1.4):
    """Per-feature gain perturbation standing in for changed conditions."""
    rng = np.random.default_rng(seed)
    return features * rng.uniform(gain_lo, gain_hi, size=features.shape[1])


@pytest.fixture(scope="module")
def base_setup():
    rng = np.random.default_rng(0)
    centers = rng.normal(0.0, 4.0, size=(3, 12))
    spread = 1.2

    def draw(n_per_class, seed):
        r = np.random.default_rng(seed)
        features = np.vstack([
            centers[c] + spread * r.standard_normal((n_per_class, 12))
            for c in range(3)
        ])
        labels = np.repeat(np.arange(3), n_per_class)
        order = r.permutation(features.shape[0])
        return features[order], labels[order]

    source_x, source_y = draw(250, seed=1)
    base = train(source_x, source_y, params=TrainParams(max_rounds=30, seed=0))
    return base, draw


class TestWarmStart:
    def test_prediction_additivity_exact(self, base_setup):
        base, draw = base_setup
        target_x, target_y = draw(40, seed=2)
        warm = warm_start(base, target_x, target_y,
                          cfg=TransferConfig(max_rounds=5))
        probe = draw(10, seed=3)[0]
        base_raw = predict_raw(base, probe, n_rounds=base.best_iteration)
        prefix = predict_raw(warm, probe, n_rounds=base.best_iteration)
        np.testing.assert_array_equal(prefix, base_raw)

    def test_base_trees_shared_and_bit_identical(self, base_setup, tmp_path):
        base, draw = base_setup
        target_x, target_y = draw(40, seed=4)
        warm = warm_start(base, target_x, target_y,
                          cfg=TransferConfig(max_rounds=4))
        n_base = base.best_iteration
        assert warm.n_rounds == n_base + 4
        for r in range(n_base):
            for c in range(3):
                assert warm.trees[r][c] is base.trees[r][c]
        # the shared trees survive a save/load round trip byte for byte
        warm_path = tmp_path / "warm.json"
        save_model(warm, warm_path)
        loaded = load_model(warm_path)
        for r in range(n_base):
            for c in range(3):
                np.testing.assert_array_equal(
                    loaded.trees[r][c].value, base.trees[r][c].value
                )
                np.testing.assert_array_equal(
                    loaded.trees[r][c].feature, base.trees[r][c].feature
                )
                np.testing.assert_array_equal(
                    loaded.trees[r][c].threshold, base.trees[r][c].threshold
                )

    def test_new_rounds_use_transfer_rate(self, base_setup):
        # the new trees' leaf values carry cfg.learning_rate: the same first
        # new round at twice the rate has twice the values (powers of two,
        # so the ratio is exact)
        base, draw = base_setup
        target_x, target_y = draw(30, seed=5)
        n_base = base.best_iteration
        slow, fast = (
            warm_start(base, target_x, target_y,
                       cfg=TransferConfig(learning_rate=rate, max_rounds=1))
            for rate in (0.25, 0.5)
        )
        for warm in (slow, fast):
            assert warm.n_rounds == warm.best_iteration == n_base + 1  # no validation set
        for a, b in zip(slow.trees[n_base], fast.trees[n_base]):
            np.testing.assert_array_equal(a.feature, b.feature)
            np.testing.assert_array_equal(a.threshold, b.threshold)
            np.testing.assert_array_equal(a.left, b.left)
            np.testing.assert_array_equal(a.right, b.right)
            np.testing.assert_array_equal(b.value, 2.0 * a.value)
            assert np.any(a.value != 0.0)

    def test_labels_outside_base_classes_rejected(self, base_setup):
        base, draw = base_setup
        target_x, target_y = draw(20, seed=6)
        with pytest.raises(ValueError, match="outside the model classes"):
            warm_start(base, target_x, target_y + 7)

    def test_width_mismatch_rejected(self, base_setup):
        base, draw = base_setup
        target_x, target_y = draw(20, seed=7)
        with pytest.raises(ValueError, match="does not match the model width"):
            warm_start(base, target_x[:, :5], target_y)

    def test_truncated_base_keeps_best_prefix(self, base_setup):
        # a base stopped by validation with patience 0 grows all its rounds
        # but is best earlier; only that prefix carries into the warm model
        _, draw = base_setup
        source_x, source_y = draw(40, seed=16)
        source_x = source_x + np.random.default_rng(16).normal(0.0, 6.0, source_x.shape)
        base = train(
            source_x[:90], source_y[:90], source_x[90:], source_y[90:],
            params=TrainParams(max_rounds=20, early_stop_rounds=0, seed=0),
        )
        assert 0 < base.best_iteration < base.n_rounds
        target_x, target_y = draw(30, seed=14)
        warm = warm_start(base, target_x, target_y, cfg=TransferConfig(max_rounds=3))
        n_base = base.best_iteration
        assert warm.n_rounds == n_base + 3
        for r in range(n_base):
            for c in range(3):
                assert warm.trees[r][c] is base.trees[r][c]
        np.testing.assert_array_equal(
            predict_raw(warm, target_x, n_rounds=n_base),
            predict_raw(base, target_x, n_base),
        )

    def test_recomputes_class_weights_on_target(self, base_setup):
        base, draw = base_setup
        target_x, target_y = draw(30, seed=9)
        from semgkit.gbdt import LossSpec

        warm = warm_start(
            base, target_x, target_y, cfg=TransferConfig(max_rounds=2),
            loss=LossSpec(gain=1.5, hard_classes=frozenset({1})),
        )
        expected = 1.5 * np.exp(1.0 - 1.0 / 3.0)
        assert warm.class_weights[1] == pytest.approx(expected, rel=1e-12)

    def test_early_stopping_on_target_validation(self, base_setup):
        base, draw = base_setup
        target_x, target_y = draw(60, seed=10)
        cut = 120
        warm = warm_start(
            base, target_x[:cut], target_y[:cut], target_x[cut:], target_y[cut:],
            cfg=TransferConfig(max_rounds=60, early_stop_rounds=5),
        )
        n_base = base.best_iteration
        new_rounds = warm.n_rounds - n_base
        best_new = warm.best_iteration - n_base
        assert new_rounds <= best_new + 5

    @pytest.mark.parametrize(
        "draw_seed, gain_seed, best_new", [(23, 3, 6), (20, 0, 0)]
    )
    def test_saturation_stop_matches_patience_zero(
        self, base_setup, draw_seed, gain_seed, best_new
    ):
        # target validation accuracy reaches 1.0 after best_new new rounds
        # (0: the base alone scores 1.0); growing stops there and keeps
        # the same best round, trees and predictions as patience 0
        base, draw = base_setup
        target_x, target_y = draw(60, seed=draw_seed)
        target_x = shifted(target_x, gain_seed, 0.3, 2.0)
        args = (base, target_x[:120], target_y[:120], target_x[120:], target_y[120:])
        stopped = warm_start(
            *args, cfg=TransferConfig(max_rounds=40, early_stop_rounds=10)
        )
        full = warm_start(*args, cfg=TransferConfig(max_rounds=40, early_stop_rounds=0))
        n_base = base.best_iteration
        assert full.n_rounds == n_base + 40
        assert full.best_iteration == n_base + best_new
        assert full.history["valid_accuracy"][best_new] == 1.0
        assert stopped.best_iteration == full.best_iteration
        assert stopped.n_rounds == stopped.best_iteration
        assert stopped.history["valid_accuracy"][-1] == 1.0
        for r in range(stopped.n_rounds):
            for a, b in zip(stopped.trees[r], full.trees[r]):
                for f in dataclasses.fields(a):
                    np.testing.assert_array_equal(
                        getattr(a, f.name), getattr(b, f.name)
                    )
        np.testing.assert_array_equal(
            stopped.predict_proba(target_x), full.predict_proba(target_x)
        )

    def test_warm_helps_on_identical_distribution(self, base_setup):
        # small target drawn from the source distribution: the base head
        # start should win (or tie) against scratch in most paired seeds
        base, draw = base_setup
        wins = 0
        for seed in range(10):
            target_x, target_y = draw(24, seed=100 + seed)
            report = transfer_report(
                target_x, target_y, base,
                cfg=TransferConfig(max_rounds=20, early_stop_rounds=10),
                seeds=(seed,),
            )
            if report.after_accuracy[0] >= report.before_accuracy[0]:
                wins += 1
        assert wins >= 8


class TestPairedSplit:
    def test_quarter_partition(self):
        labels = np.repeat(np.arange(3), 40)
        rng = np.random.default_rng(0)
        train_mask, valid_mask, test_mask = _paired_split(labels, rng)
        assert not np.any(train_mask & valid_mask)
        assert not np.any(train_mask & test_mask)
        assert not np.any(valid_mask & test_mask)
        np.testing.assert_array_equal(train_mask | valid_mask | test_mask, True)
        for cls in range(3):
            mask = labels == cls
            assert int((train_mask & mask).sum()) == 20
            assert int((valid_mask & mask).sum()) == 10
            assert int((test_mask & mask).sum()) == 10

    def test_deterministic_given_rng_seed(self):
        labels = np.random.default_rng(1).integers(0, 4, size=100)
        a = _paired_split(labels, np.random.default_rng(5))
        b = _paired_split(labels, np.random.default_rng(5))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class InlineExecutor(Executor):
    """Runs each job at once in this process and keeps the submitted functions
    and their results."""

    def __init__(self) -> None:
        self.submitted = []
        self.results = []

    def submit(self, fn, /, *args, **kwargs):
        self.submitted.append(fn)
        self.results.append(fn(*args, **kwargs))
        future = Future()
        future.set_result(self.results[-1])
        return future


class TestTransferReport:
    def test_report_layout(self, base_setup):
        base, draw = base_setup
        target_x, target_y = draw(32, seed=11)
        report = transfer_report(
            target_x, target_y, base,
            cfg=TransferConfig(max_rounds=5, early_stop_rounds=3),
            seeds=(0, 1, 2),
        )
        assert report.before_per_class.shape == (3, 3)
        assert report.after_per_class.shape == (3, 3)
        assert report.before_accuracy.shape == (3,)
        rows = report.per_class_rows()
        assert [c for c, _, _ in rows] == [0, 1, 2]
        mean_before, mean_after = report.mean_row()
        assert 0.0 <= mean_before <= 1.0
        assert 0.0 <= mean_after <= 1.0

    def test_shifted_target_prefers_warm_start(self, base_setup):
        base, draw = base_setup
        wins = 0
        for seed in range(6):
            target_x, target_y = draw(28, seed=200 + seed)
            target_x = shifted(target_x, seed=300 + seed, gain_lo=0.8, gain_hi=1.2)
            report = transfer_report(
                target_x, target_y, base,
                cfg=TransferConfig(max_rounds=25, early_stop_rounds=10),
                seeds=(seed,),
            )
            if report.after_accuracy[0] >= report.before_accuracy[0]:
                wins += 1
        assert wins >= 4

    def test_scratch_arm_is_train_on_the_split(self, base_setup):
        # before = train on the target split alone with the transfer-phase
        # params: fresh bin edges and no base trees
        base, draw = base_setup
        target_x, target_y = draw(32, seed=8)
        cfg = TransferConfig(max_rounds=6, early_stop_rounds=3)
        report = transfer_report(target_x, target_y, base, cfg=cfg, seeds=(3,))
        train_mask, valid_mask, test_mask = _paired_split(
            target_y, np.random.default_rng([3, 404])
        )
        scratch = train(
            target_x[train_mask], target_y[train_mask],
            target_x[valid_mask], target_y[valid_mask],
            params=_phase_params(base, cfg, 3),
        )
        assert scratch.n_rounds <= 6
        assert len(scratch.bin_edges) == len(base.bin_edges)
        assert not all(
            np.array_equal(a, b)
            for a, b in zip(scratch.bin_edges, base.bin_edges)
        )
        pred = scratch.predict_label(target_x[test_mask])
        assert report.before_accuracy[0] == np.mean(pred == target_y[test_mask])

    def test_pool_jobs_are_private_module_functions(self, base_setup):
        # a caller may replace public names with wrappers that cannot be
        # pickled, so only private module-level functions are submitted;
        # each job sends back its test rows' labels, so no model crosses
        # the pool
        base, draw = base_setup
        target_x, target_y = draw(32, seed=12)
        pool = InlineExecutor()
        report = transfer_report(
            target_x, target_y, base, cfg=TransferConfig(max_rounds=3), seeds=(0, 1),
            pool=pool,
        )
        names = [f"{fn.__module__}.{fn.__qualname__}" for fn in pool.submitted]
        assert names == ["semgkit.transfer._fit_labels"] * 4
        for fn in pool.submitted:
            assert pickle.loads(pickle.dumps(fn)) is fn
        for seed, result in zip((0, 0, 1, 1), pool.results):
            _, _, test_mask = _paired_split(
                target_y, np.random.default_rng([seed, 404])
            )
            assert isinstance(result, np.ndarray)
            assert result.shape == (int(test_mask.sum()),)
            assert set(result.tolist()) <= set(base.classes.tolist())
        serial = transfer_report(
            target_x, target_y, base, cfg=TransferConfig(max_rounds=3), seeds=(0, 1)
        )
        np.testing.assert_array_equal(report.after_per_class, serial.after_per_class)
        np.testing.assert_array_equal(report.before_per_class, serial.before_per_class)

    def test_labels_outside_base_classes_fail_before_any_job(self, base_setup):
        # the whole target is checked against the base classes before the
        # first job is built, so no seed's scratch job is submitted first
        base, draw = base_setup
        target_x, target_y = draw(32, seed=13)
        target_y[:4] = 9
        pool = InlineExecutor()
        with pytest.raises(ValueError, match=r"outside the model classes: \[9\]"):
            transfer_report(target_x, target_y, base, seeds=(0, 1), pool=pool)
        assert pool.submitted == []

    def test_empty_seed_list_rejected(self, base_setup):
        base, draw = base_setup
        target_x, target_y = draw(32, seed=11)
        with pytest.raises(ValueError, match="seeds must name at least one seed"):
            transfer_report(target_x, target_y, base, seeds=())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransferConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TransferConfig(max_rounds=0)
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                TransferConfig(learning_rate=rate)
        with pytest.raises(ValueError, match="learning_rate must be a number, not True"):
            TransferConfig(learning_rate=True)


ROWS_2D = "features must be a 2-D array with at least one row"
LABELS_1D = "labels must be 1-D with one entry per row"
WIDTH = "does not match the model width"
FINITE = "features must be finite"


def _row_set_call(entry, base, x_ok, y_ok):
    """The named entry point as a call on the row set under test."""
    params, cfg = TrainParams(max_rounds=1), TransferConfig(max_rounds=1)
    return {
        "train": lambda x, y: train(x, y, params=params),
        "train valid rows": lambda x, y: train(x_ok, y_ok, x, y, params=params),
        "train_bagged": lambda x, y: train_bagged(x, y, params=params, k=2),
        "warm_start": lambda x, y: warm_start(base, x, y, cfg=cfg),
        "transfer_report": lambda x, y: transfer_report(x, y, base, cfg=cfg, seeds=(0,)),
    }[entry]


class TestRowChecks:
    @pytest.mark.parametrize(
        "entry",
        ["train", "train valid rows", "train_bagged", "warm_start", "transfer_report"],
    )
    def test_one_message_set(self, base_setup, entry):
        base, draw = base_setup
        x, y = draw(8, seed=30)
        call = _row_set_call(entry, base, x, y)
        x_nan = x.copy()
        x_nan[3, 2] = np.nan
        bad = [
            (x[:, 0], y, ROWS_2D),
            (x[:0], y[:0], ROWS_2D),
            (x[:, :0], y, ROWS_2D),
            (x_nan, y, FINITE),
            (x, y[:, None], LABELS_1D),
            (x, y[:-1], LABELS_1D),
        ]
        if entry not in ("train", "train_bagged"):  # the two without a model width
            bad.append((x[:, :5], y, WIDTH))
        for features, labels, message in bad:
            with pytest.raises(ValueError, match=message):
                call(features, labels)
        call(x, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_prediction_refuses_non_finite_features(self, base_setup, bad):
        base, draw = base_setup
        x = draw(8, seed=31)[0]
        x[3, 2] = bad
        for predict in (predict_raw, predict_proba, predict_label):
            with pytest.raises(ValueError, match=FINITE):
                predict(base, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bagged_prediction_refuses_non_finite_features(self, base_setup, bad):
        x, y = base_setup[1](8, seed=31)
        bagged = train_bagged(x, y, params=TrainParams(max_rounds=1), k=2)
        x[3, 2] = bad
        with pytest.raises(ValueError, match=FINITE):
            predict_bagged(bagged, x)


class TestOneForestPath:
    """Every application of trees, in training and in prediction, goes
    through tree._forest_outputs; Tree.predict_binned is only the per-tree
    reference of the tests."""

    def test_no_library_path_calls_predict_binned(self, base_setup, monkeypatch):
        base, draw = base_setup
        x, y = draw(40, seed=40)
        rounds = {"stumps": 0, "grow": 0}
        grow_stumps, grow = tree_module._grow_stumps, tree_module._grow

        def counted_stumps(*args):
            rounds["stumps"] += 1
            return grow_stumps(*args)

        def counted_grow(*args):
            rounds["grow"] += 1
            return grow(*args)

        def refuse(tree, codes):
            raise AssertionError("a library path walked one tree")

        monkeypatch.setattr(tree_module, "_grow_stumps", counted_stumps)
        monkeypatch.setattr(tree_module, "_grow", counted_grow)
        monkeypatch.setattr(Tree, "predict_binned", refuse)
        # 120 rows a round: stump rounds at min_data_in_leaf 50, general at 20
        for min_data in (50, 20):
            params = TrainParams(max_rounds=2, min_data_in_leaf=min_data, early_stop_rounds=0)
            predict_raw(train(x, y, x, y, params=params), x)
        assert rounds == {"stumps": 2, "grow": 2 * 3}
        cfg = TransferConfig(max_rounds=2, early_stop_rounds=0)
        predict_label(warm_start(base, x, y, cfg=cfg), x)
        predict_bagged(train_bagged(x, y, params=TrainParams(max_rounds=2), k=2), x)
        report = transfer_report(x, y, base, cfg=cfg, seeds=(0,))
        assert report.after_accuracy.shape == (1,)
