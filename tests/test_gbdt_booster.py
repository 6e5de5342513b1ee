"""Boosting loop, early stopping, prediction, and model round trips."""
from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from semgkit.gbdt import (
    LossSpec,
    ModelFormatError,
    TrainParams,
    detect_hard_classes,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_label,
    predict_proba,
    predict_raw,
    save_model,
    train,
)
from semgkit.gbdt import io as gbdt_io
from semgkit.gbdt.binning import apply_bins
from semgkit.transfer import TransferConfig, warm_start


def split_blobs(make_blobs, holdout=0.25, **kwargs):
    features, labels = make_blobs(**kwargs)
    cut = int(features.shape[0] * (1.0 - holdout))
    return features[:cut], labels[:cut], features[cut:], labels[cut:]


class TestTraining:
    def test_separable_blobs_high_accuracy(self, make_blobs):
        xtr, ytr, xte, yte = split_blobs(
            make_blobs, n_per_class=200, n_classes=3, n_features=10, spread=1.0, seed=0
        )
        params = TrainParams(max_rounds=40, learning_rate=0.2)
        model = train(xtr, ytr, params=params)
        accuracy = float(np.mean(predict_label(model, xte) == yte))
        assert accuracy >= 0.95

    def test_loss_non_increasing_without_sampling(self, make_blobs):
        xtr, ytr, _, _ = split_blobs(make_blobs, n_per_class=120, seed=1)
        params = TrainParams(learning_rate=0.05, max_rounds=30)
        model = train(xtr, ytr, params=params)
        losses = model.history["train_loss"]
        assert len(losses) == 31  # prior-only baseline plus one per round
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_init_score_is_log_priors(self, make_blobs):
        features, labels = make_blobs(n_per_class=50, n_classes=3, seed=2)
        keep = labels != 2
        features, labels = features[keep], labels[keep]
        features = np.vstack([features, features[:10]])
        labels = np.concatenate([labels, np.full(10, 2)])
        model = train(features, labels, params=TrainParams(max_rounds=1))
        counts = np.bincount(np.searchsorted(model.classes, labels))
        np.testing.assert_allclose(
            model.init_score, np.log(counts / counts.sum()), rtol=1e-12
        )

    def test_zero_rounds_predicts_priors(self, make_blobs):
        features, labels = make_blobs(n_per_class=60, seed=3)
        model = train(features, labels, params=TrainParams(max_rounds=5))
        raw = predict_raw(model, features[:4], n_rounds=0)
        np.testing.assert_allclose(raw, np.broadcast_to(model.init_score, raw.shape))

    def test_prediction_ties_pick_lowest_class(self):
        rng = np.random.default_rng(4)
        features = rng.standard_normal((40, 3))
        labels = np.repeat([2, 5], 20)  # balanced priors, arbitrary class ids
        model = train(features, labels, params=TrainParams(max_rounds=1,
                                                           min_data_in_leaf=40))
        # no split possible, so raw scores stay at the equal priors
        pred = predict_label(model, features)
        assert set(model.classes.tolist()) == {2, 5}
        np.testing.assert_array_equal(pred, 2)

    def test_foreign_valid_labels_never_match(self, make_blobs):
        # validation scores against raw labels; a disjoint label set can
        # never match, so the priors-only round stays the best one
        features, labels = make_blobs(n_per_class=40, seed=5)
        model = train(features, labels, features, labels + 10,
                      params=TrainParams(max_rounds=2, early_stop_rounds=0))
        assert model.history["valid_accuracy"] == [0.0, 0.0, 0.0]
        assert model.best_iteration == 0

    def test_goss_training_still_learns(self, make_blobs):
        xtr, ytr, xte, yte = split_blobs(
            make_blobs, n_per_class=250, n_features=10, seed=6
        )
        params = TrainParams(max_rounds=40, learning_rate=0.2,
                             top_rate=0.3, other_rate=0.2)
        model = train(xtr, ytr, params=params)
        assert float(np.mean(predict_label(model, xte) == yte)) >= 0.9

    def test_bagging_fraction_path(self, make_blobs):
        xtr, ytr, xte, yte = split_blobs(make_blobs, n_per_class=150, seed=7)
        params = TrainParams(max_rounds=30, learning_rate=0.2, bagging_fraction=0.7)
        model = train(xtr, ytr, params=params)
        assert float(np.mean(predict_label(model, xte) == yte)) >= 0.9

    def test_class_weights_stored(self, make_blobs):
        features, labels = make_blobs(n_per_class=50, n_classes=3, seed=8)
        loss = LossSpec(gain=1.5, hard_classes=frozenset({1}))
        model = train(features, labels, params=TrainParams(max_rounds=2), loss=loss)
        expected = 1.5 * np.exp(1.0 - 1.0 / 3.0)
        assert model.class_weights[1] == pytest.approx(expected, rel=1e-12)
        assert model.class_weights[0] == 1.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TrainParams(learning_rate=0.0)
        with pytest.raises(ValueError, match="positive and finite"):
            TrainParams(learning_rate=float("inf"))
        with pytest.raises(ValueError):
            TrainParams(num_leaves=1)
        with pytest.raises(ValueError):
            TrainParams(top_rate=0.9, other_rate=0.2)
        with pytest.raises(ValueError):
            TrainParams(max_bins=256)


class TestEarlyStopping:
    def test_halts_within_patience(self, make_blobs):
        xtr, ytr, xva, yva = split_blobs(
            make_blobs, n_per_class=150, spread=3.5, seed=9
        )
        params = TrainParams(max_rounds=200, learning_rate=0.3, early_stop_rounds=10)
        model = train(xtr, ytr, xva, yva, params=params)
        assert model.n_rounds <= model.best_iteration + 10

    def test_best_iteration_is_earliest_peak(self, make_blobs):
        xtr, ytr, xva, yva = split_blobs(make_blobs, n_per_class=100, seed=10)
        params = TrainParams(max_rounds=25, learning_rate=0.2, early_stop_rounds=25)
        model = train(xtr, ytr, xva, yva, params=params)
        accuracy = np.asarray(model.history["valid_accuracy"])
        assert model.best_iteration == int(np.argmax(accuracy))

    def test_no_validation_uses_all_rounds(self, make_blobs):
        features, labels = make_blobs(n_per_class=60, seed=11)
        model = train(features, labels, params=TrainParams(max_rounds=12))
        assert model.n_rounds == 12
        assert model.best_iteration == 12

    def test_patience_zero_disables_stopping(self, make_blobs):
        xtr, ytr, xva, yva = split_blobs(make_blobs, n_per_class=80, seed=12)
        params = TrainParams(max_rounds=15, early_stop_rounds=0)
        model = train(xtr, ytr, xva, yva, params=params)
        assert model.n_rounds == 15

    def test_saturation_stop_matches_patience_zero(self, make_blobs):
        # once validation accuracy is 1.0 no later round can be best, so
        # stopping there keeps the best round, its trees and predictions
        xtr, ytr, xva, yva = split_blobs(make_blobs, n_per_class=80, seed=12)
        stopped = train(xtr, ytr, xva, yva,
                        params=TrainParams(max_rounds=40, early_stop_rounds=15))
        full = train(xtr, ytr, xva, yva,
                     params=TrainParams(max_rounds=40, early_stop_rounds=0))
        best = full.best_iteration
        assert 0 < best < 40
        assert full.history["valid_accuracy"][best] == 1.0
        assert stopped.best_iteration == best
        assert stopped.n_rounds == best
        accuracy = full.history["valid_accuracy"]
        assert stopped.history["valid_accuracy"] == accuracy[:best + 1]
        for round_s, round_f in zip(stopped.trees, full.trees):
            for tree_s, tree_f in zip(round_s, round_f):
                for f in dataclasses.fields(tree_s):
                    np.testing.assert_array_equal(
                        getattr(tree_s, f.name), getattr(tree_f, f.name)
                    )
        np.testing.assert_array_equal(
            predict_proba(stopped, xva), predict_proba(full, xva)
        )

    def test_saturated_priors_grow_no_rounds(self, make_blobs, tmp_path):
        # class 0 is the training majority and the only validation label,
        # so the priors alone already score 1.0
        features, labels = make_blobs(n_per_class=60, seed=24)
        features = np.vstack([features, features[labels == 0][:30]])
        labels = np.concatenate([labels, np.zeros(30, dtype=labels.dtype)])
        xva, yva = features[labels == 0][:20], labels[labels == 0][:20]
        model = train(features, labels, xva, yva,
                      params=TrainParams(max_rounds=10, early_stop_rounds=5))
        assert model.n_rounds == 0
        assert model.best_iteration == 0
        assert model.history["valid_accuracy"] == [1.0]
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.n_rounds == 0
        np.testing.assert_array_equal(predict_label(loaded, xva), yva)
        np.testing.assert_array_equal(
            predict_raw(loaded, features), predict_raw(model, features)
        )


class TestPrediction:
    def test_raw_prefix_consistency(self, make_blobs):
        features, labels = make_blobs(n_per_class=80, seed=13)
        model = train(features, labels, params=TrainParams(max_rounds=8))
        full = predict_raw(model, features[:5], n_rounds=8)
        again = predict_raw(model, features[:5], n_rounds=8)
        np.testing.assert_array_equal(full, again)

    def test_raw_is_init_score_plus_tree_sum(self, make_blobs):
        # leaf values carry the learning rate, so a model, trained or warm
        # started at another rate, scores as its priors plus its trees
        features, labels = make_blobs(n_per_class=60, seed=28)
        trained = train(features[:120], labels[:120],
                        params=TrainParams(max_rounds=5, learning_rate=0.3))
        warmed = warm_start(trained, features[120:], labels[120:],
                            cfg=TransferConfig(learning_rate=0.07, max_rounds=3))
        probe = features[::7]
        for model in (trained, warmed):
            codes = apply_bins(probe, model.bin_edges)
            for n in range(model.n_rounds + 1):
                want = np.tile(model.init_score, (probe.shape[0], 1))
                for rnd in model.trees[:n]:
                    for c, tree in enumerate(rnd):
                        want[:, c] += tree.predict_binned(codes)
                np.testing.assert_array_equal(predict_raw(model, probe, n), want)
        assert warmed.n_rounds == trained.n_rounds + 3

    def test_proba_rows_normalized(self, make_blobs):
        features, labels = make_blobs(n_per_class=60, seed=14)
        model = train(features, labels, params=TrainParams(max_rounds=5))
        probs = predict_proba(model, features[:7])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)

    def test_n_rounds_validation(self, make_blobs):
        features, labels = make_blobs(n_per_class=40, seed=15)
        model = train(features, labels, params=TrainParams(max_rounds=3))
        with pytest.raises(ValueError):
            predict_raw(model, features, n_rounds=4)
        with pytest.raises(ValueError):
            predict_raw(model, features, n_rounds=-1)

    def test_feature_width_checked(self, make_blobs):
        features, labels = make_blobs(n_per_class=40, n_features=6, seed=16)
        model = train(features, labels, params=TrainParams(max_rounds=2))
        with pytest.raises(ValueError):
            predict_raw(model, features[:, :4])


class TestModelIO:
    def test_round_trip_identical(self, make_blobs, tmp_path):
        xtr, ytr, xte, _ = split_blobs(make_blobs, n_per_class=80, seed=17)
        model = train(xtr, ytr, params=TrainParams(max_rounds=10))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(
            predict_raw(model, xte), predict_raw(loaded, xte)
        )
        np.testing.assert_array_equal(
            predict_label(model, xte), predict_label(loaded, xte)
        )

    def test_saved_bytes_stable(self, make_blobs, tmp_path):
        features, labels = make_blobs(n_per_class=50, seed=18)
        model = train(features, labels, params=TrainParams(max_rounds=4))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_model(model, a)
        save_model(load_model(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_dict_round_trip_preserves_params(self, make_blobs):
        features, labels = make_blobs(n_per_class=40, seed=19)
        params = TrainParams(max_rounds=3, learning_rate=0.07, num_leaves=9)
        model = train(features, labels, params=params)
        clone = model_from_dict(model_to_dict(model))
        assert clone.params == params
        assert clone.best_iteration == model.best_iteration
        np.testing.assert_array_equal(clone.classes, model.classes)

    @pytest.mark.parametrize("version", [99, 3, 2, 1])
    def test_bad_version_rejected(self, make_blobs, version):
        features, labels = make_blobs(n_per_class=40, seed=20)
        model = train(features, labels, params=TrainParams(max_rounds=2))
        doc = model_to_dict(model)
        doc["format_version"] = version
        with pytest.raises(ModelFormatError, match=f"format_version {version}; expected 4"):
            model_from_dict(doc)

    def test_version_2_file_rejected(self, make_blobs, tmp_path):
        features, labels = make_blobs(n_per_class=40, seed=26)
        model = train(features, labels, params=TrainParams(max_rounds=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text().replace('"format_version":4', '"format_version":2'))
        with pytest.raises(ModelFormatError, match="format_version 2"):
            load_model(path)

    def test_model_document_keys(self, make_blobs):
        # header and bin edges plus the member body, nothing else
        features, labels = make_blobs(n_per_class=40, seed=27)
        model = train(features, labels, params=TrainParams(max_rounds=2))
        assert sorted(model_to_dict(model)) == [
            "best_iteration", "bin_edges", "class_weights", "classes",
            "format_version", "history", "init_score", "model_type",
            "params", "trees",
        ]

    def test_missing_key_rejected(self, make_blobs):
        features, labels = make_blobs(n_per_class=40, seed=21)
        model = train(features, labels, params=TrainParams(max_rounds=2))
        doc = model_to_dict(model)
        del doc["init_score"]
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_failed_save_leaves_no_model_and_no_temp(
        self, make_blobs, tmp_path, monkeypatch
    ):
        features, labels = make_blobs(n_per_class=40, seed=25)
        model = train(features, labels, params=TrainParams(max_rounds=2))
        path = tmp_path / "model.json"

        def fail(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(gbdt_io.os, "replace", fail)
        with pytest.raises(OSError, match="disk gone"):
            save_model(model, path)
        assert os.listdir(tmp_path) == []

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)


class TestHardClassDetection:
    def test_flags_overlapping_class(self, make_blobs):
        rng = np.random.default_rng(22)
        centers = rng.normal(0.0, 5.0, size=(4, 8))
        centers[1] = centers[0] + 0.3  # classes 0 and 1 nearly coincide
        features, labels = make_blobs(
            n_per_class=120, n_classes=4, n_features=8, spread=1.0,
            seed=22, centers=centers,
        )
        cut = 360
        flagged = detect_hard_classes(
            features[:cut], labels[:cut], features[cut:], labels[cut:],
            params=TrainParams(max_rounds=30), warmup_rounds=20,
        )
        assert flagged
        assert flagged <= {0, 1}

    def test_well_separated_classes_unflagged(self, make_blobs):
        features, labels = make_blobs(n_per_class=100, spread=0.3, seed=23)
        cut = 240
        flagged = detect_hard_classes(
            features[:cut], labels[:cut], features[cut:], labels[cut:],
            warmup_rounds=15,
        )
        assert flagged == frozenset()
