"""Stratified folds and probability-averaged bagging."""
from __future__ import annotations

import json
import os

import numpy as np
import pytest

from semgkit.ensemble import (
    BaggedModel,
    load_bagged,
    predict_bagged,
    save_bagged,
    stratified_kfold,
    train_bagged,
)
from semgkit.gbdt import (
    BoostedModel,
    ModelFormatError,
    TrainParams,
    bin_features,
    predict_label,
    train,
)
from semgkit.gbdt import io as gbdt_io


class TestStratifiedKfold:
    def test_exact_counts_when_divisible(self):
        labels = np.repeat(np.arange(4), 25)
        folds = stratified_kfold(labels, k=5, seed=0)
        for fold in range(5):
            members = labels[folds == fold]
            counts = np.bincount(members, minlength=4)
            np.testing.assert_array_equal(counts, 5)

    def test_counts_differ_by_at_most_one(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 5, size=237)
        folds = stratified_kfold(labels, k=5, seed=3)
        for cls in range(5):
            per_fold = np.bincount(folds[labels == cls], minlength=5)
            assert per_fold.max() - per_fold.min() <= 1

    def test_assignment_is_deterministic(self):
        labels = np.random.default_rng(2).integers(0, 3, size=90)
        a = stratified_kfold(labels, k=5, seed=7)
        b = stratified_kfold(labels, k=5, seed=7)
        np.testing.assert_array_equal(a, b)
        c = stratified_kfold(labels, k=5, seed=8)
        assert not np.array_equal(a, c)

    def test_small_class_warns(self):
        labels = np.array([0] * 20 + [1] * 3)
        with pytest.warns(RuntimeWarning, match="class 1 has 3 samples"):
            folds = stratified_kfold(labels, k=5, seed=0)
        assert folds.shape == (23,)

    def test_validation(self):
        with pytest.raises(ValueError):
            stratified_kfold(np.array([0, 1]), k=1)
        with pytest.raises(ValueError):
            stratified_kfold(np.array([]), k=5)


class TestTrainBagged:
    def test_member_count_and_folds(self, make_blobs):
        features, labels = make_blobs(n_per_class=50, seed=0)
        params = TrainParams(max_rounds=5, seed=11)
        model = train_bagged(features, labels, params=params, k=5)
        assert model.k == 5
        assert len(model.members) == 5
        expected = stratified_kfold(labels, k=5, seed=11)
        np.testing.assert_array_equal(model.fold_assignment, expected)
        for member in model.members:
            np.testing.assert_array_equal(member.classes, model.members[0].classes)

    def test_members_differ(self, make_blobs):
        features, labels = make_blobs(n_per_class=50, seed=1)
        model = train_bagged(features, labels,
                             params=TrainParams(max_rounds=5), k=3)
        seeds = {member.params.seed for member in model.members}
        assert len(seeds) == 3

    def test_aggregation_is_probability_mean(self, make_blobs):
        features, labels = make_blobs(n_per_class=40, seed=2)
        model = train_bagged(features, labels,
                             params=TrainParams(max_rounds=6), k=3)
        pred, probs = predict_bagged(model, features[:9])
        manual = np.mean(
            [member.predict_proba(features[:9]) for member in model.members], axis=0
        )
        np.testing.assert_allclose(probs, manual, rtol=1e-12)
        np.testing.assert_array_equal(
            pred, model.members[0].classes[np.argmax(probs, axis=1)]
        )

    def test_two_member_average_hand_example(self):
        # single-feature stubs with zero rounds reduce to their priors
        def stub(p0):
            init = np.log(np.array([p0, 1.0 - p0]))
            return BoostedModel(
                classes=np.array([0, 1]),
                init_score=init,
                trees=[],
                bin_edges=(np.array([0.0]),),
                class_weights=np.ones(2),
                best_iteration=0,
                params=TrainParams(),
            )

        model = BaggedModel(
            members=[stub(0.8), stub(0.4)],
            fold_assignment=np.array([0, 1]),
            seed=0,
        )
        pred, probs = predict_bagged(model, np.zeros((1, 1)))
        np.testing.assert_allclose(probs, [[0.6, 0.4]], rtol=1e-12)
        np.testing.assert_array_equal(pred, [0])

    def test_permutation_invariance(self, make_blobs):
        features, labels = make_blobs(n_per_class=40, seed=3)
        model = train_bagged(features, labels,
                             params=TrainParams(max_rounds=5), k=3)
        rng = np.random.default_rng(4)
        order = rng.permutation(30)
        pred_all, probs_all = predict_bagged(model, features[:30])
        pred_perm, probs_perm = predict_bagged(model, features[:30][order])
        np.testing.assert_array_equal(pred_perm, pred_all[order])
        np.testing.assert_array_equal(probs_perm, probs_all[order])

    def test_probs_within_member_envelope(self, make_blobs):
        features, labels = make_blobs(n_per_class=40, seed=5)
        model = train_bagged(features, labels,
                             params=TrainParams(max_rounds=5), k=4)
        _, probs = predict_bagged(model, features[:20])
        stack = np.stack(
            [member.predict_proba(features[:20]) for member in model.members]
        )
        assert np.all(probs >= stack.min(axis=0) - 1e-12)
        assert np.all(probs <= stack.max(axis=0) + 1e-12)

    def test_bagged_at_least_mean_member(self, make_blobs):
        features, labels = make_blobs(
            n_per_class=120, n_features=8, spread=2.0, seed=6
        )
        cut = 270
        xtr, ytr = features[:cut], labels[:cut]
        xte, yte = features[cut:], labels[cut:]
        model = train_bagged(xtr, ytr, params=TrainParams(max_rounds=25), k=5)
        bagged_pred, _ = predict_bagged(model, xte)
        bagged = float(np.mean(bagged_pred == yte))
        member_accs = [
            float(np.mean(predict_label(m, xte) == yte)) for m in model.members
        ]
        assert bagged >= np.mean(member_accs) - 0.01

    def test_validation(self, make_blobs):
        features, labels = make_blobs(n_per_class=30, seed=7)
        with pytest.raises(ValueError):
            train_bagged(features, labels, params=TrainParams(max_rounds=2), k=1)


class TestSharedBinning:
    def test_members_share_edges_of_all_training_rows(self, make_blobs):
        features, labels = make_blobs(n_per_class=40, seed=12)
        params = TrainParams(max_rounds=3, max_bins=16)
        model = train_bagged(features, labels, params=params, k=3)
        want = bin_features(features, params.max_bins).edges
        for member in model.members:
            assert len(member.bin_edges) == len(want)
            for got, edges in zip(member.bin_edges, want):
                np.testing.assert_array_equal(got, edges)

    def test_members_with_different_edges_rejected(self, make_blobs):
        features, labels = make_blobs(n_per_class=40, seed=13)
        params = TrainParams(max_rounds=2)
        a = train(features[::2], labels[::2], params=params)
        b = train(features[1::2], labels[1::2], params=params)
        with pytest.raises(ValueError, match="one set of bin edges"):
            BaggedModel(members=[a, b], fold_assignment=np.zeros(2, dtype=np.int64),
                        seed=0)


class TestBaggedIO:
    def test_save_load_round_trip(self, make_blobs, tmp_path):
        features, labels = make_blobs(n_per_class=40, seed=8)
        model = train_bagged(features, labels,
                             params=TrainParams(max_rounds=4, seed=5), k=3)
        out = tmp_path / "ensemble"
        save_bagged(model, out)
        assert os.listdir(out) == ["model.json"]
        loaded = load_bagged(out)
        assert loaded.k == 3
        assert loaded.seed == model.seed
        np.testing.assert_array_equal(loaded.fold_assignment, model.fold_assignment)
        pred_a, probs_a = predict_bagged(model, features[:15])
        pred_b, probs_b = predict_bagged(loaded, features[:15])
        np.testing.assert_array_equal(pred_a, pred_b)
        np.testing.assert_array_equal(probs_a, probs_b)

    def test_manifest_is_byte_stable(self, make_blobs, tmp_path):
        features, labels = make_blobs(n_per_class=30, seed=9)
        model = train_bagged(features, labels,
                             params=TrainParams(max_rounds=2), k=2)
        a = tmp_path / "a"
        b = tmp_path / "b"
        save_bagged(model, a)
        save_bagged(load_bagged(a), b)
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
        doc = json.loads((a / "model.json").read_text())
        assert sorted(doc) == ["bin_edges", "fold_assignment", "format_version",
                               "member_bodies", "model_type", "seed"]
        assert doc["format_version"] == 4
        assert all("bin_edges" not in body for body in doc["member_bodies"])

    def test_save_model_round_trips_the_ensemble_bytes(self, make_blobs, tmp_path):
        # the one writer and reader of model.json take a bagged model too
        features, labels = make_blobs(n_per_class=30, seed=15)
        model = train_bagged(features, labels, params=TrainParams(max_rounds=2), k=3)
        save_bagged(model, tmp_path / "dir")
        gbdt_io.save_model(model, tmp_path / "a.json")
        loaded = gbdt_io.load_model(tmp_path / "a.json")
        assert isinstance(loaded, BaggedModel)
        gbdt_io.save_model(loaded, tmp_path / "b.json")
        a = (tmp_path / "a.json").read_bytes()
        assert a == (tmp_path / "b.json").read_bytes()
        assert a == (tmp_path / "dir" / "model.json").read_bytes()

    def test_broken_member_tree_is_named_by_its_key_path(self, make_blobs, tmp_path):
        features, labels = make_blobs(n_per_class=30, seed=16)
        model = train_bagged(features, labels, params=TrainParams(max_rounds=2), k=2)
        save_bagged(model, tmp_path)
        path = tmp_path / "model.json"
        doc = json.loads(path.read_text())
        doc["member_bodies"][1]["trees"][0][0]["left"][0] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as err:
            load_bagged(tmp_path)
        assert str(err.value).startswith(
            f"{path}: member_bodies[1].trees[0][0].left[0] is 0: "
        )

    def test_load_rejects_missing_member(self, make_blobs, tmp_path):
        features, labels = make_blobs(n_per_class=30, seed=10)
        model = train_bagged(features, labels,
                             params=TrainParams(max_rounds=2), k=2)
        out = tmp_path / "broken"
        save_bagged(model, out)
        path = out / "model.json"
        doc = json.loads(path.read_text())
        del doc["member_bodies"][1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="at least two members"):
            load_bagged(out)
        del doc["member_bodies"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="member_bodies"):
            load_bagged(out)

    def test_version_2_manifest_rejected(self, make_blobs, tmp_path):
        features, labels = make_blobs(n_per_class=30, seed=14)
        model = train_bagged(features, labels,
                             params=TrainParams(max_rounds=2), k=2)
        save_bagged(model, tmp_path)
        path = tmp_path / "model.json"
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="format_version 2"):
            load_bagged(tmp_path)

    def test_failed_resave_keeps_old_ensemble(self, make_blobs, tmp_path, monkeypatch):
        # a re-save that dies mid-write leaves the old ensemble loadable
        # and unchanged, and no temp file behind
        features, labels = make_blobs(n_per_class=30, seed=11)
        old = train_bagged(features, labels, params=TrainParams(max_rounds=2), k=3)
        new = train_bagged(features, labels,
                           params=TrainParams(max_rounds=3, seed=1), k=3)
        out = tmp_path / "ensemble"
        save_bagged(old, out)
        before = (out / "model.json").read_bytes()

        class DiesMidWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("killed mid-save")

        real_open = open
        monkeypatch.setattr(gbdt_io, "open",
                            lambda *a, **kw: DiesMidWrite(real_open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError, match="killed mid-save"):
            save_bagged(new, out)
        monkeypatch.undo()
        assert os.listdir(out) == ["model.json"]
        assert (out / "model.json").read_bytes() == before
        loaded = load_bagged(out)
        np.testing.assert_array_equal(
            predict_bagged(loaded, features)[1], predict_bagged(old, features)[1]
        )
