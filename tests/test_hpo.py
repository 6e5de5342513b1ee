"""Density-guided hyperparameter search."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from semgkit import hpo
from semgkit.gbdt import TrainParams
from semgkit.hpo import (
    Dimension,
    Study,
    Trial,
    default_space,
    int_dim,
    load_trials,
    log_dim,
    optimize,
    suggest,
    uniform_dim,
)


class TestDimension:
    def test_linear_round_trip(self):
        dim = uniform_dim(0.5, 1.0)
        assert dim.from_internal(dim.to_internal(0.75)) == pytest.approx(0.75)

    def test_log_round_trip(self):
        dim = log_dim(1e-3, 0.3)
        assert dim.from_internal(dim.to_internal(0.01)) == pytest.approx(0.01)
        lo, hi = dim.internal_bounds
        assert lo == pytest.approx(math.log(1e-3))
        assert hi == pytest.approx(math.log(0.3))

    def test_int_rounds_and_clips(self):
        dim = int_dim(8, 256)
        assert dim.from_internal(12.4) == 12
        assert dim.from_internal(12.6) == 13
        assert dim.from_internal(1000.0) == 256
        assert dim.from_internal(-5.0) == 8
        assert isinstance(dim.from_internal(12.4), int)

    def test_float_clips(self):
        dim = uniform_dim(0.0, 1.0)
        assert dim.from_internal(1.7) == 1.0
        assert dim.from_internal(-0.2) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Dimension(low=1.0, high=0.5)
        with pytest.raises(ValueError):
            log_dim(0.0, 1.0)
        with pytest.raises(ValueError):
            Dimension(low=0.1, high=0.9, scale="log", integer=True)


class TestSuggest:
    def test_startup_phase_is_uniform_in_bounds(self):
        space = {"x": uniform_dim(-2.0, 3.0), "n": int_dim(1, 9)}
        assert hpo.N_STARTUP == 10
        study = Study(seed=0)
        for number in range(10):
            point = suggest(study, space)
            assert -2.0 <= point["x"] <= 3.0
            assert 1 <= point["n"] <= 9 and isinstance(point["n"], int)
            study.trials.append(Trial(number, point, 0.0, "ok"))

    def test_model_phase_stays_in_bounds(self, monkeypatch):
        space = {
            "lr": log_dim(1e-4, 1.0),
            "leaves": int_dim(2, 64),
            "frac": uniform_dim(0.5, 1.0),
        }
        rng = np.random.default_rng(0)
        monkeypatch.setattr(hpo, "N_STARTUP", 5)
        study = Study(seed=1)
        for number in range(60):
            point = suggest(study, space)
            assert 1e-4 <= point["lr"] <= 1.0
            assert 2 <= point["leaves"] <= 64
            assert 0.5 <= point["frac"] <= 1.0
            value = float(rng.normal())
            study.trials.append(Trial(number, point, value, "ok"))

    def test_constant_objective_still_in_bounds(self, monkeypatch):
        space = {"x": uniform_dim(0.0, 1.0)}
        monkeypatch.setattr(hpo, "N_STARTUP", 3)
        study = Study(seed=2)
        for number in range(30):
            point = suggest(study, space)
            assert 0.0 <= point["x"] <= 1.0
            study.trials.append(Trial(number, point, 1.0, "ok"))

    def test_suggestions_concentrate_near_good_region(self):
        # reward only x > 0.8; later proposals should crowd that corner
        space = {"x": uniform_dim(0.0, 1.0)}
        study = Study(seed=3)
        number = 0
        for _ in range(50):
            point = suggest(study, space)
            value = 1.0 if point["x"] > 0.8 else 0.0
            study.trials.append(Trial(number, point, value, "ok"))
            number += 1
        hits = 0
        for _ in range(20):
            point = suggest(study, space)
            hits += point["x"] > 0.7
            study.trials.append(Trial(number, point, 1.0 if point["x"] > 0.8 else 0.0, "ok"))
            number += 1
        assert hits >= 14

    def test_failed_trials_ignored_by_model(self, monkeypatch):
        space = {"x": uniform_dim(0.0, 1.0)}
        monkeypatch.setattr(hpo, "N_STARTUP", 2)
        study = Study(seed=4)
        for number in range(20):
            point = suggest(study, space)
            if number % 3 == 0:
                study.trials.append(Trial(number, point, None, "failed"))
            else:
                study.trials.append(Trial(number, point, -(point["x"] - 0.5) ** 2, "ok"))
        assert len(study.completed) == 13
        assert study.best_trial.status == "ok"


class TestOptimize:
    def test_quadratic_converges(self, tmp_path):
        space = {"x": uniform_dim(0.0, 1.0)}
        study = optimize(
            space, 60, lambda p: -((p["x"] - 0.3) ** 2), seed=0,
            log_path=tmp_path / "trials.log",
        )
        assert abs(study.best_params["x"] - 0.3) <= 0.05

    def test_best_sequence_non_decreasing(self, tmp_path):
        space = {"x": uniform_dim(0.0, 1.0)}
        study = optimize(space, 40, lambda p: -((p["x"] - 0.6) ** 2), seed=1)
        values = [t.value for t in study.completed]
        running = np.maximum.accumulate(values)
        assert np.all(np.diff(running) >= 0.0)

    def test_objective_failure_is_recorded(self, tmp_path):
        def objective(point):
            if point["x"] < 0.3:
                raise RuntimeError("unstable configuration")
            return point["x"]

        log = tmp_path / "trials.log"
        study = optimize({"x": uniform_dim(0.0, 1.0)}, 25, objective,
                         seed=2, log_path=log)
        assert len(study.trials) == 25
        failed = [t for t in study.trials if t.status == "failed"]
        assert failed and all(t.value is None for t in failed)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == 25
        assert any(r["status"] == "failed" and "error" in r for r in records)

    def test_resume_from_log(self, tmp_path):
        log = tmp_path / "trials.log"
        space = {"x": uniform_dim(0.0, 1.0)}
        first = optimize(space, 15, lambda p: p["x"], seed=3, log_path=log)
        assert len(first.trials) == 15
        second = optimize(space, 40, lambda p: p["x"], seed=3, log_path=log)
        assert len(second.trials) == 40
        numbers = [t.number for t in second.trials]
        assert numbers == list(range(40))
        # the first 15 came from the log verbatim
        for a, b in zip(first.trials, second.trials[:15]):
            assert a.params == b.params and a.value == b.value

    def test_resume_equals_uninterrupted_search(self, tmp_path):
        space = {"x": uniform_dim(0.0, 1.0), "n": int_dim(1, 9)}

        def objective(p):
            return -((p["x"] - 0.3) ** 2) - 0.01 * p["n"]

        straight_log = tmp_path / "straight.log"
        straight = optimize(space, 40, objective, seed=3, log_path=straight_log)
        resumed_log = tmp_path / "resumed.log"
        optimize(space, 15, objective, seed=3, log_path=resumed_log)
        resumed = optimize(space, 40, objective, seed=3, log_path=resumed_log)
        straight_params = [t.params for t in straight.trials]
        assert [t.params for t in resumed.trials] == straight_params
        assert resumed_log.read_bytes() == straight_log.read_bytes()

    def test_torn_last_line_dropped_and_resumed(self, tmp_path):
        space = {"x": uniform_dim(0.0, 1.0)}
        straight_log = tmp_path / "straight.log"
        optimize(space, 20, lambda p: p["x"], seed=7, log_path=straight_log)
        log = tmp_path / "trials.log"
        optimize(space, 12, lambda p: p["x"], seed=7, log_path=log)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write('{"params": {"x": 0.41')  # killed mid-write
        with pytest.warns(RuntimeWarning, match="torn"):
            assert len(load_trials(log)) == 12
        with pytest.warns(RuntimeWarning, match="torn"):
            study = optimize(space, 20, lambda p: p["x"], seed=7, log_path=log)
        assert [t.number for t in study.trials] == list(range(20))
        assert log.read_bytes() == straight_log.read_bytes()

    @pytest.mark.parametrize("record, error", [
        ("{not json", "JSONDecodeError"),
        ('{"trial": 1}', "KeyError('params')"),
        ("[1, 2]", "TypeError"),
    ], ids=["not-json", "no-params", "not-an-object"])
    def test_malformed_complete_line_names_file_and_line(self, tmp_path, record, error):
        # a complete line that is not a trial record fails, in load_trials
        # and in a resumed optimize, with the log and its line, counted
        # with the blank line before it; the log is left as it was
        log = tmp_path / "trials.log"
        optimize({"x": uniform_dim(0.0, 1.0)}, 3, lambda p: p["x"],
                 seed=8, log_path=log)
        lines = log.read_text().splitlines()
        lines[1:2] = ["", record]
        log.write_text("\n".join(lines) + "\n")
        before = log.read_bytes()
        message = f"{log}, line 3: not a trial record: {error}"
        for read in (load_trials,
                     lambda path: optimize({"x": uniform_dim(0.0, 1.0)}, 5,
                                           lambda p: p["x"], seed=8, log_path=path)):
            with pytest.raises(ValueError) as err:
                read(log)
            assert str(err.value).startswith(message)
        assert log.read_bytes() == before

    @pytest.mark.parametrize("logged, resumed", [("narrow", "full"), ("full", "narrow")])
    def test_resume_refuses_a_log_of_another_space(self, tmp_path, logged, resumed):
        # as tune drops bagging_fraction under GOSS
        spaces = {"full": default_space(), "narrow": default_space()}
        del spaces["narrow"]["bagging_fraction"]
        log = tmp_path / "trials.log"
        optimize(spaces[logged], 11, lambda p: p["learning_rate"], seed=9, log_path=log)
        before = log.read_bytes()
        calls = []
        with pytest.raises(ValueError, match=r"trials\.log: trial 0 .*bagging_fraction"):
            optimize(spaces[resumed], 12, lambda p: calls.append(1) or 0.0,
                     seed=9, log_path=log)
        assert not calls
        assert log.read_bytes() == before

    def test_resume_skips_when_target_reached(self, tmp_path):
        log = tmp_path / "trials.log"
        space = {"x": uniform_dim(0.0, 1.0)}
        optimize(space, 10, lambda p: p["x"], seed=4, log_path=log)
        calls = []
        study = optimize(space, 10, lambda p: calls.append(1) or p["x"],
                         seed=4, log_path=log)
        assert not calls
        assert len(study.trials) == 10

    def test_log_lines_parse_and_sort_keys(self, tmp_path):
        log = tmp_path / "trials.log"
        optimize({"x": uniform_dim(0.0, 1.0)}, 5, lambda p: p["x"],
                 seed=5, log_path=log)
        for line in log.read_text().splitlines():
            record = json.loads(line)
            assert set(record) >= {"trial", "params", "value", "status"}
            assert list(record) == sorted(record)

    def test_load_trials_round_trip(self, tmp_path):
        log = tmp_path / "trials.log"
        study = optimize({"x": uniform_dim(0.0, 1.0)}, 8, lambda p: p["x"],
                         seed=6, log_path=log)
        loaded = load_trials(log)
        assert [t.number for t in loaded] == [t.number for t in study.trials]
        assert [t.value for t in loaded] == [t.value for t in study.trials]


class TestDefaultSpace:
    def test_matches_training_params(self):
        space = default_space()
        assert set(space) == {
            "learning_rate",
            "num_leaves",
            "min_data_in_leaf",
            "feature_fraction",
            "bagging_fraction",
            "l2_regularization",
        }
        assert space["learning_rate"].scale == "log"
        assert space["l2_regularization"].scale == "log"
        assert space["num_leaves"].integer
        assert space["min_data_in_leaf"].integer

    def test_samples_build_valid_params(self, monkeypatch):
        space = default_space()
        monkeypatch.setattr(hpo, "N_STARTUP", 5)
        study = Study(seed=7)
        for number in range(12):
            point = suggest(study, space)
            params = TrainParams(**point)  # must not raise
            assert params.num_leaves >= 8
            study.trials.append(Trial(number, point, 0.0, "ok"))
