"""Hyperparameter search by density-ratio sampling.

The first N_STARTUP trials sample uniformly (log-uniform on log dims).
After that the completed trials are split at the GAMMA quantile of the
objective into good and bad sets, each dimension gets a Gaussian kernel
density per set (Scott bandwidth), and the suggestion is the best of
N_CANDIDATES candidates drawn from the good density, ranked by the summed
log ratio of good to bad density. The objective is maximized.

The trial log (trials.log under tune) is append-only, one JSON line per
trial, so an interrupted search resumes from it. Only the last line can
be torn by an interruption; resuming drops it and cuts it from the file.
"""
from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

Params = Dict[str, Union[int, float]]

N_STARTUP = 10  # completed trials sampled uniformly before the density model
GAMMA = 0.25  # share of completed trials, best first, in the good set
N_CANDIDATES = 24


@dataclass(frozen=True)
class Dimension:
    """One search dimension: bounded, linear or log scale, float or int."""

    low: float
    high: float
    scale: str = "linear"
    integer: bool = False

    def __post_init__(self) -> None:
        if self.scale not in ("linear", "log"):
            raise ValueError("scale must be 'linear' or 'log'")
        if not self.low < self.high:
            raise ValueError("low must be strictly below high")
        if self.scale == "log" and self.low <= 0:
            raise ValueError("log scale requires positive bounds")
        if self.integer:
            if self.scale != "linear":
                raise ValueError("integer dimensions use linear scale")
            if self.low != int(self.low) or self.high != int(self.high):
                raise ValueError("integer dimensions need integer bounds")

    def to_internal(self, x: float) -> float:
        return math.log(x) if self.scale == "log" else float(x)

    def from_internal(self, t: float) -> Union[int, float]:
        x = math.exp(t) if self.scale == "log" else t
        if self.integer:
            return int(min(max(round(x), self.low), self.high))
        return float(min(max(x, self.low), self.high))

    @property
    def internal_bounds(self) -> tuple:
        return self.to_internal(self.low), self.to_internal(self.high)


def uniform_dim(low: float, high: float) -> Dimension:
    return Dimension(low, high, "linear", False)


def log_dim(low: float, high: float) -> Dimension:
    return Dimension(low, high, "log", False)


def int_dim(low: int, high: int) -> Dimension:
    return Dimension(low, high, "linear", True)


SearchSpace = Dict[str, Dimension]


@dataclass
class Trial:
    number: int
    params: Params
    value: Optional[float]
    status: str  # "ok" or "failed"


@dataclass
class Study:
    """Search state: the sampler's seed and the trial history."""

    seed: int = 0
    trials: List[Trial] = field(default_factory=list)

    @property
    def completed(self) -> List[Trial]:
        return [t for t in self.trials if t.status == "ok" and t.value is not None]

    @property
    def best_trial(self) -> Optional[Trial]:
        done = self.completed
        return max(done, key=lambda t: t.value) if done else None

    @property
    def best_value(self) -> Optional[float]:
        best = self.best_trial
        return None if best is None else best.value

    @property
    def best_params(self) -> Optional[Params]:
        best = self.best_trial
        return None if best is None else dict(best.params)


def _uniform_sample(space: SearchSpace, rng: np.random.Generator) -> Params:
    params: Params = {}
    for name, dim in space.items():
        if dim.integer:
            params[name] = int(rng.integers(int(dim.low), int(dim.high) + 1))
        else:
            lo, hi = dim.internal_bounds
            params[name] = dim.from_internal(float(rng.uniform(lo, hi)))
    return params


def _bandwidth(points: np.ndarray, span: float) -> float:
    sigma = float(np.std(points, ddof=1)) if points.size > 1 else 0.0
    bw = sigma * points.size ** (-0.2)
    return max(bw, span * 1e-3)


def _log_density(x: np.ndarray, points: np.ndarray, bw: float) -> np.ndarray:
    z = (x[:, None] - points[None, :]) / bw
    pdf = np.exp(-0.5 * z * z).mean(axis=1) / (bw * math.sqrt(2.0 * math.pi))
    return np.log(np.maximum(pdf, 1e-300))


def suggest(study: Study, space: SearchSpace) -> Params:
    """Next parameter point to evaluate.

    Uniform during startup; afterwards the best of N_CANDIDATES draws from
    the good-trial density by good/bad log-density ratio. The draws come
    from a generator seeded by [seed, trial number], the trial number
    being len(study.trials), so a resumed search suggests the same points
    as one that ran straight through.
    """
    if not space:
        raise ValueError("the search space has no dimensions")
    rng = np.random.default_rng([study.seed, len(study.trials)])
    done = study.completed
    if len(done) < N_STARTUP:
        return _uniform_sample(space, rng)

    ranked = sorted(done, key=lambda t: t.value, reverse=True)
    n_good = int(math.ceil(GAMMA * len(ranked)))
    good, bad = ranked[:n_good], ranked[n_good:]
    if not bad:
        return _uniform_sample(space, rng)

    scores = np.zeros(N_CANDIDATES)
    candidates: Dict[str, np.ndarray] = {}
    for name, dim in space.items():
        gpts = np.array([dim.to_internal(t.params[name]) for t in good])
        bpts = np.array([dim.to_internal(t.params[name]) for t in bad])
        lo, hi = dim.internal_bounds
        span = hi - lo
        bw_g = _bandwidth(gpts, span)
        bw_b = _bandwidth(bpts, span)
        centers = gpts[rng.integers(0, gpts.size, size=N_CANDIDATES)]
        cand = np.clip(centers + rng.normal(0.0, bw_g, size=N_CANDIDATES), lo, hi)
        if dim.integer:
            cand = np.clip(np.rint(cand), dim.low, dim.high)
        scores += _log_density(cand, gpts, bw_g) - _log_density(cand, bpts, bw_b)
        candidates[name] = cand
    pick = int(np.argmax(scores))
    return {
        name: dim.from_internal(float(candidates[name][pick]))
        for name, dim in space.items()
    }


def _trial_record(trial: Trial, error: Optional[str] = None) -> dict:
    rec = {
        "trial": trial.number,
        "params": trial.params,
        "value": trial.value,
        "status": trial.status,
    }
    if error is not None:
        rec["error"] = error
    return rec


def load_trials(log_path: Union[str, os.PathLike]) -> List[Trial]:
    """Parse a trials log written by optimize.

    A record counts once its line ends in a newline. Text after the last
    newline is the torn end of an interrupted write: it is dropped with a
    RuntimeWarning. A malformed complete line raises a ValueError naming
    the log and the line, numbered from 1.
    """
    return _read_trials(log_path)[0]


def _read_trials(log_path: Union[str, os.PathLike]) -> Tuple[List[Trial], int]:
    """(load_trials(log_path), the byte length of the log's complete records)."""
    with open(log_path, "rb") as fh:
        data = fh.read()
    end = data.rfind(b"\n") + 1
    torn = data[end:].decode("utf-8", "replace")
    if torn.strip():
        warnings.warn(
            f"dropping the torn last line of {os.fspath(log_path)}: {torn[:60]!r}",
            RuntimeWarning,
        )
    trials: List[Trial] = []
    for number, line in enumerate(data[:end].decode("utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            trials.append(
                Trial(
                    number=int(rec["trial"]),
                    params=dict(rec["params"]),
                    value=rec["value"],
                    status=str(rec["status"]),
                )
            )
        except (ValueError, LookupError, TypeError) as exc:
            raise ValueError(
                f"{os.fspath(log_path)}, line {number}: not a trial record: {exc!r}"
            ) from exc
    return trials, end


def optimize(
    space: SearchSpace,
    n_trials: int,
    objective_fn: Callable[[Params], float],
    seed: int = 0,
    log_path: Optional[Union[str, os.PathLike]] = None,
) -> Study:
    """Run trials until n_trials total exist, maximizing objective_fn.

    A failing objective marks its trial failed and the search continues.
    With log_path, each trial appends one JSON line; prior lines are
    loaded first and count toward n_trials, so rerunning resumes, and a
    resumed search equals an uninterrupted one. A torn last line left by
    an interrupted run is dropped and cut from the log before appending.
    A logged trial whose parameters are not the space's dimensions comes
    from another search, and the log is refused with a ValueError.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    study = Study(seed=seed)
    if log_path is not None and os.path.exists(log_path):
        study.trials, complete = _read_trials(log_path)
        for trial in study.trials:
            if set(trial.params) != set(space):
                raise ValueError(
                    f"{os.fspath(log_path)}: trial {trial.number} holds parameters "
                    f"{sorted(trial.params)}, but the search space has {sorted(space)}"
                )
        os.truncate(log_path, complete)  # appends then start a line

    log_fh = None
    if log_path is not None:
        log_fh = open(log_path, "a", encoding="utf-8", newline="\n")
    try:
        for number in range(len(study.trials), n_trials):
            params = suggest(study, space)
            error = None
            try:
                value: Optional[float] = float(objective_fn(params))
                status = "ok"
            except Exception as exc:  # trial resilience by contract
                value, status, error = None, "failed", str(exc)
            trial = Trial(number=number, params=params, value=value, status=status)
            study.trials.append(trial)
            if log_fh is not None:
                record = json.dumps(_trial_record(trial, error), sort_keys=True)
                log_fh.write(record + "\n")
                log_fh.flush()
    finally:
        if log_fh is not None:
            log_fh.close()
    return study


def default_space() -> SearchSpace:
    """Search box for the boosting hyperparameters."""
    return {
        "learning_rate": log_dim(1e-3, 0.3),
        "num_leaves": int_dim(8, 256),
        "min_data_in_leaf": int_dim(5, 100),
        "feature_fraction": uniform_dim(0.5, 1.0),
        "bagging_fraction": uniform_dim(0.5, 1.0),
        "l2_regularization": log_dim(1e-8, 10.0),
    }
