"""End-to-end orchestration: data to filtered windows to features to
models to report files.

The flow follows the repetition-grouped protocol: filter the recording,
segment it, split by each of the three fixed cross-validation plans,
standardize with train-side statistics, extract features, train (bagged
by default), evaluate on the held-out repetitions, and average across
plans. Every stochastic component derives its seed from the single run
seed, so a rerun with the same config reproduces models and metric files
byte for byte; wall-clock timing is reported separately in summary.csv.

Each of train, tune and transfer makes its feature rows and runs every
fit in one pool of worker processes (_worker_pool), and reads the results
through the pool's map, in submission order, so the outputs are
byte-identical to a serial run; evaluate fits nothing.
"""
from __future__ import annotations

import configparser
import multiprocessing
import os
import time
import weakref
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dataset import (
    Recording,
    SplitPlan,
    SyntheticSpec,
    Window,
    generate_synthetic,
    load_recording,
    make_cv_plans,
    segment,
    split_by_repetition,
)
from .dsp import (
    ChannelStats,
    cascade,
    compute_stats,
    design_bandpass,
    design_notch,
    filter_channels,
)
from .ensemble import _member_jobs, stratified_kfold
from .features import FeatureConfig, extract_standardized
from .gbdt.booster import (
    BaggedModel,
    BoostedModel,
    TrainParams,
    _boost,
    _encode_labels,
    _flag_hard_classes,
    _restart,
    _train_args,
    _warmup_job,
)
from .gbdt.io import BAGGED_TYPE, _numbers, _read_model, model_to_dict, write_document, write_table
from .gbdt.objective import LossSpec
from .hpo import default_space, optimize
from .transfer import TransferConfig, TransferReport, _fit_labels, transfer_report


class PipelineError(RuntimeError):
    """Stage-labeled failure; the message names the stage that died."""

    def __init__(self, stage: str, message: str) -> None:
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@contextmanager
def _stage(name: str, timings: Dict[str, float]):
    start = time.perf_counter()
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


# ---------------------------------------------------------------- metrics


@dataclass(frozen=True)
class Metrics:
    """Confusion matrix and the scores derived from it."""

    confusion: np.ndarray
    accuracy: float
    per_class_precision: np.ndarray
    per_class_recall: np.ndarray
    per_class_f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float


def _confusion_metrics(confusion: np.ndarray) -> Metrics:
    """Metrics of a confusion matrix whose rows are the true classes."""
    n_classes = confusion.shape[0]
    diag = np.diag(confusion).astype(np.float64)
    rowsum = confusion.sum(axis=1).astype(np.float64)
    colsum = confusion.sum(axis=0).astype(np.float64)
    zeros = np.zeros(n_classes)
    precision = np.divide(diag, colsum, out=zeros.copy(), where=colsum > 0)
    recall = np.divide(diag, rowsum, out=zeros.copy(), where=rowsum > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=zeros.copy(), where=pr > 0)
    return Metrics(
        confusion=confusion,
        accuracy=float(diag.sum() / confusion.sum()),
        per_class_precision=precision,
        per_class_recall=recall,
        per_class_f1=f1,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
    )


def evaluate(
    pred_labels: Sequence[int], true_labels: Sequence[int], n_classes: int
) -> Metrics:
    """Score encoded predictions against encoded truth.

    Labels must lie in 0..n_classes-1. confusion[i][j] counts samples with
    true class i predicted as j. Undefined ratios (0/0) score 0; macro
    scores are unweighted means over all n_classes classes.
    """
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.ndim != 1 or true.ndim != 1 or pred.shape != true.shape:
        raise ValueError("prediction and truth must be 1-D and equal length")
    if pred.shape[0] < 1:
        raise ValueError("at least one sample is required")
    if n_classes < 1:
        raise ValueError("n_classes must be at least 1")
    for name, arr in (("pred", pred), ("true", true)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise ValueError(f"{name} labels must lie in 0..{n_classes - 1}")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (true, pred), 1)
    return _confusion_metrics(confusion)


# ----------------------------------------------------------- configuration


@dataclass
class PipelineConfig:
    """Everything a run needs; loadable from an INI file.

    The run seed overrides the synthetic-data seed and the training seed
    when the pipeline executes, so one value pins the whole run.
    """

    data_path: Optional[str] = None  # CSV path; None means synthetic data
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    bandpass_low_hz: float = 20.0
    bandpass_high_hz: float = 200.0
    bandpass_order: int = 5
    notch_hz: Tuple[float, ...] = (74.0, 148.0)
    notch_quality: float = 30.0
    zero_phase: bool = False
    window_len: int = 1280
    step: int = 320
    include_rest: bool = False
    features: FeatureConfig = field(default_factory=FeatureConfig)
    # pipeline profile: gradient-based row sampling on, 63 bins, shorter
    # patience; keeps the full run inside an interactive time budget
    params: TrainParams = field(
        default_factory=lambda: TrainParams(
            max_rounds=60,
            top_rate=0.2,
            other_rate=0.1,
            max_bins=63,
            early_stop_rounds=15,
        )
    )
    loss: LossSpec = field(default_factory=LossSpec)
    auto_hard_classes: bool = False  # train only: detect each plan's hard classes
    use_ensemble: bool = True
    ensemble_k: int = 5
    hpo_trials: int = 30
    hpo_fast: bool = True
    transfer: TransferConfig = field(default_factory=TransferConfig)
    transfer_base_model: Optional[str] = None
    transfer_target_seed: Optional[int] = None
    transfer_seeds: Tuple[int, ...] = (0, 1, 2, 3, 4)
    out_dir: str = "out"
    model_dir: Optional[str] = None  # default: <out_dir>/model
    seed: int = 0

    def __post_init__(self) -> None:
        # a window must hold one STFT segment; checked here, before any data work
        if self.window_len < 1 or self.step < 1:
            raise ValueError(
                f"[window] length and step must be at least 1, "
                f"not {self.window_len} and {self.step}"
            )
        if self.window_len < self.features.stft_seg_len:
            raise ValueError(
                f"[window] length {self.window_len} is shorter than "
                f"[features] stft_seg_len {self.features.stft_seg_len}"
            )

    def resolved_model_dir(self) -> str:
        return self.model_dir or os.path.join(self.out_dir, "model")


def default_config() -> PipelineConfig:
    """A complete synthetic-data configuration with package defaults."""
    return PipelineConfig()


def _list_of(parse: Callable[[str], object]) -> Callable[[str], Tuple]:
    """Values separated by commas or whitespace, each read by parse."""
    return lambda text: tuple(parse(tok) for tok in text.replace(",", " ").split())


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {text}") from None


def _optional(parse: Callable[[str], object]) -> Callable[[str], object]:
    """An empty value means None."""
    return lambda text: parse(text) if text else None


# section -> key -> (PipelineConfig fields it sets, parser). A dotted field
# names a field of a nested config; a missing key keeps the PipelineConfig()
# default.
_INI_KEYS: Dict[str, Dict[str, Tuple[Tuple[str, ...], Callable[[str], object]]]] = {
    "data": {
        "csv": (("data_path",), _optional(str)),
        "n_classes": (("synthetic.n_classes",), int),
        "repetitions": (("synthetic.repetitions",), int),
        "hold_duration": (("synthetic.hold_duration",), float),
        "rest_duration": (("synthetic.rest_duration",), float),
        "sample_rate": (("synthetic.sample_rate", "features.sample_rate"), float),
        "snr_db": (("synthetic.snr_db",), float),
        "mains_hz": (("synthetic.mains_hz",), float),
        "class_seed": (("synthetic.class_seed",), _optional(int)),
    },
    "filter": {
        "low_hz": (("bandpass_low_hz",), float),
        "high_hz": (("bandpass_high_hz",), float),
        "order": (("bandpass_order",), int),
        "notch_hz": (("notch_hz",), _list_of(float)),
        "quality": (("notch_quality",), float),
        "zero_phase": (("zero_phase",), _parse_bool),
    },
    "window": {
        "length": (("window_len",), int),
        "step": (("step",), int),
        "include_rest": (("include_rest",), _parse_bool),
    },
    "features": {
        "stft_seg_len": (("features.stft_seg_len",), int),
        "stft_hop": (("features.stft_hop",), int),
    },
    "train": {
        "learning_rate": (("params.learning_rate",), float),
        "num_leaves": (("params.num_leaves",), int),
        "max_rounds": (("params.max_rounds",), int),
        "min_data_in_leaf": (("params.min_data_in_leaf",), int),
        "l2_regularization": (("params.l2_regularization",), float),
        "feature_fraction": (("params.feature_fraction",), float),
        "bagging_fraction": (("params.bagging_fraction",), float),
        "top_rate": (("params.top_rate",), float),
        "other_rate": (("params.other_rate",), float),
        "max_bins": (("params.max_bins",), int),
        "early_stop_rounds": (("params.early_stop_rounds",), int),
    },
    "loss": {
        "gain": (("loss.gain",), float),
        "hard_classes": (("loss.hard_classes",), _list_of(int)),
        "auto": (("auto_hard_classes",), _parse_bool),
    },
    "ensemble": {
        "enabled": (("use_ensemble",), _parse_bool),
        "k": (("ensemble_k",), int),
    },
    "hpo": {
        "n_trials": (("hpo_trials",), int),
        "fast": (("hpo_fast",), _parse_bool),
    },
    "transfer": {
        "base_model": (("transfer_base_model",), _optional(str)),
        "target_seed": (("transfer_target_seed",), _optional(int)),
        "learning_rate": (("transfer.learning_rate",), float),
        "max_rounds": (("transfer.max_rounds",), int),
        "early_stop_rounds": (("transfer.early_stop_rounds",), int),
        "seeds": (("transfer_seeds",), _list_of(int)),
    },
    "run": {
        "out": (("out_dir",), str),
        "model_dir": (("model_dir",), _optional(str)),
        "seed": (("seed",), int),
    },
}


def load_config(path: Union[str, os.PathLike]) -> PipelineConfig:
    """Read an INI config; unknown keys are errors, missing ones default.

    Sections and keys mirror PipelineConfig: [data], [filter], [window],
    [features], [train], [loss], [ensemble], [hpo], [transfer], [run].
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        # configparser's messages may span lines; an error prints as one
        raise ValueError(f"config file {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    top: Dict[str, object] = {}
    nested: Dict[str, Dict[str, object]] = {}
    for section in cp.sections():
        keys = _INI_KEYS.get(section)
        if keys is None:
            raise ValueError(f"unknown config section [{section}]")
        extra = set(cp[section]) - set(keys)
        if extra:
            raise ValueError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(extra))}"
            )
        for key in cp[section]:
            targets, parse = keys[key]
            try:
                value = parse(cp.get(section, key).strip())
            except (ValueError, configparser.Error) as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from exc
            for target in targets:
                owner, _, name = target.rpartition(".")
                (nested.setdefault(owner, {}) if owner else top)[name] = value

    base = default_config()
    for owner, values in nested.items():
        top[owner] = replace(getattr(base, owner), **values)
    return replace(base, **top)


# ------------------------------------------------------------- file output


def emit_report(
    plan_metrics: Sequence[Metrics],
    class_ids: Sequence[int],
    out_dir: Union[str, os.PathLike],
    train_seconds: float = 0.0,
) -> Dict[str, str]:
    """Write metrics.csv, per_movement.csv, confusion.csv and summary.csv.

    metrics.csv holds the four macro scores per plan plus their mean;
    per_movement.csv holds pooled per-class accuracy, one row per class
    and a mean row; confusion.csv is the pooled confusion matrix; and
    summary.csv repeats the plan-mean scores with the training time (the
    only value that varies between reruns). Writes replace atomically.
    """
    if not plan_metrics:
        raise ValueError("at least one plan result is required")
    class_ids = [int(c) for c in class_ids]
    names = ["accuracy", "macro_precision", "macro_recall", "macro_f1"]
    scores = [[getattr(m, name) for name in names] for m in plan_metrics]
    means = [float(np.mean(column)) for column in zip(*scores)]
    pooled = _confusion_metrics(sum(m.confusion for m in plan_metrics))
    return {
        "metrics": write_table(
            os.path.join(out_dir, "metrics.csv"),
            ["plan"] + names,
            [[i] + row for i, row in enumerate(scores, start=1)] + [["mean"] + means],
        ),
        "per_movement": write_table(
            os.path.join(out_dir, "per_movement.csv"),
            ["movement", "accuracy"],
            [*zip(class_ids, pooled.per_class_recall), ("mean", pooled.macro_recall)],
        ),
        "confusion": write_table(
            os.path.join(out_dir, "confusion.csv"),
            ["true"] + [f"pred_{c}" for c in class_ids],
            [[cls] + list(row) for cls, row in zip(class_ids, pooled.confusion)],
        ),
        "summary": write_table(
            os.path.join(out_dir, "summary.csv"),
            names + ["train_seconds"],
            [means + [float(train_seconds)]],
        ),
    }


# ------------------------------------------------------------ shared steps


def _effective(config: PipelineConfig) -> Tuple[SyntheticSpec, TrainParams]:
    """Apply the run seed to the data and training components."""
    return (
        replace(config.synthetic, seed=config.seed),
        replace(config.params, seed=config.seed),
    )


def _prepare_windows(
    config: PipelineConfig, timings: Dict[str, float], spec: SyntheticSpec
) -> List[Window]:
    with _stage("load", timings):
        if config.data_path:
            recording = load_recording(
                config.data_path, sample_rate=config.synthetic.sample_rate
            )
        else:
            recording = generate_synthetic(spec)
        if recording.sample_rate != config.features.sample_rate:
            raise ValueError(
                f"features.sample_rate {config.features.sample_rate} Hz does not "
                f"match the recording's {recording.sample_rate} Hz"
            )
    with _stage("filter", timings):
        recording = _filter_recording(config, recording)
    with _stage("segment", timings):
        windows = segment(
            recording,
            window_len=config.window_len,
            step=config.step,
            include_rest=config.include_rest,
        )
        if not windows:
            raise ValueError("segmentation produced no windows")
    return windows


def _filter_recording(config: PipelineConfig, recording: Recording) -> Recording:
    """Filter the recording's channels in place, one row at a time, and
    return it: the raw samples are consumed, and no full-size copy is made.
    Rows filter on their own, so this equals filtering the whole block."""
    fs = recording.sample_rate
    chain = [
        design_bandpass(
            config.bandpass_low_hz,
            config.bandpass_high_hz,
            order=config.bandpass_order,
            sample_rate=fs,
        )
    ]
    for f0 in config.notch_hz:
        chain.append(design_notch(f0, quality=config.notch_quality, sample_rate=fs))
    sos = cascade(*chain)
    for row in recording.channels:
        row[:] = filter_channels(sos, row, zero_phase=config.zero_phase)
    return recording


def _plan_sides(
    windows: Sequence[Window], plan: SplitPlan, number: int
) -> Tuple[List[Window], List[Window]]:
    """(train, test) windows of CV plan number; neither side may be empty."""
    train_w, test_w = split_by_repetition(windows, plan)
    if not train_w or not test_w:
        raise ValueError(f"plan {number} leaves an empty train or test side")
    return train_w, test_w


def _window_rows(
    windows: Sequence[Window], stats: Sequence[ChannelStats], cfg: FeatureConfig
) -> np.ndarray:
    """Feature rows of windows under each stats, shape (len(stats), windows, features)."""
    return np.stack([extract_standardized(w, stats, cfg) for w in windows], axis=1)


def _labels(windows: Sequence[Window]) -> np.ndarray:
    return np.asarray([w.label for w in windows], dtype=np.int64)


# Feature rows are made in jobs of at most this many windows, small enough
# that the last job leaves the other workers idle only briefly.
_CHUNK_WINDOWS = 64

# The windows a pool worker makes feature rows from; set only in workers,
# by _worker_pool's initializer.
_POOL_WINDOWS: Sequence[Window] = ()


def _hold_windows(windows: Sequence[Window]) -> None:
    global _POOL_WINDOWS
    _POOL_WINDOWS = windows


def _pool_rows(
    start: int, stats: Sequence[ChannelStats], cfg: FeatureConfig
) -> np.ndarray:
    """Pool job: _window_rows of the worker's _CHUNK_WINDOWS windows from start."""
    return _window_rows(_POOL_WINDOWS[start:start + _CHUNK_WINDOWS], stats, cfg)


def _feature_jobs(windows: Sequence[Window]) -> int:
    """The number of _pool_rows jobs that make windows' feature rows."""
    return -(-len(windows) // _CHUNK_WINDOWS)


def _pooled_rows(
    pool: Executor, n_windows: int, stats: Sequence[ChannelStats], cfg: FeatureConfig
) -> np.ndarray:
    """_window_rows of all n_windows windows pool's workers hold, in order.

    The rows are made in _feature_jobs jobs of at most _CHUNK_WINDOWS
    consecutive windows.
    """
    starts = range(0, n_windows, _CHUNK_WINDOWS)
    rows = pool.map(_pool_rows, starts, repeat(stats), repeat(cfg))
    return np.concatenate(list(rows), axis=1)


class _CancellingPool(Executor):
    """A pool whose shutdown cancels jobs one future at a time.

    shutdown(cancel_futures=True) cancels every job not yet started and
    then waits for the running ones, as the process pool's own does, but
    never hands cancel_futures on to it: on CPython 3.11 that can wait
    forever for a job that failed to pickle, because the pool keeps such a
    job in a copy of its table of pending jobs, which the thread that
    pickles jobs never updates.
    """

    def __init__(self, pool: Executor) -> None:
        self._pool = pool
        # every submitted future that is still pending or still held by a caller
        self._futures: "weakref.WeakSet[Future]" = weakref.WeakSet()

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = self._pool.submit(fn, *args, **kwargs)
        self._futures.add(future)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        if cancel_futures:
            for future in list(self._futures):
                future.cancel()
        self._pool.shutdown(wait)


@contextmanager
def _worker_pool(windows: Sequence[Window], n_fits: int = 0):
    """A pool of min(CPUs, max(feature jobs, n_fits)) workers that hold windows.

    Workers are forked, so they inherit windows instead of unpickling a
    copy, and the parent never builds a pickle of them. On exit, jobs not
    yet started are cancelled and the workers are joined, also when the
    body raised.
    """
    pool = _CancellingPool(ProcessPoolExecutor(
        min(len(os.sched_getaffinity(0)), max(_feature_jobs(windows), n_fits)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_hold_windows,
        initargs=(windows,),
    ))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _plan_rows(
    config: PipelineConfig,
    windows: Sequence[Window],
    plans: Sequence[SplitPlan],
    timings: Dict[str, float],
    pool: Executor,
) -> List[Tuple[ChannelStats, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(stats, X_train, y_train, X_test, y_test) of each plan, numbered from 1.

    Both sides of a plan are standardized with the stats of its train
    side. Every window sits on one side of every plan, so pool, whose
    workers hold windows, makes each window's rows of all plans in one
    pass, in jobs of at most _CHUNK_WINDOWS consecutive windows.
    """
    with _stage("standardize", timings):
        sides = [
            _plan_sides(windows, plan, number)
            for number, plan in enumerate(plans, start=1)
        ]
        stats = [compute_stats(train_w) for train_w, _ in sides]
    with _stage("features", timings):
        rows = _pooled_rows(pool, len(windows), stats, config.features)
        position = {id(w): i for i, w in enumerate(windows)}
        labels = _labels(windows)
        out = []
        for p, (train_w, test_w) in enumerate(sides):
            train_at = [position[id(w)] for w in train_w]
            test_at = [position[id(w)] for w in test_w]
            out.append((
                stats[p], rows[p, train_at], labels[train_at],
                rows[p, test_at], labels[test_at],
            ))
    return out


def _holdout_fit(X: np.ndarray, y: np.ndarray, params: TrainParams) -> Tuple[tuple, np.ndarray]:
    """A plan's hold-out job: (the _train_args, under params and LossSpec(),
    of fold 0 of a 5-fold stratified deal, seeded by params.seed, as
    validation rows; X[fold 0]). A run builds it once per plan, and each
    hold-out fit restarts it (booster._restart) instead of re-binning."""
    hold = stratified_kfold(y, k=5, seed=params.seed) == 0
    return _train_args(X[~hold], y[~hold], X[hold], y[hold], params), X[hold]


def _plan_losses(
    config: PipelineConfig, params: TrainParams, holdouts: Sequence[tuple], pool: Executor
) -> Iterable[LossSpec]:
    """Each plan's loss: config.loss, whose hard classes are, under
    auto_hard_classes, those flagged by the warm-up fit of the plan's
    hold-out job (_holdout_fit). The warm-ups of all plans are one map of
    _fit_labels jobs."""
    if not config.auto_hard_classes:
        return repeat(config.loss)
    jobs = [(_warmup_job(boost_args, params), rows) for boost_args, rows in holdouts]
    return [
        replace(config.loss, hard_classes=_flag_hard_classes(boost_args, pred))
        for (boost_args, _), pred in zip(jobs, pool.map(_fit_labels, jobs))
    ]


def _score_plan(
    pred: np.ndarray, truth: np.ndarray, class_ids: np.ndarray
) -> Metrics:
    """Metrics of one plan's predictions, classes encoded against class_ids."""
    return evaluate(
        _encode_labels(pred, class_ids)[1],
        _encode_labels(truth, class_ids)[1],
        len(class_ids),
    )


def _save_plan(
    plan_dir: str, model: Union[BaggedModel, BoostedModel], stats: ChannelStats
) -> None:
    """Write plan_dir/model.json: the model's document plus its standardization."""
    os.makedirs(plan_dir, exist_ok=True)
    write_document(os.path.join(plan_dir, "model.json"), {
        **model_to_dict(model),
        "standardization": {"mean": stats.mean.tolist(), "std": stats.std.tolist()},
    })


def _load_plan(path: str) -> Tuple[Union[BaggedModel, BoostedModel], ChannelStats]:
    """The model and stats saved by _save_plan; path is a plan dir or its model.json."""
    model_file = os.path.join(path, "model.json") if os.path.isdir(path) else path
    model, doc = _read_model(model_file)
    if "standardization" not in doc:
        raise ValueError(f"{model_file} holds no standardization: not a saved plan")
    stats = doc["standardization"]
    if not isinstance(stats, dict):
        raise ValueError(f"{model_file}: standardization must map mean and std to lists")
    values = {}
    for key in ("mean", "std"):
        try:
            values[key] = _numbers(stats.get(key))
        except (TypeError, ValueError):
            raise ValueError(
                f"{model_file}: standardization.{key} must be a list of numbers"
            ) from None
    try:
        return model, ChannelStats(values["mean"], values["std"])
    except ValueError as exc:
        raise ValueError(f"{model_file}: standardization: {exc}") from exc


def _report(
    mode: str,
    config: PipelineConfig,
    plan_metrics: Sequence[Metrics],
    class_ids: np.ndarray,
    timings: Dict[str, float],
) -> Dict:
    """Write the report files of a train or evaluate run; return its result.

    summary.csv's train_seconds is the run's train stage time, 0.0 when
    the run trained nothing.
    """
    with _stage("report", timings):
        paths = emit_report(
            plan_metrics, class_ids, config.out_dir, timings.get("train", 0.0)
        )
    return {
        "mode": mode,
        "mean_accuracy": float(np.mean([m.accuracy for m in plan_metrics])),
        "plan_accuracies": [m.accuracy for m in plan_metrics],
        "files": paths,
    }


# -------------------------------------------------------------- run modes


def _run_train(config: PipelineConfig, timings: Dict[str, float]) -> Dict:
    k = config.ensemble_k if config.use_ensemble else 1
    if config.use_ensemble and k < 2:
        raise PipelineError("train", f"config [ensemble] k must be at least 2, not {k}")
    spec, params = _effective(config)
    windows = _prepare_windows(config, timings, spec)
    class_ids = np.unique([w.label for w in windows])
    plans = make_cv_plans()
    plan_metrics: List[Metrics] = []
    model_root = config.resolved_model_dir()

    with _worker_pool(windows, len(plans) * k) as pool:
        plan_rows = _plan_rows(config, windows, plans, timings, pool)
        fits = []
        with _stage("train", timings):
            # the warm-ups need every plan's hold-out job before any fit
            holdouts = [_holdout_fit(X, y, params) for _, X, y, _, _ in plan_rows
                        if config.auto_hard_classes]
            losses = _plan_losses(config, params, holdouts, pool)
            for p, ((_, X_train, y_train, _, _), loss) in enumerate(zip(plan_rows, losses)):
                if config.use_ensemble:
                    assignment, jobs = _member_jobs(X_train, y_train, params, loss, k)
                else:
                    # built as its plan's fit is submitted, unless a warm-up needed it
                    holdout = holdouts[p] if holdouts else _holdout_fit(X_train, y_train, params)
                    assignment, jobs = None, [_restart(holdout[0], params, loss)]
                # map submits the plan's jobs now and yields their models in order
                fits.append((assignment, pool.map(_boost, *zip(*jobs))))

        for i, ((stats, _, _, X_test, y_test), (assignment, models)) in enumerate(
            zip(plan_rows, fits), start=1
        ):
            with _stage("train", timings):
                if assignment is None:
                    model: Union[BaggedModel, BoostedModel] = next(models)
                else:
                    model = BaggedModel(
                        members=list(models),
                        fold_assignment=assignment,
                        seed=params.seed,
                    )
                pred = model.predict_label(X_test)
            with _stage("save", timings):
                if i == 1:  # from here on a failure leaves missing plans, not an older run's
                    for j in range(1, len(plans) + 1):
                        with suppress(FileNotFoundError):
                            os.remove(os.path.join(model_root, f"plan_{j}", "model.json"))
                _save_plan(os.path.join(model_root, f"plan_{i}"), model, stats)
            with _stage("evaluate", timings):
                plan_metrics.append(_score_plan(pred, y_test, class_ids))

    return {
        **_report("train", config, plan_metrics, class_ids, timings),
        "model_dir": model_root,
    }


def _run_evaluate(config: PipelineConfig, timings: Dict[str, float]) -> Dict:
    spec, _ = _effective(config)
    model_root = config.resolved_model_dir()
    if not os.path.isdir(model_root):
        raise PipelineError("load", f"model directory not found: {model_root}")
    windows = _prepare_windows(config, timings, spec)
    class_ids = np.unique([w.label for w in windows])
    plan_metrics: List[Metrics] = []

    for i, plan in enumerate(make_cv_plans(), start=1):
        with _stage("load_model", timings):
            plan_dir = os.path.join(model_root, f"plan_{i}")
            model, stats = _load_plan(plan_dir)
            if not np.array_equal(model.classes, class_ids):
                raise PipelineError("load_model", (
                    f"{os.path.join(plan_dir, 'model.json')} was trained on classes "
                    f"{model.classes.tolist()}, not the recording's {class_ids.tolist()}"
                ))
        with _stage("features", timings):
            _, test_w = _plan_sides(windows, plan, i)
            X_test = _window_rows(test_w, [stats], config.features)[0]
        with _stage("evaluate", timings):
            pred = model.predict_label(X_test)
            plan_metrics.append(_score_plan(pred, _labels(test_w), class_ids))

    return _report("evaluate", config, plan_metrics, class_ids, timings)


def _run_tune(config: PipelineConfig, timings: Dict[str, float]) -> Dict:
    spec, params = _effective(config)
    windows = _prepare_windows(config, timings, spec)
    plans = make_cv_plans()
    if config.hpo_fast:
        plans = plans[:1]
    space = default_space()
    if params.goss_enabled:
        # GOSS is the row sampler then, and bagging_fraction is never read
        del space["bagging_fraction"]

    with _worker_pool(windows, len(plans)) as pool:
        plan_rows = _plan_rows(config, windows, plans, timings, pool)
        os.makedirs(config.out_dir, exist_ok=True)
        log_path = os.path.join(config.out_dir, "trials.log")
        with _stage("tune", timings):
            jobs = [(_holdout_fit(X, y, params)[0], X_test, y_test)
                    for _, X, y, X_test, y_test in plan_rows]

            def objective(point: Dict) -> float:
                """The plans' mean test accuracy; each trial restarts the plans'
                hold-out jobs, as one map of _fit_labels jobs."""
                trial_params = replace(params, **point)
                labels = pool.map(_fit_labels, [
                    (_restart(boost_args, trial_params, config.loss), X_test)
                    for boost_args, X_test, _ in jobs
                ])
                return float(np.mean([np.mean(pred == y) for pred, (*_, y) in zip(labels, jobs)]))

            study = optimize(
                space, config.hpo_trials, objective, seed=config.seed, log_path=log_path
            )
    best = {"value": study.best_value, "params": study.best_params}
    write_document(os.path.join(config.out_dir, "best_params.json"), best)
    return {
        "mode": "tune",
        "best_value": study.best_value,
        "best_params": study.best_params,
        "n_trials": len(study.trials),
        "files": {"trials": log_path},
    }


def _resolve_base_model(path: str) -> Tuple[BoostedModel, ChannelStats]:
    """The transfer base saved at path, which must be a single boosted model."""
    try:
        model, stats = _load_plan(path)
    except FileNotFoundError as exc:
        raise ValueError(f"transfer needs a single boosted model: {exc}") from exc
    if not isinstance(model, BoostedModel):
        raise ValueError(
            f"transfer needs a single boosted model, not a {BAGGED_TYPE}: {path}"
        )
    return model, stats


def _run_transfer(config: PipelineConfig, timings: Dict[str, float]) -> Dict:
    if not config.transfer_base_model:
        raise PipelineError(
            "transfer", "config [transfer] base_model is required in this mode"
        )
    with _stage("load_model", timings):
        base, stats = _resolve_base_model(config.transfer_base_model)

    spec, _ = _effective(config)
    if not config.data_path:
        # same gesture profiles as the base run, new recording conditions
        target_seed = (
            config.transfer_target_seed
            if config.transfer_target_seed is not None
            else config.seed + 1
        )
        profile = (
            config.synthetic.class_seed
            if config.synthetic.class_seed is not None
            else config.seed
        )
        spec = replace(spec, seed=target_seed, class_seed=profile)
    windows = _prepare_windows(config, timings, spec)

    with _worker_pool(windows, 2 * len(config.transfer_seeds)) as pool:
        with _stage("features", timings):
            X = _pooled_rows(pool, len(windows), [stats], config.features)[0]
        with _stage("transfer", timings):
            report = transfer_report(
                X, _labels(windows), base,
                cfg=config.transfer,
                seeds=config.transfer_seeds,
                loss=config.loss,
                pool=pool,
            )
    with _stage("report", timings):
        path = write_transfer_csv(report, config.out_dir)
    before_mean, after_mean = report.mean_row()
    return {
        "mode": "transfer",
        "before_mean": before_mean,
        "after_mean": after_mean,
        "files": {"transfer_report": path},
    }


def write_transfer_csv(
    report: TransferReport, out_dir: Union[str, os.PathLike]
) -> str:
    """Per-class before/after table plus a mean row."""
    return write_table(
        os.path.join(out_dir, "transfer_report.csv"),
        ["movement", "before_accuracy", "after_accuracy"],
        report.per_class_rows() + [("mean",) + report.mean_row()],
    )


MODES = ("train", "evaluate", "tune", "transfer")


def run_pipeline(config: PipelineConfig, mode: str = "train") -> Dict:
    """Execute one pipeline mode; returns a summary dict.

    Artifacts land under config.out_dir (and the model directory for
    train mode). Failures raise PipelineError naming the stage.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    timings: Dict[str, float] = {}
    runner = {
        "train": _run_train,
        "evaluate": _run_evaluate,
        "tune": _run_tune,
        "transfer": _run_transfer,
    }[mode]
    result = runner(config, timings)
    result["timings"] = {k: round(v, 3) for k, v in timings.items()}
    return result
