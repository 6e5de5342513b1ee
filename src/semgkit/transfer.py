"""Warm-start transfer of a boosted model onto a small target dataset.

The source model's trees are frozen; target raw scores start from the
source model's outputs, and new rounds of trees, their leaves shrunk by
a reduced learning rate, fit the target gradients with class weights of
the target label balance. The result holds base trees plus new trees, so
its predictions decompose exactly into base score + new-tree score.
warm_start runs the same round loop as booster.train, started from the
base model instead of the class priors.

transfer_report's fits may run in a pool of worker processes. Each is a
job of the private module-level _fit_labels, never of a public name that
a caller may have replaced with a wrapper that cannot be pickled, and it
sends back the labels it predicts, not the model it fits.
"""
from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .ensemble import stratified_kfold
from .gbdt.binning import apply_bins
from .gbdt.booster import (
    BoostedModel,
    TrainParams,
    _boost,
    _checked_rows,
    _encode_labels,
    _per_class_recall,
    _train_args,
    _valid_rows,
)
from .gbdt.objective import LossSpec


@dataclass(frozen=True)
class TransferConfig:
    """Settings for the target-phase rounds."""

    learning_rate: float = 0.05
    max_rounds: int = 50
    early_stop_rounds: int = 30

    def __post_init__(self) -> None:
        # every field is a TrainParams field, checked by TrainParams' rules
        TrainParams(**asdict(self))


def _phase_params(base: BoostedModel, cfg: TransferConfig, seed: Optional[int]) -> TrainParams:
    seed = base.params.seed if seed is None else int(seed)
    return replace(base.params, **asdict(cfg), seed=seed)


def warm_start(
    base: BoostedModel,
    target_train_features: np.ndarray,
    target_train_labels: np.ndarray,
    target_valid_features: Optional[np.ndarray] = None,
    target_valid_labels: Optional[np.ndarray] = None,
    cfg: TransferConfig = TransferConfig(),
    loss: LossSpec = LossSpec(),
    seed: Optional[int] = None,
) -> BoostedModel:
    """Continue boosting from the base model on target data.

    The base contributes its rounds up to best_iteration, bit for bit; new
    rounds use the base bin edges, class weights recomputed from the target
    labels, and leaves shrunk by cfg.learning_rate. Early stopping follows
    target validation accuracy under the same rule as booster.train: with
    cfg.early_stop_rounds > 0 it stops after that many rounds without a
    gain, or as soon as target validation accuracy is 1.0 (before the
    first new round if the base already scores 1.0), in which case the
    result ends at best_iteration. best_iteration of the result counts
    base rounds plus the best number of new rounds. Target labels outside
    the base class set are a domain error.
    """
    return _boost(*_warm_args(
        base, target_train_features, target_train_labels,
        target_valid_features, target_valid_labels, cfg, loss, seed,
    ))


def _warm_args(
    base: BoostedModel,
    target_train_features: np.ndarray,
    target_train_labels: np.ndarray,
    target_valid_features: Optional[np.ndarray],
    target_valid_labels: Optional[np.ndarray],
    cfg: TransferConfig,
    loss: LossSpec,
    seed: Optional[int],
) -> Tuple[BoostedModel, np.ndarray, np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]]]:
    """The booster._boost arguments of warm_start.

    They are the starting model, the training rows binned with the base
    edges, their labels encoded against the base classes, and the valid
    rows as (bin codes, labels) or None.
    """
    features, labels = _checked_rows(
        target_train_features, target_train_labels, len(base.bin_edges)
    )
    _, encoded = _encode_labels(labels, base.classes)
    valid = _valid_rows(target_valid_features, target_valid_labels, base.bin_edges)
    start = replace(
        base,
        class_weights=loss.weights_for(labels, base.classes),
        params=_phase_params(base, cfg, seed),
    )
    return start, apply_bins(features, base.bin_edges), encoded, valid


@dataclass
class TransferReport:
    """Paired before/after results across seeds.

    before = scratch training on the target split only; after = warm
    start from the base model. Rows of the per-class arrays are seeds,
    columns follow classes; entries are per-class recall on the shared
    test split, NaN when a class is absent from it.
    """

    classes: np.ndarray
    seeds: Tuple[int, ...]
    before_per_class: np.ndarray
    after_per_class: np.ndarray
    before_accuracy: np.ndarray
    after_accuracy: np.ndarray

    def per_class_rows(self) -> List[Tuple[int, float, float]]:
        """(class, mean before, mean after) per class, seed-averaged.

        Means skip NaN seeds by np.nanmean's arithmetic, without its
        empty-slice warning: a class NaN in every seed stays NaN.
        """
        with np.errstate(invalid="ignore"):
            before, after = (
                np.nansum(r, axis=0) / np.sum(~np.isnan(r), axis=0)
                for r in (self.before_per_class, self.after_per_class)
            )
        return [
            (int(c), float(b), float(a))
            for c, b, a in zip(self.classes, before, after)
        ]

    def mean_row(self) -> Tuple[float, float]:
        rows = self.per_class_rows()
        before = [b for _, b, _ in rows if not np.isnan(b)]
        after = [a for _, _, a in rows if not np.isnan(a)]
        return float(np.mean(before)), float(np.mean(after))


def _paired_split(
    labels: np.ndarray, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class deal into train (1/2), valid (1/4) and test (1/4)."""
    quarter = stratified_kfold(labels, k=4, seed=rng)
    return quarter <= 1, quarter == 2, quarter == 3


def _fit_labels(job: Tuple[tuple, np.ndarray]) -> np.ndarray:
    """The labels that the booster._boost model of the arguments job[0]
    predicts for the feature rows job[1]."""
    boost_args, test_rows = job
    return _boost(*boost_args).predict_label(test_rows)


def transfer_report(
    target_features: np.ndarray,
    target_labels: np.ndarray,
    base: BoostedModel,
    cfg: TransferConfig = TransferConfig(),
    seeds: Tuple[int, ...] = (0, 1, 2, 3, 4),
    loss: LossSpec = LossSpec(),
    *,
    pool: Optional[Executor] = None,
) -> TransferReport:
    """Paired scratch-versus-warm-start comparison on target data.

    Each seed deals the target data into train/valid/test splits shared
    by both arms, trains both, and scores per-class recall and overall
    accuracy on the held-out test quarter.

    The 2 x len(seeds) fits are independent _fit_labels jobs, each a
    booster._boost run that returns the predicted labels of its test rows,
    never the model. The rows, their width and the labels against the base
    classes are checked on the whole target before any job starts. The
    jobs go to pool.map, or the builtin map when pool is None, as a
    generator: a seed's arguments, booster._train_args for the scratch arm
    and _warm_args for the warm arm, are built only after the previous
    seed's jobs were handed over, so a pool fits while the next scratch
    arm is binned. An error in one seed's split (a train split with one
    class, say) so surfaces after the earlier seeds' jobs were submitted.
    Labels are read in seed order either way, so the report is the same.
    """
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    features, labels = _checked_rows(
        target_features, target_labels, len(base.bin_edges)
    )
    classes = base.classes
    _encode_labels(labels, classes)  # every label, not only the train splits'
    n_classes = base.n_classes
    n_seeds = len(seeds)
    before_pc = np.full((n_seeds, n_classes), np.nan)
    after_pc = np.full((n_seeds, n_classes), np.nan)
    before_acc = np.zeros(n_seeds)
    after_acc = np.zeros(n_seeds)

    splits = [
        _paired_split(labels, np.random.default_rng([int(seed), 404]))
        for seed in seeds
    ]

    def jobs():
        for seed, (train_mask, valid_mask, test_mask) in zip(seeds, splits):
            args = (
                features[train_mask],
                labels[train_mask],
                features[valid_mask],
                labels[valid_mask],
            )
            test_rows = features[test_mask]
            params = _phase_params(base, cfg, seed)
            yield _train_args(*args, params, loss), test_rows
            yield _warm_args(base, *args, cfg, loss, int(seed)), test_rows

    predictions = (map if pool is None else pool.map)(_fit_labels, jobs())

    for s, (_, _, test_mask) in enumerate(splits):
        test_labels = labels[test_mask]
        for pred, per_class, acc in (
            (next(predictions), before_pc, before_acc),
            (next(predictions), after_pc, after_acc),
        ):
            acc[s] = float(np.mean(pred == test_labels))
            per_class[s] = _per_class_recall(pred, test_labels, classes)

    return TransferReport(
        classes=classes,
        seeds=tuple(int(s) for s in seeds),
        before_per_class=before_pc,
        after_per_class=after_pc,
        before_accuracy=before_acc,
        after_accuracy=after_acc,
    )
