"""Warm-start transfer of a boosted model onto a small target dataset.

The source model's trees are frozen; target raw scores start from the
source model's outputs, and new rounds of trees, their leaves shrunk by
a reduced learning rate, fit the target gradients with class weights of
the target label balance. The result holds base trees plus new trees, so
its predictions decompose exactly into base score + new-tree score.
warm_start runs the same round loop as booster.train, started from the
base model instead of the class priors.
"""
from __future__ import annotations

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
    _valid_rows,
    train,
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
    loss: Optional[LossSpec] = None,
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
    features, labels = _checked_rows(
        target_train_features, target_train_labels, len(base.bin_edges)
    )
    _, encoded = _encode_labels(labels, base.classes)
    valid = _valid_rows(target_valid_features, target_valid_labels, base.bin_edges)
    if loss is None:
        loss = LossSpec()

    start = replace(
        base,
        class_weights=loss.weights_for(labels, base.classes),
        params=_phase_params(base, cfg, seed),
    )
    return _boost(start, apply_bins(features, base.bin_edges), encoded, valid)


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


def transfer_report(
    target_features: np.ndarray,
    target_labels: np.ndarray,
    base: BoostedModel,
    cfg: TransferConfig = TransferConfig(),
    seeds: Tuple[int, ...] = (0, 1, 2, 3, 4),
    loss: Optional[LossSpec] = None,
) -> TransferReport:
    """Paired scratch-versus-warm-start comparison on target data.

    Each seed deals the target data into train/valid/test splits shared
    by both arms, trains both, and scores per-class recall and overall
    accuracy on the held-out test quarter.
    """
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    features, labels = _checked_rows(
        target_features, target_labels, len(base.bin_edges)
    )
    classes = base.classes
    n_classes = base.n_classes
    n_seeds = len(seeds)
    before_pc = np.full((n_seeds, n_classes), np.nan)
    after_pc = np.full((n_seeds, n_classes), np.nan)
    before_acc = np.zeros(n_seeds)
    after_acc = np.zeros(n_seeds)

    for s, seed in enumerate(seeds):
        rng = np.random.default_rng([int(seed), 404])
        train_mask, valid_mask, test_mask = _paired_split(labels, rng)
        args = (
            features[train_mask],
            labels[train_mask],
            features[valid_mask],
            labels[valid_mask],
        )
        scratch = train(*args, params=_phase_params(base, cfg, seed), loss=loss)
        warmed = warm_start(base, *args, cfg=cfg, loss=loss, seed=int(seed))
        test_labels = labels[test_mask]
        for model, per_class, acc in (
            (scratch, before_pc, before_acc), (warmed, after_pc, after_acc)
        ):
            pred = model.predict_label(features[test_mask])
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
