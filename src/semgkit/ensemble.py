"""Stratified k-fold bagging of boosted models.

Bagging trains k models, member j on folds != j with fold j as its
early-stopping validation set, then averages member probabilities at
prediction time. Stratification deals each class round-robin across folds
so per-class fold counts differ by at most one.

As in LightGBM's cv, the rows are binned once and all members share those
edges; prediction bins once too. save_bagged writes directory/model.json
through gbdt.io, which alone knows its layout (BaggedModel and
predict_bagged live in gbdt.booster, beside BoostedModel).
"""
from __future__ import annotations

import os
import warnings
from dataclasses import replace
from typing import List, Sequence, Tuple, Union

import numpy as np

from .gbdt.binning import bin_features
from .gbdt.booster import BaggedModel, TrainParams, _boost, _checked_rows, _prior_start
from .gbdt.booster import predict_bagged  # noqa: F401  (re-exported)
from .gbdt.io import ModelFormatError, load_model, save_model
from .gbdt.objective import LossSpec


def stratified_kfold(
    labels: Sequence, k: int = 5, seed: Union[int, np.random.Generator] = 0
) -> np.ndarray:
    """Per-sample fold indices, class-stratified and shuffled by seed.

    seed is an int or a numpy Generator, which the deal then draws from
    (np.random.default_rng takes either).

    Within each class the sample positions are permuted, then dealt
    round-robin, so fold counts per class differ by at most one. Classes
    with fewer than k samples produce a warning and a best-effort deal.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] < 1:
        raise ValueError("labels must be a non-empty 1-D sequence")
    if k < 2:
        raise ValueError("k must be at least 2")
    rng = np.random.default_rng(seed)
    assignment = np.empty(labels.shape[0], dtype=np.int64)
    for cls in np.unique(labels):
        positions = np.flatnonzero(labels == cls)
        if positions.size < k:
            warnings.warn(
                f"class {cls} has {positions.size} samples for k={k} folds",
                RuntimeWarning,
            )
        order = rng.permutation(positions.size)
        assignment[positions[order]] = np.arange(positions.size) % k
    return assignment


def train_bagged(
    features: np.ndarray,
    labels: np.ndarray,
    params: TrainParams = TrainParams(),
    loss: LossSpec = LossSpec(),
    k: int = 5,
) -> BaggedModel:
    """Train k members on complementary stratified folds.

    Member j trains on its folds != j rows of one binning of all the rows,
    with fold j for early stopping. Member seeds derive from params.seed
    by seed-sequence spawning so the members differ but the whole ensemble
    is reproducible.
    """
    assignment, jobs = _member_jobs(features, labels, params, loss, k)
    members = [_boost(*job) for job in jobs]
    return BaggedModel(members=members, fold_assignment=assignment, seed=params.seed)


def _member_jobs(
    features: np.ndarray,
    labels: np.ndarray,
    params: TrainParams,
    loss: LossSpec,
    k: int,
) -> Tuple[np.ndarray, List[tuple]]:
    """(fold assignment, each member's booster._boost arguments) of train_bagged.

    The members' fits are independent of each other, so they may run in
    any order or process.
    """
    features, labels = _checked_rows(features, labels)
    assignment = stratified_kfold(labels, k=k, seed=params.seed)
    children = np.random.SeedSequence(params.seed).spawn(k)
    binned = bin_features(features, params.max_bins)
    jobs = []
    for j in range(k):
        hold = assignment == j
        member_params = replace(
            params, seed=int(children[j].generate_state(1)[0])
        )
        start, encoded = _prior_start(binned.edges, labels[~hold], member_params, loss)
        jobs.append((
            start, binned.codes[~hold], encoded, (binned.codes[hold], labels[hold])
        ))
    return assignment, jobs


def save_bagged(model: BaggedModel, directory: Union[str, os.PathLike]) -> None:
    """Write the ensemble to directory/model.json in one atomic write."""
    os.makedirs(directory, exist_ok=True)
    save_model(model, os.path.join(directory, "model.json"))


def load_bagged(directory: Union[str, os.PathLike]) -> BaggedModel:
    """Read an ensemble written by save_bagged; ModelFormatError on a single model."""
    path = os.path.join(directory, "model.json")
    model = load_model(path)
    if not isinstance(model, BaggedModel):
        raise ModelFormatError(f"{path} holds a single boosted model, not a bagged ensemble")
    return model
