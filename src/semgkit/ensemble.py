"""Stratified k-fold bagging of boosted models.

Bagging trains k models, member j on folds != j with fold j as its
early-stopping validation set, then averages member probabilities at
prediction time. Stratification deals each class round-robin across folds
so per-class fold counts differ by at most one.

As in LightGBM's cv, the rows are binned once and all members share those
edges; prediction bins once too. save_bagged writes one model.json that
holds the shared edges once and every member's body (see gbdt.io).
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .gbdt.binning import BinnedMatrix, apply_bins, bin_features
from .gbdt.booster import BoostedModel, TrainParams, _checked_rows, _fit, _scores
from .gbdt.io import ModelFormatError, member_from_dict, member_to_dict, new_document
from .gbdt.io import open_document, read_document, write_document
from .gbdt.objective import LossSpec, softmax

MODEL_TYPE = "bagged_ensemble"


@dataclass
class BaggedModel:
    """k boosted members, sharing one set of bin edges, averaged by probability."""

    members: List[BoostedModel]
    fold_assignment: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a bagged model needs at least two members")
        first = self.members[0]
        for m in self.members[1:]:
            if not np.array_equal(m.classes, first.classes):
                raise ValueError("members must share one class set")
            if len(m.bin_edges) != len(first.bin_edges) or not all(
                np.array_equal(a, b) for a, b in zip(m.bin_edges, first.bin_edges)
            ):
                raise ValueError("members must share one set of bin edges")

    @property
    def k(self) -> int:
        return len(self.members)

    @property
    def classes(self) -> np.ndarray:
        return self.members[0].classes

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return predict_bagged(self, features)[1]

    def predict_label(self, features: np.ndarray) -> np.ndarray:
        return predict_bagged(self, features)[0]


def stratified_kfold(
    labels: Sequence, k: int = 5, seed: int = 0
) -> np.ndarray:
    """Per-sample fold indices, class-stratified and shuffled by seed.

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
    loss: Optional[LossSpec] = None,
    k: int = 5,
) -> BaggedModel:
    """Train k members on complementary stratified folds.

    Member j trains on its folds != j rows of one binning of all the rows,
    with fold j for early stopping. Member seeds derive from params.seed
    by seed-sequence spawning so the members differ but the whole ensemble
    is reproducible.
    """
    features, labels = _checked_rows(features, labels)
    assignment = stratified_kfold(labels, k=k, seed=params.seed)
    children = np.random.SeedSequence(params.seed).spawn(k)
    binned = bin_features(features, params.max_bins)
    members: List[BoostedModel] = []
    for j in range(k):
        hold = assignment == j
        member_params = replace(
            params, seed=int(children[j].generate_state(1)[0])
        )
        members.append(
            _fit(
                BinnedMatrix(binned.codes[~hold], binned.edges),
                labels[~hold],
                (binned.codes[hold], labels[hold]),
                member_params,
                loss,
            )
        )
    return BaggedModel(members=members, fold_assignment=assignment, seed=params.seed)


def predict_bagged(
    model: BaggedModel, features: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(labels, probabilities) under the probability-mean aggregation.

    Probabilities are the arithmetic mean of the member outputs; the label
    is the argmax, lowest class index on ties.
    """
    codes = apply_bins(features, model.members[0].bin_edges)
    probs = sum(softmax(_scores(m, codes, m.best_iteration)) for m in model.members)
    probs /= model.k
    labels = model.classes[np.argmax(probs, axis=1)]
    return labels, probs


def bagged_to_dict(model: BaggedModel) -> dict:
    """JSON-ready ensemble: the shared edges once and one body per member."""
    doc = new_document(MODEL_TYPE, model.members[0].bin_edges)
    doc["seed"] = int(model.seed)
    doc["fold_assignment"] = model.fold_assignment.tolist()
    doc["member_bodies"] = [member_to_dict(m) for m in model.members]
    return doc


def save_bagged(model: BaggedModel, directory: Union[str, os.PathLike]) -> None:
    """Write the ensemble to directory/model.json in one atomic write."""
    os.makedirs(directory, exist_ok=True)
    write_document(os.path.join(directory, "model.json"), bagged_to_dict(model))


def bagged_from_dict(doc: dict) -> BaggedModel:
    """Ensemble from a document written by bagged_to_dict."""
    edges = open_document(doc, MODEL_TYPE)
    if not {"member_bodies", "seed", "fold_assignment"} <= doc.keys():
        raise ModelFormatError("document lacks member_bodies, seed or fold_assignment")
    return BaggedModel(
        members=[member_from_dict(body, edges) for body in doc["member_bodies"]],
        fold_assignment=np.asarray(doc["fold_assignment"], dtype=np.int64),
        seed=int(doc["seed"]),
    )


def load_bagged(directory: Union[str, os.PathLike]) -> BaggedModel:
    """Read an ensemble written by save_bagged."""
    return bagged_from_dict(read_document(os.path.join(directory, "model.json")))
