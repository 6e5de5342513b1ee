"""Stratified k-fold bagging of boosted models.

Bagging trains k models, member j on folds != j with fold j as its
early-stopping validation set, then averages member probabilities at
prediction time. Stratification deals each class round-robin across folds
so per-class fold counts differ by at most one.
"""
from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .gbdt.booster import BoostedModel, TrainParams, predict_proba, train
from .gbdt.io import (
    FORMAT_VERSION,
    ModelFormatError,
    load_model,
    save_model,
    write_atomic,
)
from .gbdt.objective import LossSpec

MANIFEST_NAME = "manifest.json"


@dataclass
class BaggedModel:
    """k boosted members aggregated by probability averaging."""

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
            if len(m.bin_edges) != len(first.bin_edges):
                raise ValueError("members must share one feature dimension")

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

    Member j uses folds != j for training and fold j for early stopping.
    Member seeds derive from params.seed by seed-sequence spawning so the
    members differ but the whole ensemble is reproducible.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ValueError("features must be 2-D with one label per row")
    assignment = stratified_kfold(labels, k=k, seed=params.seed)
    children = np.random.SeedSequence(params.seed).spawn(k)
    members: List[BoostedModel] = []
    for j in range(k):
        hold = assignment == j
        member_params = replace(
            params, seed=int(children[j].generate_state(1)[0])
        )
        members.append(
            train(
                features[~hold],
                labels[~hold],
                features[hold],
                labels[hold],
                params=member_params,
                loss=loss,
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
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != len(model.members[0].bin_edges):
        raise ValueError("features must be 2-D and match the model width")
    probs = predict_proba(model.members[0], features)
    for member in model.members[1:]:
        probs += predict_proba(member, features)
    probs /= model.k
    labels = model.classes[np.argmax(probs, axis=1)]
    return labels, probs


def save_bagged(model: BaggedModel, directory: Union[str, os.PathLike]) -> None:
    """Persist the ensemble as member files plus a manifest.

    The manifest is removed first and written last, so a save that dies
    part way leaves a directory load_bagged refuses, never a mix of old
    and new members.
    """
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    try:
        os.remove(manifest_path)
    except FileNotFoundError:
        pass
    member_files = [f"member_{j}.json" for j in range(model.k)]
    for name, member in zip(member_files, model.members):
        save_model(member, os.path.join(directory, name))
    manifest = {
        "format_version": FORMAT_VERSION,
        "model_type": "bagged_ensemble",
        "k": model.k,
        "seed": int(model.seed),
        "members": member_files,
        "fold_assignment": model.fold_assignment.tolist(),
    }
    text = json.dumps(manifest, separators=(",", ":"), sort_keys=True)
    write_atomic(manifest_path, text + "\n")


def load_bagged(directory: Union[str, os.PathLike]) -> BaggedModel:
    """Read an ensemble written by save_bagged."""
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"manifest is not valid JSON: {exc}") from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported manifest format_version {manifest.get('format_version')!r}"
        )
    if manifest.get("model_type") != "bagged_ensemble":
        raise ModelFormatError("manifest does not describe a bagged ensemble")
    members = [
        load_model(os.path.join(directory, name)) for name in manifest["members"]
    ]
    return BaggedModel(
        members=members,
        fold_assignment=np.asarray(manifest["fold_assignment"], dtype=np.int64),
        seed=int(manifest["seed"]),
    )
