"""Versioned JSON persistence for boosted models.

The on-disk form is a single JSON document. Floats are written with
repr-level precision so a save/load round trip reproduces predictions bit
for bit. format_version gates loading; unknown versions are rejected.
Files are replaced atomically (write_atomic), so a reader sees either the
old file or the whole new one.
"""
from __future__ import annotations

import dataclasses
import json
import os
import uuid
from typing import Union

import numpy as np

from .booster import BoostedModel, TrainParams
from .tree import Tree

FORMAT_VERSION = 2


class ModelFormatError(ValueError):
    """Raised when a model file is malformed or from an unknown version."""


def _tree_to_dict(tree: Tree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
    }


def _tree_from_dict(obj: dict) -> Tree:
    return Tree(
        feature=np.asarray(obj["feature"], dtype=np.int32),
        threshold=np.asarray(obj["threshold"], dtype=np.int32),
        left=np.asarray(obj["left"], dtype=np.int32),
        right=np.asarray(obj["right"], dtype=np.int32),
        value=np.asarray(obj["value"], dtype=np.float64),
    )


def model_to_dict(model: BoostedModel) -> dict:
    """JSON-ready dict for one model; shared by file and ensemble IO."""
    return {
        "format_version": FORMAT_VERSION,
        "model_type": "boosted_trees_multiclass",
        "classes": [int(c) for c in model.classes],
        "init_score": model.init_score.tolist(),
        "round_scales": [float(s) for s in model.round_scales],
        "bin_edges": [e.tolist() for e in model.bin_edges],
        "class_weights": model.class_weights.tolist(),
        "best_iteration": int(model.best_iteration),
        "params": dataclasses.asdict(model.params),
        "history": {k: list(v) for k, v in model.history.items()},
        "trees": [[_tree_to_dict(t) for t in rnd] for rnd in model.trees],
    }


def model_from_dict(obj: dict) -> BoostedModel:
    if not isinstance(obj, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format_version {version!r}; expected {FORMAT_VERSION}"
        )
    try:
        params = TrainParams(**obj["params"])
        model = BoostedModel(
            classes=np.asarray(obj["classes"], dtype=np.int64),
            init_score=np.asarray(obj["init_score"], dtype=np.float64),
            trees=[[_tree_from_dict(t) for t in rnd] for rnd in obj["trees"]],
            round_scales=[float(s) for s in obj["round_scales"]],
            bin_edges=tuple(
                np.asarray(e, dtype=np.float64) for e in obj["bin_edges"]
            ),
            class_weights=np.asarray(obj["class_weights"], dtype=np.float64),
            best_iteration=int(obj["best_iteration"]),
            params=params,
            history={k: list(v) for k, v in obj.get("history", {}).items()},
        )
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if model.best_iteration < 0 or model.best_iteration > model.n_rounds:
        raise ModelFormatError("best_iteration outside the stored rounds")
    if len(model.round_scales) != model.n_rounds:
        raise ModelFormatError("round_scales length must match the round count")
    return model


def write_atomic(path: Union[str, os.PathLike], text: str) -> None:
    """Replace path with the UTF-8 text in one step.

    The text goes to a temp file in the same directory whose random name
    ends in .tmp, created exclusively, so concurrent writers never share
    one; os.replace then swaps it in. On any failure the temp file is
    removed and path keeps its previous content, or stays absent.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f"{name}.{uuid.uuid4().hex}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_model(model: BoostedModel, path: Union[str, os.PathLike]) -> None:
    """Write the model as JSON, atomically; identical models give identical bytes."""
    doc = model_to_dict(model)
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    write_atomic(path, text + "\n")


def load_model(path: Union[str, os.PathLike]) -> BoostedModel:
    """Read a model written by save_model."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"not valid JSON: {exc}") from exc
    return model_from_dict(doc)
