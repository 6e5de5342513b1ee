"""Versioned JSON persistence for boosted models.

A model document holds a header (format_version, model_type), the bin
edges and a member body: every other model field. Leaf values include
the learning rate, so a model is its init scores plus a sum of trees.
A plan saves one model.json: a single model's holds one body, a bagged
ensemble's (ensemble.bagged_to_dict) the shared edges once and a body
per member; readers ignore the standardization key the pipeline adds.
Floats keep repr-level precision, so a round trip reproduces predictions
bit for bit. Other format versions, earlier ones included, are rejected.
Files are replaced atomically (write_atomic).
"""
from __future__ import annotations

import dataclasses
import json
import os
import uuid
from typing import Tuple, Union

import numpy as np

from .booster import BoostedModel, TrainParams
from .tree import Tree

FORMAT_VERSION = 4
MODEL_TYPE = "boosted_trees_multiclass"


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


def new_document(model_type: str, bin_edges: Tuple[np.ndarray, ...]) -> dict:
    """Header and bin edges of a model document; bodies are added to it."""
    return {
        "format_version": FORMAT_VERSION,
        "model_type": model_type,
        "bin_edges": [e.tolist() for e in bin_edges],
    }


def open_document(obj: dict, model_type: str) -> Tuple[np.ndarray, ...]:
    """Check a model document's header; return its bin edges."""
    if not isinstance(obj, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format_version {version!r}; expected {FORMAT_VERSION}"
        )
    if obj.get("model_type") != model_type or "bin_edges" not in obj:
        raise ModelFormatError(
            f"not a {model_type} document with bin_edges: {obj.get('model_type')!r}"
        )
    return tuple(np.asarray(e, dtype=np.float64) for e in obj["bin_edges"])


def member_to_dict(model: BoostedModel) -> dict:
    """JSON-ready body of one model: every field but the bin edges."""
    return {
        "classes": [int(c) for c in model.classes],
        "init_score": model.init_score.tolist(),
        "class_weights": model.class_weights.tolist(),
        "best_iteration": int(model.best_iteration),
        "params": dataclasses.asdict(model.params),
        "history": {k: list(v) for k, v in model.history.items()},
        "trees": [[_tree_to_dict(t) for t in rnd] for rnd in model.trees],
    }


def member_from_dict(obj: dict, bin_edges: Tuple[np.ndarray, ...]) -> BoostedModel:
    """Model from a body written by member_to_dict and its bin edges."""
    try:
        model = BoostedModel(
            classes=np.asarray(obj["classes"], dtype=np.int64),
            init_score=np.asarray(obj["init_score"], dtype=np.float64),
            trees=[[_tree_from_dict(t) for t in rnd] for rnd in obj["trees"]],
            bin_edges=bin_edges,
            class_weights=np.asarray(obj["class_weights"], dtype=np.float64),
            best_iteration=int(obj["best_iteration"]),
            params=TrainParams(**obj["params"]),
            history={k: list(v) for k, v in obj.get("history", {}).items()},
        )
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if model.best_iteration < 0 or model.best_iteration > model.n_rounds:
        raise ModelFormatError("best_iteration outside the stored rounds")
    return model


def model_to_dict(model: BoostedModel) -> dict:
    return {**new_document(MODEL_TYPE, model.bin_edges), **member_to_dict(model)}


def model_from_dict(obj: dict) -> BoostedModel:
    return member_from_dict(obj, open_document(obj, MODEL_TYPE))


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


def write_document(path: Union[str, os.PathLike], doc: dict) -> None:
    """doc as compact, key-sorted JSON, written atomically: equal docs, equal bytes."""
    write_atomic(path, json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")


def read_document(path: Union[str, os.PathLike]) -> dict:
    """The JSON value in path; ModelFormatError if it is not valid JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{os.fspath(path)} is not valid JSON: {exc}") from exc


def save_model(model: BoostedModel, path: Union[str, os.PathLike]) -> None:
    """Write the model as JSON, atomically; identical models give identical bytes."""
    write_document(path, model_to_dict(model))


def load_model(path: Union[str, os.PathLike]) -> BoostedModel:
    """Read a model written by save_model."""
    return model_from_dict(read_document(path))
