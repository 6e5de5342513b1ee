"""Versioned JSON persistence for boosted models; the only module that knows model.json.

A model document holds a header (format_version, model_type) and the bin
edges. A single model (MODEL_TYPE) adds its body, every other model field,
at the top level; a bagged ensemble (BAGGED_TYPE) adds its seed,
fold_assignment and one body per member in member_bodies. model_to_dict
writes either kind, model_from_dict reads either, and readers ignore other
keys, such as a saved plan's standardization. Leaf values include the
learning rate, so a model is its init scores plus a sum of trees.
The reader refuses trees that prediction could not walk, naming the key
path. Floats keep repr-level precision, so a round trip reproduces
predictions bit for bit. Other format versions, earlier ones included,
are rejected. Files are replaced atomically (write_atomic).
"""
from __future__ import annotations

import dataclasses
import json
import os
import uuid
from typing import Tuple, Union

import numpy as np

from .booster import BaggedModel, BoostedModel, TrainParams
from .tree import Tree

FORMAT_VERSION = 4
MODEL_TYPE = "boosted_trees_multiclass"
BAGGED_TYPE = "bagged_ensemble"

Model = Union[BoostedModel, BaggedModel]


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


def _check_tree(tree: Tree, n_features: int, where: str) -> None:
    """Raise ModelFormatError unless prediction can walk tree to a leaf.

    Nodes are numbered as grow_tree appends them: a split's children come
    after it, which rules out cycles, and before the tree's end. A split
    feature indexes the bin edges; a leaf holds -1 in feature, left and
    right.
    """
    n = tree.feature.size
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    if n == 0 or any(a.shape != (n,) for a in arrays):
        raise ModelFormatError(f"{where}: node arrays must be 1-D, non-empty and of one length")
    split = tree.feature != -1
    bad = {"feature": split & ((tree.feature < 0) | (tree.feature >= n_features))}
    for key in ("left", "right"):
        child = getattr(tree, key)
        bad[key] = np.where(split, (child <= np.arange(n)) | (child >= n), child != -1)
    for key, rows in bad.items():
        if rows.any():
            i = int(np.argmax(rows))
            rule = (
                f"a split feature must be below the {n_features} bin-edge columns"
                if key == "feature"
                else f"a split's children must lie after it and before node {n}, a leaf's be -1"
            )
            raise ModelFormatError(f"{where}.{key}[{i}] is {getattr(tree, key)[i]}: {rule}")


def _member_to_dict(model: BoostedModel) -> dict:
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


def _member_from_dict(
    obj: dict, bin_edges: Tuple[np.ndarray, ...], prefix: str = ""
) -> BoostedModel:
    """Model from a body written by _member_to_dict and its bin edges.

    prefix starts the key path in every error, as member_bodies[m]. does.
    """
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
        where = f" in {prefix.rstrip('.')}" if prefix else ""
        raise ModelFormatError(f"malformed model document{where}: {exc}") from exc
    n_classes = len(model.classes)
    for key in ("init_score", "class_weights"):
        if getattr(model, key).shape != (n_classes,):
            raise ModelFormatError(f"{prefix}{key} must hold one entry per class, {n_classes}")
    for r, rnd in enumerate(model.trees):
        if len(rnd) != n_classes:
            raise ModelFormatError(f"{prefix}trees[{r}] must hold one tree per class, {n_classes}")
        for c, tree in enumerate(rnd):
            _check_tree(tree, len(bin_edges), f"{prefix}trees[{r}][{c}]")
    if model.best_iteration < 0 or model.best_iteration > model.n_rounds:
        raise ModelFormatError(f"{prefix}best_iteration outside the stored rounds")
    return model


def model_to_dict(model: Model) -> dict:
    """JSON-ready document of a single boosted model or a bagged ensemble."""
    if isinstance(model, BaggedModel):
        body = {
            "model_type": BAGGED_TYPE,
            "seed": int(model.seed),
            "fold_assignment": model.fold_assignment.tolist(),
            "member_bodies": [_member_to_dict(m) for m in model.members],
        }
    else:
        body = {"model_type": MODEL_TYPE, **_member_to_dict(model)}
    edges = [e.tolist() for e in model.bin_edges]
    return {"format_version": FORMAT_VERSION, "bin_edges": edges, **body}


def model_from_dict(doc: dict) -> Model:
    """The model, of either kind, of a document written by model_to_dict."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format_version {version!r}; expected {FORMAT_VERSION}"
        )
    model_type = doc.get("model_type")
    if model_type not in (MODEL_TYPE, BAGGED_TYPE) or "bin_edges" not in doc:
        raise ModelFormatError(f"not a model document with bin_edges: {model_type!r}")
    edges = tuple(np.asarray(e, dtype=np.float64) for e in doc["bin_edges"])
    if model_type == MODEL_TYPE:
        return _member_from_dict(doc, edges)
    if not {"member_bodies", "seed", "fold_assignment"} <= doc.keys():
        raise ModelFormatError("document lacks member_bodies, seed or fold_assignment")
    bodies = enumerate(doc["member_bodies"])
    members = [_member_from_dict(body, edges, f"member_bodies[{m}].") for m, body in bodies]
    assignment = np.asarray(doc["fold_assignment"], dtype=np.int64)
    return BaggedModel(members, assignment, int(doc["seed"]))


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


def save_model(model: Model, path: Union[str, os.PathLike]) -> None:
    """Write the model, of either kind, as JSON, atomically; identical models give identical bytes."""
    write_document(path, model_to_dict(model))


def _read_model(path: Union[str, os.PathLike]) -> Tuple[Model, dict]:
    """(the model in path, path's whole document); a format error names the file."""
    doc = read_document(path)
    try:
        return model_from_dict(doc), doc
    except ModelFormatError as exc:
        raise ModelFormatError(f"{os.fspath(path)}: {exc}") from exc


def load_model(path: Union[str, os.PathLike]) -> Model:
    """Read a model, of either kind, written by save_model."""
    return _read_model(path)[0]
