"""Versioned JSON persistence for boosted models; the only module that knows model.json.

A model document holds a header (format_version, model_type) and the bin
edges. A single model (MODEL_TYPE) adds its body, every other model field,
at the top level; a bagged ensemble (BAGGED_TYPE) adds its seed,
fold_assignment and one body per member in member_bodies. model_to_dict
writes either kind, model_from_dict reads either, and readers ignore other
keys, such as a saved plan's standardization. Leaf values include the
learning rate, so a model is its init scores plus a sum of trees.
The reader refuses, naming the key path, a value that does not convert,
an integer field (a tree's node arrays, classes, best_iteration, the
integer params, fold_assignment, seed) that holds a fractional or
non-finite number, a bool or a string, a float field (init_score,
class_weights, bin_edges, a tree's values, the float params) that holds
a bool or a string, a tree that prediction could not walk to a leaf or
whose split sends every row one way, a non-finite score, weight or leaf
value, a bin-edge array that holds NaN or decreases, and classes that
are not strictly increasing. Bin edges may tie or be infinite: midpoints
of adjacent floats can round to one value, and midpoints near the float
maximum can overflow. Floats keep repr-level precision, so a round
trip reproduces predictions bit for bit. Other format versions, earlier ones included,
are rejected. Files are replaced atomically (write_atomic).
"""
from __future__ import annotations

import dataclasses
import json
import os
import uuid
from typing import List, Tuple, Union

import numpy as np

from .booster import _FLOAT_PARAMS, _INTEGER_PARAMS, BaggedModel, BoostedModel, TrainParams
from .tree import Tree

FORMAT_VERSION = 4
MODEL_TYPE = "boosted_trees_multiclass"
BAGGED_TYPE = "bagged_ensemble"

Model = Union[BoostedModel, BaggedModel]


class ModelFormatError(ValueError):
    """Raised when a model file is malformed or from an unknown version."""


_NODE_KEYS = ("feature", "threshold", "left", "right", "value")


def _tree_to_dict(tree: Tree) -> dict:
    return {key: getattr(tree, key).tolist() for key in _NODE_KEYS}


def _field(obj, key: str, convert, prefix: str):
    """convert(obj[key]); ModelFormatError naming prefix + key if obj lacks
    the key or its value does not convert."""
    try:
        value = obj[key]
    except (LookupError, TypeError) as exc:
        raise ModelFormatError(f"{prefix}{key} is missing") from exc
    try:
        return convert(value)
    except ModelFormatError:
        raise
    except (TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ModelFormatError(f"{prefix}{key} is malformed: {exc}") from exc


def _refuse(values: np.ndarray, bad: np.ndarray, where: str, rule: str) -> None:
    """Raise ModelFormatError naming the first entry of values that bad marks."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ModelFormatError(f"{where}[{i}] is {values[i]}: {rule}")


def _list_of(dtype):
    """Converter of a JSON list to a 1-D array of dtype."""
    def convert(values) -> np.ndarray:
        array = np.asarray(values, dtype=dtype)
        if array.ndim != 1:
            raise ValueError("not a flat list of numbers")
        return array
    return convert


def _integer(value) -> int:
    """value if it is an integer or an integral float, as an int; a bool, a
    string, a fractional or non-finite float or any other value is refused."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        raise ValueError(f"invalid literal for an integer: {value!r}")
    raise ValueError(f"{value!r} is not an integer")


def _number(value):
    """value if it is an integer or a float, unchanged; a bool, a string or
    any other value is refused."""
    if type(value) in (int, float):
        return value
    raise ValueError(f"{value!r} is not a number")


def _integers(dtype):
    """Converter of a JSON list of integers (as _integer takes them) to a
    1-D array of dtype."""
    to_array = _list_of(dtype)
    return lambda values: to_array([_integer(v) for v in values])


def _numbers(values) -> np.ndarray:
    """A JSON list of numbers (as _number takes them) as a 1-D float64 array."""
    return _list_of(np.float64)([_number(v) for v in values])


def _bin_edges(columns) -> Tuple[np.ndarray, ...]:
    """Every column's bin edges as _numbers; an array that holds NaN or
    decreases is refused, since searchsorted needs sorted edges."""
    edges = tuple(map(_numbers, columns))
    for j, column in enumerate(edges):
        where = f"bin_edges[{j}]"
        _refuse(column, np.isnan(column), where, "bin edges must not be NaN")
        _refuse(
            column, np.r_[False, column[1:] < column[:-1]], where,
            "bin edges must be non-decreasing",
        )
    return edges


def _tree_from_dict(obj: dict, prefix: str) -> Tree:
    nodes = _integers(np.int32)
    return Tree(
        *(_field(obj, key, nodes, prefix) for key in _NODE_KEYS[:4]),
        value=_field(obj, "value", _numbers, prefix),
    )


def _params_from_dict(obj: dict, prefix: str) -> TrainParams:
    """TrainParams of a saved params object; its integer fields are read by
    _integer and its float fields by _number, and an error names
    params.<field>."""
    values = dict(obj)
    for names, convert in ((_INTEGER_PARAMS, _integer), (_FLOAT_PARAMS, _number)):
        for name in names:
            if name in values:
                values[name] = _field(values, name, convert, f"{prefix}params.")
    return TrainParams(**values)


def _check_trees(
    rounds: List[List[Tree]], n_edges: np.ndarray, n_classes: int, prefix: str
) -> None:
    """Raise ModelFormatError unless prediction can walk every tree to a finite leaf.

    Each round holds n_classes trees; n_edges holds each feature's bin-edge
    count. Nodes are numbered as grow_tree appends them: a split's children
    come after it, which rules out cycles, and before the tree's end. A
    split's feature indexes the bin edges and its threshold is a bin that
    leaves rows on both sides (0 <= threshold < n_edges[feature]); a leaf
    holds -1 in feature, threshold, left and right. Every value is finite.
    Each rule runs once over the nodes of all trees, which keeps loading
    fast; its error names the first tree and node that breaks it.
    """
    for r, rnd in enumerate(rounds):
        if len(rnd) != n_classes:
            raise ModelFormatError(f"{prefix}trees[{r}] must hold one tree per class, {n_classes}")
        for c, tree in enumerate(rnd):
            n = tree.feature.size
            if n == 0 or any(getattr(tree, key).shape != (n,) for key in _NODE_KEYS):
                raise ModelFormatError(
                    f"{prefix}trees[{r}][{c}]: node arrays must be 1-D, non-empty and of one length"
                )
    trees = [tree for rnd in rounds for tree in rnd]
    if not trees:
        return
    nodes = {key: np.concatenate([getattr(t, key) for t in trees]) for key in _NODE_KEYS}
    sizes = np.array([t.feature.size for t in trees])
    ends = np.cumsum(sizes)
    local = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)  # index within its tree
    tree_size = np.repeat(sizes, sizes)

    def refuse(key: str, bad: np.ndarray, rule: str) -> None:
        if bad.any():
            k = int(np.searchsorted(ends, np.argmax(bad), side="right"))
            r, c = divmod(k, n_classes)
            span = slice(ends[k] - sizes[k], ends[k])
            where = f"{prefix}trees[{r}][{c}].{key}"
            _refuse(nodes[key][span], bad[span], where, rule.format(n=sizes[k]))

    feature, threshold = nodes["feature"], nodes["threshold"]
    split = feature != -1
    n_features = n_edges.size
    refuse(
        "feature", split & ((feature < 0) | (feature >= n_features)),
        f"a split feature must be below the {n_features} bin-edge columns",
    )
    limit = n_edges[np.where(split, feature, 0)] if n_features else 0
    refuse(
        "threshold",
        np.where(split, (threshold < 0) | (threshold >= limit), threshold != -1),
        "a split's threshold must be at least 0 and below its feature's edge count, a leaf's be -1",
    )
    for key in ("left", "right"):
        child = nodes[key]
        refuse(
            key, np.where(split, (child <= local) | (child >= tree_size), child != -1),
            "a split's children must lie after it and before node {n}, a leaf's be -1",
        )
    refuse("value", ~np.isfinite(nodes["value"]), "values must be finite")


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
    def read(key: str, convert):
        return _field(obj, key, convert, prefix)

    def trees(rounds) -> list:
        return [
            [_tree_from_dict(t, f"{prefix}trees[{r}][{c}].") for c, t in enumerate(rnd)]
            for r, rnd in enumerate(rounds)
        ]

    model = BoostedModel(
        classes=read("classes", _integers(np.int64)),
        init_score=read("init_score", _numbers),
        trees=read("trees", trees),
        bin_edges=bin_edges,
        class_weights=read("class_weights", _numbers),
        best_iteration=read("best_iteration", _integer),
        params=read("params", lambda v: _params_from_dict(v, prefix)),
        history=(
            read("history", lambda v: {k: list(h) for k, h in v.items()})
            if "history" in obj else {}
        ),
    )
    classes = model.classes
    n_classes = classes.size
    _refuse(
        classes, np.r_[False, classes[1:] <= classes[:-1]],
        f"{prefix}classes", "classes must be strictly increasing",
    )
    for key in ("init_score", "class_weights"):
        values = getattr(model, key)
        if values.shape != (n_classes,):
            raise ModelFormatError(f"{prefix}{key} must hold one entry per class, {n_classes}")
        _refuse(values, ~np.isfinite(values), f"{prefix}{key}", "values must be finite")
    n_edges = np.array([e.size for e in bin_edges], dtype=np.int64)
    _check_trees(model.trees, n_edges, n_classes, prefix)
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
    edges = _field(doc, "bin_edges", _bin_edges, "")
    if model_type == MODEL_TYPE:
        return _member_from_dict(doc, edges)
    members = _field(doc, "member_bodies", lambda bodies: [
        _member_from_dict(body, edges, f"member_bodies[{m}].") for m, body in enumerate(bodies)
    ], "")
    assignment = _field(doc, "fold_assignment", _integers(np.int64), "")
    seed = _field(doc, "seed", _integer, "")
    try:
        return BaggedModel(members, assignment, seed)
    except ValueError as exc:
        raise ModelFormatError(f"member_bodies: {exc}") from exc


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
