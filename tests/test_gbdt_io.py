"""Load-time checks of model.json: every malformed value is a ModelFormatError."""
from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semgkit.ensemble import load_bagged, train_bagged
from semgkit.gbdt import ModelFormatError, TrainParams, load_model, train
from semgkit.gbdt.io import model_from_dict, model_to_dict


def blobs(n_per_class=40, n_classes=3, n_features=4, seed=29):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 4.0, size=(n_classes, n_features))
    labels = np.repeat(np.arange(n_classes), n_per_class)
    features = centers[labels] + rng.standard_normal((labels.size, n_features))
    return features, labels


@functools.lru_cache(maxsize=None)
def saved(kind: str) -> str:
    """JSON text of a small trained model: "single" or "bagged"."""
    features, labels = blobs()
    params = TrainParams(max_rounds=2, min_data_in_leaf=5)
    if kind == "single":
        model = train(features, labels, params=params)
    else:
        model = train_bagged(features, labels, params=params, k=2)
    return json.dumps(model_to_dict(model))


def leaf(tree: dict) -> int:
    return tree["feature"].index(-1)


def probe(doc: dict, tmp_path):
    """The ModelFormatError of loading doc from a file; its text must name the file."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: ")
    return str(err.value)


# (edit of a single-model document, start of the error after the file name)
MALFORMED = {
    "string-feature": (
        lambda d: d["trees"][0][0]["feature"].__setitem__(0, "a"),
        "trees[0][0].feature is malformed: invalid literal",
    ),
    "child-2**40": (
        lambda d: d["trees"][1][2]["left"].__setitem__(0, 2**40),
        "trees[1][2].left is malformed: Python integer 1099511627776 out of bounds",
    ),
    "string-best-iteration": (
        lambda d: d.__setitem__("best_iteration", "x"),
        "best_iteration is malformed: invalid literal",
    ),
    "num-leaves-1": (
        lambda d: d["params"].__setitem__("num_leaves", 1),
        "params is malformed: num_leaves must be at least 2",
    ),
    "history-list": (
        lambda d: d.__setitem__("history", [1]),
        "history is malformed: ",
    ),
}

# edits that loaded before the reader checked bins, finiteness and class
# order; {leaf} is the first leaf of the first tree
UNUSABLE = {
    "threshold-200": (
        lambda d: d["trees"][0][0]["threshold"].__setitem__(0, 200),
        "trees[0][0].threshold[0] is 200: a split's threshold must be at least 0 "
        "and below its feature's edge count",
    ),
    "threshold-minus-5": (
        lambda d: d["trees"][0][0]["threshold"].__setitem__(0, -5),
        "trees[0][0].threshold[0] is -5: a split's threshold",
    ),
    "threshold-at-leaf": (
        lambda d: d["trees"][0][0]["threshold"].__setitem__(leaf(d["trees"][0][0]), 3),
        "trees[0][0].threshold[{leaf}] is 3: ",
    ),
    "nan-leaf-value": (
        lambda d: d["trees"][0][0]["value"].__setitem__(leaf(d["trees"][0][0]), math.nan),
        "trees[0][0].value[{leaf}] is nan: values must be finite",
    ),
    "nan-class-weight": (
        lambda d: d["class_weights"].__setitem__(2, math.nan),
        "class_weights[2] is nan: values must be finite",
    ),
    "infinite-init-score": (
        lambda d: d["init_score"].__setitem__(0, math.inf),
        "init_score[0] is inf: values must be finite",
    ),
    "classes-descending": (
        lambda d: d.__setitem__("classes", [3, 2, 1]),
        "classes[1] is 2: classes must be strictly increasing",
    ),
    "classes-repeated": (
        lambda d: d.__setitem__("classes", [1, 1, 3]),
        "classes[1] is 1: classes must be strictly increasing",
    ),
}


class TestMalformedValues:
    """A value that does not convert names its key path, not a bare error."""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_single_model(self, tmp_path, name):
        edit, message = MALFORMED[name]
        doc = json.loads(saved("single"))
        edit(doc)
        assert probe(doc, tmp_path).startswith(f"{tmp_path / 'model.json'}: {message}")

    def test_bagged_member_names_its_body(self, tmp_path):
        doc = json.loads(saved("bagged"))
        doc["member_bodies"][1]["trees"][0][0]["right"][0] = 2**40
        save_dir = tmp_path / "bagged"
        save_dir.mkdir()
        path = save_dir / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as err:
            load_bagged(save_dir)
        assert str(err.value).startswith(
            f"{path}: member_bodies[1].trees[0][0].right is malformed: "
        )

    def test_members_with_other_classes(self, tmp_path):
        doc = json.loads(saved("bagged"))
        doc["member_bodies"][1]["classes"] = [0, 1, 5]
        assert "member_bodies: members must share one class set" in probe(doc, tmp_path)


class TestUnusableValues:
    """Values that convert but leave a split, a score or the classes unusable."""

    @pytest.mark.parametrize("name", sorted(UNUSABLE))
    def test_single_model(self, tmp_path, name):
        edit, message = UNUSABLE[name]
        doc = json.loads(saved("single"))
        assert doc["trees"][0][0]["feature"][0] >= 0  # the first tree splits its root
        message = message.format(leaf=leaf(doc["trees"][0][0]))
        edit(doc)
        assert probe(doc, tmp_path).startswith(f"{tmp_path / 'model.json'}: {message}")


# every scalar the mutation test may set, by field
MUTATED_FIELDS = ("trees", "init_score", "class_weights", "classes", "best_iteration", "params")
DRAWN = st.one_of(
    st.integers(-3, 300),
    st.sampled_from([2**31, 2**40, 2**63, 2**64, -(2**40)]),
    st.sampled_from([-0.5, math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
)


def scalar_paths(value, path=()):
    """Key paths of every scalar inside value."""
    if isinstance(value, dict):
        return [p for k in sorted(value) for p in scalar_paths(value[k], path + (k,))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in scalar_paths(v, path + (i,))]
    return [path]


@functools.lru_cache(maxsize=None)
def paths_of(kind: str, field: str):
    doc = json.loads(saved(kind))
    bodies = doc["member_bodies"] if kind == "bagged" else [doc]
    prefixes = [("member_bodies", m) for m in range(len(bodies))] if kind == "bagged" else [()]
    return tuple(
        prefix + path
        for prefix, body in zip(prefixes, bodies)
        for path in scalar_paths(body[field], (field,))
    )


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(["single", "bagged"]))
    path = draw(st.sampled_from(paths_of(kind, draw(st.sampled_from(MUTATED_FIELDS)))))
    return kind, path, draw(DRAWN)


class TestMutatedDocuments:
    @settings(max_examples=300, deadline=None)
    @given(mutation=mutations())
    def test_refused_or_predicts_distributions(self, mutation):
        kind, path, value = mutation
        doc = json.loads(saved(kind))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        try:
            model = model_from_dict(doc)
        except ModelFormatError:
            return
        features, _ = blobs()
        proba = model.predict_proba(features)
        assert np.isfinite(proba).all()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.isin(model.predict_label(features), model.classes).all()


def set_params(key, value):
    return lambda d: d["params"].__setitem__(key, value)


# integer fields set to a fraction, a bool or a string, which the reader once
# truncated or took (start of the error after the file name)
NON_INTEGERS = {
    "threshold-2.7": (
        lambda d: d["trees"][0][0]["threshold"].__setitem__(0, 2.7),
        "trees[0][0].threshold is malformed: 2.7 is not an integer",
    ),
    "left-minus-half": (
        lambda d: d["trees"][0][0]["left"].__setitem__(0, -0.5),
        "trees[0][0].left is malformed: -0.5 is not an integer",
    ),
    "feature-true": (
        lambda d: d["trees"][0][1]["feature"].__setitem__(0, True),
        "trees[0][1].feature is malformed: True is not an integer",
    ),
    "right-numeric-string": (
        lambda d: d["trees"][1][0]["right"].__setitem__(0, "2"),
        "trees[1][0].right is malformed: invalid literal for an integer: '2'",
    ),
    "best-iteration-1.9": (
        lambda d: d.__setitem__("best_iteration", 1.9),
        "best_iteration is malformed: 1.9 is not an integer",
    ),
    "best-iteration-true": (
        lambda d: d.__setitem__("best_iteration", True),
        "best_iteration is malformed: True is not an integer",
    ),
    "classes-fraction": (
        lambda d: d["classes"].__setitem__(1, 1.5),
        "classes is malformed: 1.5 is not an integer",
    ),
    "params-seed-string": (
        set_params("seed", "x"),
        "params.seed is malformed: invalid literal for an integer: 'x'",
    ),
    "params-seed-nan": (
        set_params("seed", math.nan), "params.seed is malformed: nan is not an integer"
    ),
    "params-num-leaves-2.5": (
        set_params("num_leaves", 2.5),
        "params.num_leaves is malformed: 2.5 is not an integer",
    ),
    "params-max-rounds-false": (
        set_params("max_rounds", False),
        "params.max_rounds is malformed: False is not an integer",
    ),
    "params-seed-negative": (
        set_params("seed", -1), "params is malformed: seed must be non-negative"
    ),
}


class TestNonIntegers:
    """An integer field holding a fraction, a bool or a string is refused with its key path."""

    @pytest.mark.parametrize("name", sorted(NON_INTEGERS))
    def test_single_model(self, tmp_path, name):
        edit, message = NON_INTEGERS[name]
        doc = json.loads(saved("single"))
        edit(doc)
        assert probe(doc, tmp_path).startswith(f"{tmp_path / 'model.json'}: {message}")

    @pytest.mark.parametrize("key, value, message", [
        ("seed", 1.5, "seed is malformed: 1.5 is not an integer"),
        ("seed", True, "seed is malformed: True is not an integer"),
        ("fold_assignment", [0.5], "fold_assignment is malformed: 0.5 is not an integer"),
    ])
    def test_bagged_fields(self, tmp_path, key, value, message):
        doc = json.loads(saved("bagged"))
        doc[key] = value if key == "seed" else value + doc[key][1:]
        assert probe(doc, tmp_path).startswith(f"{tmp_path / 'model.json'}: {message}")

    def test_bagged_member_params_name_their_body(self, tmp_path):
        doc = json.loads(saved("bagged"))
        doc["member_bodies"][1]["params"]["seed"] = "x"
        assert probe(doc, tmp_path).startswith(
            f"{tmp_path / 'model.json'}: member_bodies[1].params.seed is malformed: "
        )

    def test_integral_floats_load_as_integers(self):
        doc = json.loads(saved("single"))
        want = model_from_dict(doc)
        for tree in doc["trees"][0]:
            tree["threshold"] = [float(t) for t in tree["threshold"]]
        doc["best_iteration"] = float(doc["best_iteration"])
        doc["params"]["num_leaves"] = float(doc["params"]["num_leaves"])
        got = model_from_dict(doc)
        assert got.params == want.params and got.best_iteration == want.best_iteration
        assert all(
            np.array_equal(a.threshold, b.threshold) for a, b in zip(got.trees[0], want.trees[0])
        )

    @pytest.mark.parametrize("field, value", [
        ("num_leaves", 2.5), ("max_rounds", True), ("seed", "x"), ("seed", math.nan), ("seed", -1),
    ])
    def test_train_params_refuse_them(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainParams(**{field: value})


FLOAT_PARAMS = ("learning_rate", "l2_regularization", "feature_fraction",
                "bagging_fraction", "top_rate", "other_rate")


class TestFloatParams:
    """A float param holding a bool or a string is refused: by TrainParams, and
    by the reader with its key path."""

    @pytest.mark.parametrize("field", FLOAT_PARAMS)
    @pytest.mark.parametrize("value", [True, False, "0.5"])
    def test_train_params_refuse_them(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number, not {value!r}"):
            TrainParams(**{field: value})

    @pytest.mark.parametrize("kind, body", [("single", ""), ("bagged", "member_bodies[1].")])
    @pytest.mark.parametrize("field", FLOAT_PARAMS)
    def test_reader_names_the_key(self, tmp_path, kind, body, field):
        doc = json.loads(saved(kind))
        params = doc["params"] if kind == "single" else doc["member_bodies"][1]["params"]
        params[field] = True
        assert probe(doc, tmp_path).startswith(
            f"{tmp_path / 'model.json'}: {body}params.{field} is malformed: True is not a number"
        )

    def test_integers_load_unchanged(self):
        doc = json.loads(saved("single"))
        doc["params"]["feature_fraction"] = 1
        assert model_from_dict(doc).params.feature_fraction == 1


INTEGER_PARAMS = ("num_leaves", "max_rounds", "min_data_in_leaf", "max_bins",
                  "early_stop_rounds", "seed")
NON_INTEGER = st.one_of(
    st.floats().filter(lambda v: not v.is_integer()),
    st.booleans(),
    st.text(max_size=3),
)


@functools.lru_cache(maxsize=None)
def integer_paths(kind: str):
    """Key paths of every integer scalar of a saved model, its params' included."""
    doc = json.loads(saved(kind))
    paths, bodies = [], [((), doc)]
    if kind == "bagged":
        paths += [("seed",)] + [("fold_assignment", i) for i in range(len(doc["fold_assignment"]))]
        bodies = [(("member_bodies", m), body) for m, body in enumerate(doc["member_bodies"])]
    for prefix, body in bodies:
        paths += [prefix + ("best_iteration",)]
        paths += [prefix + ("classes", i) for i in range(len(body["classes"]))]
        paths += [prefix + ("params", name) for name in INTEGER_PARAMS]
        paths += [
            prefix + ("trees", r, c, key, i)
            for r, rnd in enumerate(body["trees"])
            for c, tree in enumerate(rnd)
            for key in ("feature", "threshold", "left", "right")
            for i in range(len(tree[key]))
        ]
    return tuple(paths)


@st.composite
def non_integer_edits(draw):
    kind = draw(st.sampled_from(["single", "bagged"]))
    return kind, draw(st.sampled_from(integer_paths(kind))), draw(NON_INTEGER)


class TestNonIntegerDocuments:
    @settings(max_examples=200, deadline=None)
    @given(edit=non_integer_edits())
    def test_every_integer_field_refuses_them(self, edit):
        kind, path, value = edit
        doc = json.loads(saved(kind))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)


# float fields set to a string or a bool, or bin edges that searchsorted
# cannot use, which the reader once took (start of the error after the file
# name); {leaf} is the first leaf of the first tree
NON_NUMBERS = {
    "init-score-string": (
        lambda d: d["init_score"].__setitem__(0, "0.5"),
        "init_score is malformed: '0.5' is not a number",
    ),
    "class-weight-true": (
        lambda d: d["class_weights"].__setitem__(1, True),
        "class_weights is malformed: True is not a number",
    ),
    "bin-edge-string": (
        lambda d: d["bin_edges"][2].__setitem__(0, "1.5"),
        "bin_edges is malformed: '1.5' is not a number",
    ),
    "leaf-value-string": (
        lambda d: d["trees"][0][0]["value"].__setitem__(leaf(d["trees"][0][0]), "0.1"),
        "trees[0][0].value is malformed: '0.1' is not a number",
    ),
    "nan-bin-edge": (
        lambda d: d["bin_edges"][1].__setitem__(3, math.nan),
        "bin_edges[1][3] is nan: bin edges must not be NaN",
    ),
    "descending-bin-edges": (
        lambda d: d["bin_edges"][1].reverse(),
        "bin_edges[1][1] is {second}: bin edges must be non-decreasing",
    ),
}


class TestFloatFields:
    """A float field is read by the number rule of the float params, and bin
    edges must be sorted for searchsorted."""

    @pytest.mark.parametrize("name", sorted(NON_NUMBERS))
    def test_single_model(self, tmp_path, name):
        edit, message = NON_NUMBERS[name]
        doc = json.loads(saved("single"))
        edit(doc)
        message = message.format(second=doc["bin_edges"][1][1])
        assert probe(doc, tmp_path).startswith(f"{tmp_path / 'model.json'}: {message}")

    def test_tied_and_infinite_edges_round_trip(self):
        # bin_features puts edges at midpoints: those of three adjacent floats
        # can round to one value, and those near the float maximum overflow
        doc = json.loads(saved("single"))
        edges = doc["bin_edges"][0]
        edges[0], edges[-1] = -math.inf, math.inf
        edges[2] = edges[1]
        model = model_from_dict(doc)
        assert model.bin_edges[0].tolist() == edges
        assert model_to_dict(model) == doc
        features, _ = blobs()
        want = model_from_dict(json.loads(saved("single"))).predict_raw(features)
        assert np.array_equal(model.predict_raw(features), want)
