"""Multiclass gradient boosting with histogram trees.

Each round fits one tree per class on the one-vs-all gradient of the
class-weighted softmax cross-entropy. Each tree's leaf values are shrunk
by the learning rate of the round that grew it, so raw scores are the log
class priors plus a plain sum of tree outputs. Validation accuracy drives
early stopping; prediction replays rounds up to the best validation
round.

One round loop (_boost) grows every model, as one job on arguments its
caller builds. It extends a starting model's first best_iteration rounds:
the no-round class priors of _prior_start for train and each member of
ensemble.train_bagged, a trained base model for transfer.warm_start.
_restart gives binned rows a new prior start, so fits under other
params or loss share one binning.

Early stopping, the one rule of every fit: with validation rows,
history["valid_accuracy"] lists the validation accuracy of the starting
scores (round 0) and then of each grown round. The best round is the
first maximum of that list, so the earliest round wins ties and a later
round must gain strictly to replace it; best_iteration is the starting
model's kept rounds plus the best round. With patience on
(early_stop_rounds > 0), growing stops once early_stop_rounds rounds
have passed since the best round, or once the best accuracy is 1.0; the
test runs before every round, the first included. A later round can
never beat 1.0, so such rounds could not change best_iteration
or any prediction; a model stopped this way holds no rounds after
best_iteration. With patience 0 every round up to max_rounds is grown.
Without validation rows every round is grown and best_iteration is the
final round.
"""
from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .binning import MAX_BINS_LIMIT, apply_bins, bin_features
from .objective import LossSpec, grad_hess, softmax, weighted_cross_entropy
from .sampling import goss_sample
from .tree import Tree, _code_rows, _forest_outputs, _grow_round, column_twins


@dataclass(frozen=True)
class TrainParams:
    """Boosting hyperparameters; defaults suit mid-sized tabular data."""

    learning_rate: float = 0.1
    num_leaves: int = 31
    max_rounds: int = 100
    min_data_in_leaf: int = 20
    l2_regularization: float = 0.0
    feature_fraction: float = 1.0
    bagging_fraction: float = 1.0
    top_rate: float = 1.0
    other_rate: float = 0.0
    max_bins: int = 255
    early_stop_rounds: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _INTEGER_PARAMS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        for name in _FLOAT_PARAMS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, not {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.num_leaves < 2:
            raise ValueError("num_leaves must be at least 2")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.min_data_in_leaf < 1:
            raise ValueError("min_data_in_leaf must be at least 1")
        if self.l2_regularization < 0.0:
            raise ValueError("l2_regularization must be non-negative")
        if not 0.0 < self.feature_fraction <= 1.0:
            raise ValueError("feature_fraction must be in (0, 1]")
        if not 0.0 < self.bagging_fraction <= 1.0:
            raise ValueError("bagging_fraction must be in (0, 1]")
        if not 0.0 <= self.top_rate <= 1.0:
            raise ValueError("top_rate must be in [0, 1]")
        if self.other_rate < 0.0 or self.top_rate + self.other_rate > 1.0 + 1e-12:
            raise ValueError("top_rate + other_rate must not exceed 1")
        if not 2 <= self.max_bins <= MAX_BINS_LIMIT:
            raise ValueError(f"max_bins must be in [2, {MAX_BINS_LIMIT}]")
        if self.early_stop_rounds < 0:
            raise ValueError("early_stop_rounds must be non-negative")

    @property
    def goss_enabled(self) -> bool:
        return self.top_rate < 1.0 or self.other_rate > 0.0


# the TrainParams fields that hold integers, and those that hold numbers
_INTEGER_PARAMS = tuple(f.name for f in fields(TrainParams) if f.type in ("int", int))
_FLOAT_PARAMS = tuple(f.name for f in fields(TrainParams) if f.type in ("float", float))


@dataclass
class BoostedModel:
    """Trained boosting model plus everything needed to reapply it."""

    classes: np.ndarray
    init_score: np.ndarray
    trees: List[List[Tree]]
    bin_edges: Tuple[np.ndarray, ...]
    class_weights: np.ndarray
    best_iteration: int
    params: TrainParams
    history: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def n_classes(self) -> int:
        return int(self.classes.shape[0])

    @property
    def n_rounds(self) -> int:
        return len(self.trees)

    def predict_raw(
        self, features: np.ndarray, n_rounds: Optional[int] = None
    ) -> np.ndarray:
        return predict_raw(self, features, n_rounds)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return predict_proba(self, features)

    def predict_label(self, features: np.ndarray) -> np.ndarray:
        return predict_label(self, features)


@dataclass
class BaggedModel:
    """k boosted members (ensemble.train_bagged's), sharing one set of bin edges,
    averaged by probability."""

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

    @property
    def bin_edges(self) -> Tuple[np.ndarray, ...]:
        return self.members[0].bin_edges

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return predict_bagged(self, features)[1]

    def predict_label(self, features: np.ndarray) -> np.ndarray:
        return predict_bagged(self, features)[0]


def _encode_labels(
    labels: np.ndarray, classes: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Map labels onto 0..M-1 against sorted distinct classes."""
    labels = np.asarray(labels)
    if classes is None:
        classes = np.unique(labels)
    encoded = np.searchsorted(classes, labels)
    bad = (encoded >= classes.shape[0]) | (classes[np.minimum(encoded, classes.shape[0] - 1)] != labels)
    if bad.any():
        raise ValueError(f"labels outside the model classes: {np.unique(labels[bad]).tolist()}")
    return classes, encoded.astype(np.int64)


def _checked_rows(
    features: np.ndarray, labels: np.ndarray, width: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """A row set as (C-contiguous float64 features, labels), checked.

    Features must be finite and 2-D with at least one row and one column,
    labels 1-D with one entry per row, and, when width is given, the
    features width columns wide.
    """
    x = np.ascontiguousarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(
            "features must be a 2-D array with at least one row and one column"
        )
    if not np.isfinite(x).all():
        raise ValueError("features must be finite: no NaN or infinity")
    if y.shape != (x.shape[0],):
        raise ValueError("labels must be 1-D with one entry per row")
    if width is not None and x.shape[1] != width:
        raise ValueError(
            f"feature width {x.shape[1]} does not match the model width {width}"
        )
    return x, y


def _valid_rows(
    valid_features: Optional[np.ndarray],
    valid_labels: Optional[np.ndarray],
    bin_edges: Tuple[np.ndarray, ...],
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Checked validation rows as (bin codes, labels), or None."""
    if (valid_features is None) != (valid_labels is None):
        raise ValueError("valid_features and valid_labels must come together")
    if valid_features is None:
        return None
    vfeat, vlabels = _checked_rows(valid_features, valid_labels, len(bin_edges))
    return apply_bins(vfeat, bin_edges), vlabels


def _scores(model: BoostedModel, codes: np.ndarray, n_rounds: int) -> np.ndarray:
    """Raw scores of binned rows after the first n_rounds rounds.

    Each round's class trees are applied as one forest (_forest_outputs),
    and scores accumulate sequentially in one buffer, one addition per
    (row, class) cell and round, in round order, as _boost adds them. So
    extending a model by more rounds reproduces its prefix scores bit for
    bit.
    """
    raw = np.broadcast_to(model.init_score, (codes.shape[0], model.n_classes)).copy()
    for r in range(n_rounds):
        raw += _forest_outputs(model.trees[r], codes)
    return raw


def _boost(
    start: BoostedModel,
    codes: np.ndarray,
    encoded: np.ndarray,
    valid: Optional[Tuple[np.ndarray, np.ndarray]],
) -> BoostedModel:
    """The boosting round loop of every fit: train, bagged members, warm_start.

    Grows up to start.params.max_rounds rounds onto the first
    start.best_iteration rounds of start, using its bin edges, class
    weights and params. codes are the training rows binned with those
    edges and encoded their class positions; valid is (bin codes, labels)
    of the validation rows or None. Scores start from that prefix and are
    kept in one matrix, the training rows first, then the validation rows.
    A round codes its rows once, grows its class trees on that coding
    (tree._grow_round, which picks how), shrinks their leaves by the
    learning rate and adds them to both row sets in one _forest_outputs
    call.
    """
    params = start.params
    class_weights = start.class_weights
    n = codes.shape[0]
    rng = np.random.default_rng(params.seed)
    # columns that can never win a split on these rows, listed once per fit
    twins = column_twins(codes)
    scored = codes if valid is None else np.concatenate([codes, valid[0]])
    all_raw = _scores(start, scored, start.best_iteration)
    raw, vraw = all_raw[:n], all_raw[n:]

    def valid_accuracy() -> float:
        return float(np.mean(start.classes[np.argmax(vraw, axis=1)] == valid[1]))

    history: Dict[str, List[float]] = {
        "train_loss": [float(weighted_cross_entropy(raw, encoded, class_weights))],
    }
    trees: List[List[Tree]] = []
    if valid is not None:
        accuracy = history["valid_accuracy"] = [valid_accuracy()]

    for _ in range(params.max_rounds):
        if valid is not None and params.early_stop_rounds:
            # the stopping rule of the module docstring; the first maximum is
            # the earliest best round
            best = int(np.argmax(accuracy))
            since_best = len(accuracy) - 1 - best
            if accuracy[best] >= 1.0 or since_best >= params.early_stop_rounds:
                break
        grad, hess = grad_hess(raw, encoded, class_weights)

        # this round's rows and their histogram weights
        if params.goss_enabled:
            idx, weight = goss_sample(grad, params.top_rate, params.other_rate, rng)
        elif params.bagging_fraction < 1.0:
            n_keep = max(1, int(round(params.bagging_fraction * n)))
            idx = np.sort(rng.choice(n, size=n_keep, replace=False))
            weight = np.ones(n_keep)
        else:
            idx, weight = np.arange(n), np.ones(n)
        # one coding of the round's bins serves all its class trees
        coding = _code_rows(codes[idx], twins, params.min_data_in_leaf)
        grown = _grow_round(
            coding, grad[idx] * weight[:, None], hess[idx] * weight[:, None], params, rng
        )
        round_trees = [
            replace(tree, value=params.learning_rate * tree.value) for tree in grown
        ]
        all_raw += _forest_outputs(round_trees, scored)
        trees.append(round_trees)
        history["train_loss"].append(
            float(weighted_cross_entropy(raw, encoded, class_weights))
        )

        if valid is not None:
            accuracy.append(valid_accuracy())

    kept = start.best_iteration
    return replace(
        start,
        trees=list(start.trees[:kept]) + trees,
        best_iteration=kept + (int(np.argmax(accuracy)) if valid is not None else len(trees)),
        history=history,
    )


def train(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    valid_features: Optional[np.ndarray] = None,
    valid_labels: Optional[np.ndarray] = None,
    params: TrainParams = TrainParams(),
    loss: LossSpec = LossSpec(),
) -> BoostedModel:
    """Fit a boosted model; early stop on validation accuracy if given.

    Returns the model with all grown rounds retained; round 0 is the class
    priors. Growing stops, and best_iteration is chosen, by the early
    stopping rule of this module's docstring.
    """
    return _boost(*_train_args(
        train_features, train_labels, valid_features, valid_labels, params, loss
    ))


def _train_args(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    valid_features: Optional[np.ndarray] = None,
    valid_labels: Optional[np.ndarray] = None,
    params: TrainParams = TrainParams(),
    loss: LossSpec = LossSpec(),
) -> Tuple[BoostedModel, np.ndarray, np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]]]:
    """The _boost arguments of train: the rows binned afresh and a prior start."""
    features, labels = _checked_rows(train_features, train_labels)
    binned = bin_features(features, params.max_bins)
    valid = _valid_rows(valid_features, valid_labels, binned.edges)
    start, encoded = _prior_start(binned.edges, labels, params, loss)
    return start, binned.codes, encoded, valid


def _prior_start(
    bin_edges: Tuple[np.ndarray, ...],
    labels: np.ndarray,
    params: TrainParams,
    loss: LossSpec,
) -> Tuple[BoostedModel, np.ndarray]:
    """(a model of no rounds scoring the log class priors of labels, labels encoded)."""
    classes, encoded = _encode_labels(labels)
    if classes.shape[0] < 2:
        raise ValueError("training needs at least two classes")
    # classes come from these labels, so every count is positive
    counts = np.bincount(encoded).astype(np.float64)
    start = BoostedModel(
        classes=classes,
        init_score=np.log(counts / counts.sum()),
        trees=[],
        bin_edges=bin_edges,
        class_weights=loss.weights_for(labels, classes),
        best_iteration=0,
        params=params,
    )
    return start, encoded


def predict_raw(
    model: BoostedModel, features: np.ndarray, n_rounds: Optional[int] = None
) -> np.ndarray:
    """Raw scores after n_rounds rounds (default: best_iteration).

    Extending a model by more rounds reproduces its prefix scores bit for
    bit (see _scores).
    """
    if n_rounds is None:
        n_rounds = model.best_iteration
    if n_rounds < 0 or n_rounds > model.n_rounds:
        raise ValueError(f"n_rounds must be in [0, {model.n_rounds}]")
    return _scores(model, apply_bins(features, model.bin_edges), n_rounds)


def predict_proba(model: BoostedModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities at the best iteration, columns in class order."""
    return softmax(predict_raw(model, features))


def predict_label(model: BoostedModel, features: np.ndarray) -> np.ndarray:
    """Most probable class per row; ties pick the lowest class."""
    raw = predict_raw(model, features)
    return model.classes[np.argmax(raw, axis=1)]


def predict_bagged(
    model: BaggedModel, features: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(labels, probabilities) under the probability-mean aggregation.

    Probabilities are the arithmetic mean of the member outputs; the label
    is the argmax, lowest class index on ties.
    """
    codes = apply_bins(features, model.bin_edges)
    probs = sum(softmax(_scores(m, codes, m.best_iteration)) for m in model.members)
    probs /= model.k
    labels = model.classes[np.argmax(probs, axis=1)]
    return labels, probs


def _per_class_recall(
    pred: np.ndarray, truth: np.ndarray, classes: np.ndarray
) -> np.ndarray:
    """Recall of each class in classes; NaN for a class absent from truth."""
    recalls = np.full(classes.shape[0], np.nan)
    for i, cls in enumerate(classes):
        mask = truth == cls
        if mask.any():
            recalls[i] = float(np.mean(pred[mask] == cls))
    return recalls


def _restart(boost_args: tuple, params: TrainParams, loss: LossSpec) -> tuple:
    """The _boost arguments boost_args with a new prior start under params
    and loss (_prior_start): the binned rows, encoded labels and validation
    rows are kept, so params must bin as boost_args' start did (max_bins)."""
    start, codes, encoded, valid = boost_args
    start = _prior_start(start.bin_edges, start.classes[encoded], params, loss)[0]
    return start, codes, encoded, valid


def _warmup_job(boost_args: tuple, params: TrainParams, warmup_rounds: int = 50) -> tuple:
    """detect_hard_classes' warm-up fit: boost_args restarted as an
    unweighted fit (LossSpec()) of at most warmup_rounds rounds."""
    return _restart(boost_args, replace(params, max_rounds=warmup_rounds), LossSpec())


def _flag_hard_classes(boost_args: tuple, pred: np.ndarray, margin: float = 0.5) -> frozenset:
    """The classes that detect_hard_classes flags, given the labels pred
    that the warm-up fit of the _boost arguments boost_args predicts for
    its validation rows: recall below mean - margin * std."""
    start, _, _, (_, truth) = boost_args
    recalls = _per_class_recall(pred, truth, start.classes)
    if np.isnan(recalls).all():
        warnings.warn("no classes measurable on the validation set", RuntimeWarning)
        return frozenset()
    cutoff = np.nanmean(recalls) - margin * np.nanstd(recalls)
    # a class absent from the validation rows has recall NaN, never below
    return frozenset(start.classes[recalls < cutoff].tolist())


def detect_hard_classes(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    valid_features: np.ndarray,
    valid_labels: np.ndarray,
    params: TrainParams = TrainParams(),
    warmup_rounds: int = 50,
    margin: float = 0.5,
) -> frozenset:
    """Classes whose warm-up recall falls below mean - margin * std.

    Runs a short unweighted training pass (_warmup_job), measures
    per-class recall on the validation set, and flags the stragglers
    (_flag_hard_classes). Classes absent from the validation set are
    skipped.
    """
    boost_args = _warmup_job(_train_args(
        train_features, train_labels, valid_features, valid_labels, params), params, warmup_rounds)
    return _flag_hard_classes(boost_args, _boost(*boost_args).predict_label(valid_features), margin)
