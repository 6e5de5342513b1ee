"""Class-weighted softmax cross-entropy objective for multiclass boosting.

The loss over N samples and M classes is

    L = -(1/N) * sum_i sum_c lambda_c * y_ic * log(p_ic)

where p is the row-wise softmax of the raw scores and lambda_c up-weights
a configured set of hard classes: lambda_c = k * exp(1 - f_c) for c in the
hard set (f_c the class frequency in the training data), 1 otherwise.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

HESS_FLOOR = 1e-6


@dataclass(frozen=True)
class LossSpec:
    """Configuration of the weighted objective.

    gain is the multiplier k; hard_classes holds original class labels.
    An empty hard set gives the plain unweighted cross-entropy.
    """

    gain: float = 1.5
    hard_classes: frozenset = frozenset()

    def __post_init__(self) -> None:
        if self.gain <= 0:
            raise ValueError("gain must be > 0")
        object.__setattr__(
            self, "hard_classes", frozenset(int(c) for c in self.hard_classes)
        )

    def weights_for(self, labels: Sequence[int], classes: np.ndarray) -> np.ndarray:
        """Per-class weight vector aligned with the given class order."""
        wmap = compute_class_weights(
            labels, self.gain, self.hard_classes, classes=classes
        )
        return np.array([wmap[int(c)] for c in classes], dtype=np.float64)


def compute_class_weights(
    labels: Sequence[int],
    k: float = 1.5,
    hard_classes: Iterable[int] = (),
    classes: Sequence[int] | None = None,
) -> Dict[int, float]:
    """lambda_c per class: k * exp(1 - f_c) for hard classes, else 1.

    f_c is the frequency of class c among the given labels. A hard class
    absent from the labels gets f_c = 0 (with a warning).
    """
    y = np.asarray(labels)
    if y.size == 0:
        raise ValueError("labels must be non-empty")
    if k <= 0:
        raise ValueError("k must be > 0")
    hard = {int(c) for c in hard_classes}
    if classes is None:
        class_list = [int(c) for c in np.unique(y)]
    else:
        class_list = [int(c) for c in classes]
    out: Dict[int, float] = {}
    for c in class_list:
        if c in hard:
            count = int((y == c).sum())
            if count == 0:
                warnings.warn(
                    f"hard class {c} is absent from the labels; using f=0",
                    RuntimeWarning,
                    stacklevel=2,
                )
            freq = count / y.size
            out[c] = float(k * np.exp(1.0 - freq))
        else:
            out[c] = 1.0
    missing = hard - set(class_list)
    for c in sorted(missing):
        warnings.warn(
            f"hard class {c} is not among the model classes; ignored",
            RuntimeWarning,
            stacklevel=2,
        )
    return out


def softmax(raw_scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large scores."""
    raw = np.asarray(raw_scores, dtype=np.float64)
    shifted = raw - raw.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def grad_hess(
    raw_scores: np.ndarray,
    labels: Sequence[int],
    class_weights: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradient and diagonal Hessian of the weighted cross-entropy.

    labels are encoded class indices (column positions in raw_scores).
    For sample i with true class c: grad[i, j] = lambda_c * (p[i, j] - [j == c])
    and hess[i, j] = lambda_c * p[i, j] * (1 - p[i, j]), floored at 1e-6.
    """
    raw = np.asarray(raw_scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    w = np.asarray(class_weights, dtype=np.float64)
    if raw.ndim != 2 or y.shape != (raw.shape[0],):
        raise ValueError("raw_scores must be (N, M) with one label per row")
    if w.shape != (raw.shape[1],):
        raise ValueError("one class weight per column is required")
    p = softmax(raw)
    grad = p.copy()
    grad[np.arange(raw.shape[0]), y] -= 1.0
    sample_w = w[y][:, None]
    grad *= sample_w
    hess = np.maximum(sample_w * p * (1.0 - p), HESS_FLOOR)
    return grad, hess


def weighted_cross_entropy(
    raw_scores: np.ndarray,
    labels: Sequence[int],
    class_weights: Sequence[float],
) -> float:
    """Mean weighted cross-entropy of raw scores against encoded labels."""
    raw = np.asarray(raw_scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    w = np.asarray(class_weights, dtype=np.float64)
    p = softmax(raw)
    picked = np.clip(p[np.arange(raw.shape[0]), y], 1e-300, None)
    return float(-(w[y] * np.log(picked)).mean())
