"""Quantile binning of feature matrices for histogram-based split search."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

MAX_BINS_LIMIT = 255


@dataclass(frozen=True)
class BinnedMatrix:
    """Per-sample bin codes plus the per-feature edges that produced them.

    Feature j has len(edges[j]) + 1 bins; code b covers the half-open
    interval (edges[b-1], edges[b]] with the outer bins unbounded. Codes
    are uint8, which caps max_bins at 255.
    """

    codes: np.ndarray
    edges: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        if codes.ndim != 2 or codes.dtype != np.uint8:
            raise ValueError("codes must be a 2-D uint8 array")
        if codes.shape[1] != len(self.edges):
            raise ValueError("one edge array per feature is required")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "edges", tuple(self.edges))

    @property
    def n_samples(self) -> int:
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]


def bin_features(features: np.ndarray, max_bins: int = 255) -> BinnedMatrix:
    """Quantile-bin every feature into at most max_bins bins.

    Distinct values fewer than max_bins each get their own bin (edges at
    midpoints); otherwise edges are taken at evenly spaced quantiles, with
    duplicate quantiles collapsed. Codes are monotone in the raw value and
    reproducible from the stored edges. Features must be finite. One sort
    of all columns counts their distinct values, and one call takes the
    quantiles of every column that needs them.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("features must be a 2-D array with >= 1 sample")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite: no NaN or infinity")
    if not 2 <= max_bins <= MAX_BINS_LIMIT:
        raise ValueError(f"max_bins must lie in 2..{MAX_BINS_LIMIT}")
    ordered = np.sort(x, axis=0)
    n_distinct = 1 + np.count_nonzero(ordered[1:] != ordered[:-1], axis=0)
    del ordered
    quantiled = np.flatnonzero(n_distinct > max_bins)
    # the quantiles of the halved columns, doubled back: halving is exact but
    # for subnormals, and the interpolation's b - a of halves cannot overflow
    # near the float maximum; the halves are a copy, which quantile may
    # partition in place
    quantiles = 2.0 * np.quantile(
        x[:, quantiled] * 0.5, np.arange(1, max_bins) / max_bins, axis=0, overwrite_input=True
    )
    edges = [None] * x.shape[1]
    for j, column in zip(quantiled, quantiles.T):
        edges[j] = np.unique(column)
    for j in np.flatnonzero(n_distinct <= max_bins):
        unique = np.unique(x[:, j])
        # halved before the sum, which cannot overflow near the float maximum
        edges[j] = unique[:-1] / 2.0 + unique[1:] / 2.0
    return BinnedMatrix(apply_bins(x, edges), tuple(edges))


def apply_bins(features: np.ndarray, edges: Sequence[np.ndarray]) -> np.ndarray:
    """Map raw features to bin codes using stored edges; features must be
    finite."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(edges):
        raise ValueError(f"features of shape {x.shape} do not match {len(edges)} edge arrays")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite: no NaN or infinity")
    codes = np.empty(x.shape, dtype=np.uint8)
    for j, e in enumerate(edges):
        codes[:, j] = np.searchsorted(e, x[:, j], side="left").astype(np.uint8)
    return codes
