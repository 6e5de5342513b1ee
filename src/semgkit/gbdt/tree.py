"""Leaf-wise decision tree growth over histogram-binned features.

Trees split on bin codes: a sample goes left when code <= threshold. Growth
is best-first: the leaf whose best split has the largest gain is split
next, until num_leaves is reached or no split has positive gain. A leaf,
the root and each split's two children alike, is added, scanned for its
best split and queued in one step. Gains and leaf values use the
second-order formulas

    gain = G_L^2/(H_L + l2) + G_R^2/(H_R + l2) - G^2/(H + l2)
    leaf value = -G/(H + l2)

with per-bin histogram sums of the gradient and Hessian. Sibling
histograms are derived by subtracting the smaller child's histogram from
the parent's; a split whose children both hold fewer than
2 * min_data_in_leaf rows, so that neither can be split again, makes no
child histogram at all. Histograms are stacked (gradient, Hessian, count)
in one array, and the split scan reuses preallocated buffers; both matter
for training speed.

Histograms span only the bins the rows occupy. A _RowCoding replaces each
row's bin code by its rank among the codes present in its column, and
histograms are as wide as the most such codes in any column: a sampled
boosting round of 44 rows fills about 40 of 63 bins. _boost codes each
round's rows once for all its class trees. An empty bin adds exactly 0.0
to every prefix sum and repeats the gain of the bin before it, so the
first-occurrence argmax picks the same (column, cut) either way; a chosen
rank is stored as its original bin code, and leaf totals are summed over
the rebuilt dense row, so trees are bit-identical to a scan of every bin.

Columns that can never win a split get no histogram and no scan (as
LightGBM drops single-bin features when it builds a Dataset). A column
constant on the rows has all its rows in one bin, so every cut leaves a
side empty. A column whose codes equal those of an earlier column has the
same histogram, and the first-occurrence argmax of the scan picks the
earlier one. column_twins lists both kinds once per row set.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .binning import BinnedMatrix
from .sampling import _ceil_frac


@dataclass
class Tree:
    """Array-of-nodes tree; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Leaf values for every row of a bin-code matrix."""
        n = codes.shape[0]
        out = np.empty(n, dtype=np.float64)
        stack: List[Tuple[int, np.ndarray]] = [(0, np.arange(n))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            feat = self.feature[node]
            if feat < 0:
                out[rows] = self.value[node]
                continue
            go_left = codes[rows, feat] <= self.threshold[node]
            stack.append((int(self.left[node]), rows[go_left]))
            stack.append((int(self.right[node]), rows[~go_left]))
        return out


def _histograms(
    flat: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    n_features: int,
    width: int,
) -> np.ndarray:
    """Stacked (gradient, Hessian, count) histogram, shape (3, F, width).

    flat holds precomputed cell indices rank + width * feature, row-major
    (_RowCoding.columns).
    """
    size = n_features * width
    hist = np.empty((3, n_features, width))
    flat = flat.ravel()
    hist[0] = np.bincount(
        flat, weights=np.repeat(grad, n_features), minlength=size
    ).reshape(n_features, width)
    hist[1] = np.bincount(
        flat, weights=np.repeat(hess, n_features), minlength=size
    ).reshape(n_features, width)
    hist[2] = np.bincount(flat, minlength=size).reshape(n_features, width)
    return hist


class _SplitScratch:
    """Reusable buffers for the split scans of one tree."""

    def __init__(self, n_features: int, width: int) -> None:
        shape = (n_features, width)
        self.cum = np.empty((3,) + shape)
        self.gains = np.empty(shape)
        self.t1 = np.empty(shape)
        self.t2 = np.empty(shape)
        self.valid = np.empty(shape, dtype=bool)
        self.mask = np.empty(shape, dtype=bool)


def _best_split(
    hist: np.ndarray,
    totals: Tuple[float, float, int],
    min_data: int,
    l2: float,
    scratch: _SplitScratch,
) -> Optional[Tuple[float, int, int]]:
    """(gain, local feature, cut bin) of the best positive-gain split.

    Ties resolve to the lowest feature index, then the lowest bin, via the
    first-occurrence argmax over the feature-major gain matrix. Cutting at
    the last bin leaves the right side empty, which the count constraint
    rejects on its own.
    """
    g_total, h_total, c_total = totals
    if c_total < 2 * min_data:
        return None
    width = hist.shape[2]
    cum = scratch.cum
    np.cumsum(hist, axis=2, out=cum)
    gl, hl, cl = cum[0], cum[1], cum[2]
    gains, t1, t2 = scratch.gains, scratch.t1, scratch.t2

    with np.errstate(divide="ignore", invalid="ignore"):
        parent = g_total * g_total / (h_total + l2) if h_total + l2 > 0 else 0.0
        # left term: GL^2 / (HL + l2)
        np.multiply(gl, gl, out=gains)
        np.add(hl, l2, out=t1)
        np.divide(gains, t1, out=gains)
        # right term: (G - GL)^2 / ((H + l2) - HL)
        np.subtract(g_total, gl, out=t2)
        np.multiply(t2, t2, out=t2)
        np.subtract(h_total + l2, hl, out=t1)
        np.divide(t2, t1, out=t2)
        np.add(gains, t2, out=gains)
        gains -= parent

    valid, mask = scratch.valid, scratch.mask
    np.greater_equal(cl, min_data, out=valid)
    np.less_equal(cl, c_total - min_data, out=mask)
    valid &= mask
    np.isfinite(gains, out=mask)
    valid &= mask
    if not valid.any():
        return None
    np.copyto(gains, -np.inf, where=~valid)
    flat_idx = int(np.argmax(gains))
    feat, cut = divmod(flat_idx, width)
    gain = float(gains[feat, cut])
    if gain <= 0.0:
        return None
    return gain, feat, cut


def column_twins(codes: np.ndarray) -> np.ndarray:
    """Per column of a bin-code matrix: -1 if it is constant, else the lowest
    index of a column with the same codes (its own index if none is lower)."""
    _, first, group = np.unique(
        codes.T, axis=0, return_index=True, return_inverse=True
    )
    twins = first[group.ravel()]
    twins[(codes == codes[:1]).all(axis=0)] = -1
    return twins


@dataclass(frozen=True)
class _RowCoding:
    """Bin codes of one row set, recoded to the codes present in each column.

    ranks[i, f] is the rank of row i's code among the distinct codes of
    column f on these rows, and codes[f, r] the code of rank r, so
    ranks[i, f] <= r exactly when the code is <= codes[f, r]. width, the
    most distinct codes of any column, sizes every histogram grown on these
    rows. twins is column_twins of these rows or of a row set they were
    taken from, with -1 also for every column constant on these rows.
    """

    ranks: np.ndarray
    codes: np.ndarray
    twins: np.ndarray

    @property
    def width(self) -> int:
        return self.codes.shape[1]

    def columns(self, drawn: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(columns, cells, codes) of the drawn columns that can win a split.

        Those are the first drawn column of each twin group, constant
        columns left out. cells[i, k] = ranks[i, columns[k]] + width * k
        indexes row i's histogram cell of the k-th column, and codes holds
        the columns' rows of self.codes.
        """
        groups, first = np.unique(self.twins[drawn], return_index=True)
        kept = drawn[np.sort(first[groups >= 0])]
        cells = self.ranks[:, kept].astype(np.int64)
        cells += np.arange(kept.size) * self.width
        return kept, cells, self.codes[kept]

    @cached_property
    def all_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """columns() of every column, made once for all trees of a round."""
        return self.columns(np.arange(self.ranks.shape[1]))


def _code_rows(codes: np.ndarray, twins: np.ndarray) -> _RowCoding:
    """_RowCoding of a (rows, columns) uint8 bin-code matrix and its twins."""
    n_features = codes.shape[1]
    span = int(codes.max(initial=0)) + 1
    column = np.arange(n_features)
    slot = codes + column * span
    present = np.zeros((n_features, span), dtype=bool)
    present.ravel()[slot] = True
    n_codes = np.count_nonzero(present, axis=1)
    # present codes column by column, ascending, and the rank of each
    flat = np.flatnonzero(present)
    owner = np.repeat(column, n_codes)
    rank = np.arange(flat.size) - np.repeat(np.cumsum(n_codes) - n_codes, n_codes)
    width = int(n_codes.max(initial=1))
    back = np.zeros((n_features, width), dtype=np.int64)
    back.ravel()[owner * width + rank] = flat - owner * span
    rank_of = np.empty(present.size, dtype=np.uint8)
    rank_of[flat] = rank
    return _RowCoding(rank_of[slot], back, np.where(n_codes > 1, twins, -1))


def grow_tree(
    binned: BinnedMatrix,
    grad: np.ndarray,
    hess: np.ndarray,
    params,
    rng: np.random.Generator,
    twins: Optional[np.ndarray] = None,
) -> Tree:
    """Grow one tree on binned rows with per-row gradient and Hessian.

    params supplies num_leaves, min_data_in_leaf, l2_regularization and
    feature_fraction; the rng drives the per-tree feature subsample, drawn
    from all columns. twins is column_twins of binned's codes, or of a
    larger row set they were taken from (as _boost lists it once per fit);
    it is computed here if not given. Of the drawn columns, a constant one
    and one with a lower drawn twin are neither histogrammed nor scanned,
    which leaves the tree as it would be with them. Histograms span the
    codes present on binned's rows (_RowCoding).
    """
    g = np.asarray(grad, dtype=np.float64)
    h = np.asarray(hess, dtype=np.float64)
    n = binned.n_samples
    if g.shape != (n,) or h.shape != (n,):
        raise ValueError("grad and hess must be 1-D with one entry per row")
    if twins is None:
        twins = column_twins(binned.codes)
    return _grow(_code_rows(binned.codes, twins), g, h, params, rng)


def _grow(
    coding: _RowCoding, g: np.ndarray, h: np.ndarray, params, rng: np.random.Generator
) -> Tree:
    """grow_tree on coded rows, with float64 gradient and Hessian."""
    n, n_features = coding.ranks.shape
    l2 = params.l2_regularization
    min_data = params.min_data_in_leaf
    width = coding.width

    if params.feature_fraction < 1.0:
        n_sel = max(1, _ceil_frac(params.feature_fraction, n_features))
        drawn = np.sort(rng.choice(n_features, size=n_sel, replace=False))
        feat_sel, cells, bin_codes = coding.columns(drawn)
    else:
        feat_sel, cells, bin_codes = coding.all_columns
    f_sel = feat_sel.size
    scratch = _SplitScratch(f_sel, width)

    # one [feature, threshold, left, right, value] row per node
    nodes: List[list] = []
    # per queued split: (-gain, node, local feature, cut, rows, histogram, totals)
    heap: List[tuple] = []

    def add_leaf(
        rows: np.ndarray, hist: Optional[np.ndarray], totals: Tuple[float, float, int]
    ) -> None:
        """Append a leaf and queue its best split, if hist is given and has one."""
        g_total, h_total, _ = totals
        denom = h_total + l2
        node = len(nodes)
        nodes.append([-1, -1, -1, -1, 0.0 if denom <= 0.0 else float(-g_total / denom)])
        cand = None if hist is None else _best_split(hist, totals, min_data, l2, scratch)
        if cand is not None:
            heapq.heappush(heap, (-cand[0], node, cand[1], cand[2], rows, hist, totals))

    root_hist = _histograms(cells, g, h, f_sel, width)
    add_leaf(np.arange(n), root_hist, (float(g.sum()), float(h.sum()), n))
    n_leaves = 1
    while heap and n_leaves < params.num_leaves:
        _neg_gain, node, feat_local, cut, rows, hist, totals = heapq.heappop(heap)
        # the cells of local feature k start at k * width
        go_left = cells[rows, feat_local] <= feat_local * width + cut
        left_rows = rows[go_left]
        right_rows = rows[~go_left]
        # sum the left bins at their codes, empty bins included, as a
        # histogram over every bin would
        code = bin_codes[feat_local, :cut + 1]
        dense = np.zeros((3, code[-1] + 1))
        dense[:, code] = hist[:, feat_local, :cut + 1]
        left_totals = (float(dense[0].sum()), float(dense[1].sum()), int(dense[2].sum()))
        right_totals = (
            totals[0] - left_totals[0],
            totals[1] - left_totals[1],
            totals[2] - left_totals[2],
        )
        nodes[node] = [
            int(feat_sel[feat_local]), int(code[-1]), len(nodes), len(nodes) + 1, 0.0
        ]
        n_leaves += 1
        # neither child can be split when both are this small: no histograms
        left_hist = right_hist = None
        if max(left_rows.size, right_rows.size) >= 2 * min_data:
            small_is_left = left_rows.size <= right_rows.size
            small_rows = left_rows if small_is_left else right_rows
            small_hist = _histograms(
                cells[small_rows], g[small_rows], h[small_rows], f_sel, width
            )
            hist -= small_hist  # parent buffer becomes the larger child
            left_hist, right_hist = (
                (small_hist, hist) if small_is_left else (hist, small_hist)
            )
        add_leaf(left_rows, left_hist, left_totals)
        add_leaf(right_rows, right_hist, right_totals)

    columns = list(zip(*nodes))
    return Tree(
        *(np.asarray(column, dtype=np.int32) for column in columns[:4]),
        value=np.asarray(columns[4], dtype=np.float64),
    )
