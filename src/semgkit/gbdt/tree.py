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
boosting round of 44 rows fills about 40 of 63 bins, one of about 100
rows most of them. _boost codes each round's rows once for all its class
trees. An empty bin adds exactly 0.0 to every prefix sum and repeats the
gain of the bin before it, so the first-occurrence argmax picks the same
(column, cut) either way; a chosen rank is stored as its original bin
code, and leaf totals are summed over the rebuilt dense row, so trees are
bit-identical to a scan of every bin.

All class trees of a round share their root rows, so the coding also makes
the roots' count state once per round (_RowCoding.root_counts, as in
LightGBM's histogram design, Ke et al., NeurIPS 2017): the count plane of
every column, its prefix counts, the count-valid mask (both sides hold at
least min_data_in_leaf rows) and the bin span lo..hi that holds every
valid cut. A root copies its columns' count rows into its histogram, so
it bincounts only gradient and Hessian; it sums them only over bins
0..hi and scores only lo..hi. A root that keeps every column reads the
round's planes themselves. This is exact: counts are integers, prefix
sums are sequential, so truncated ones equal the leading ones, gains are
elementwise, and every cell outside the span is refused anyway, so the
first-occurrence argmax picks the same (column, cut). Child scans cover
every bin.

Stump rounds. A round of n < 3 * min_data_in_leaf rows cannot split a
child: a valid cut leaves at most n - min_data_in_leaf < 2 *
min_data_in_leaf rows on the larger side. So each class tree is its
root's best split or a single leaf, whatever num_leaves is. _grow_round,
which grows every boosting round's class trees, makes the choice: such a
round goes to _grow_stumps, which grows all its trees at once (one pair
of bincounts over bins 0..hi for every class, one running prefix sum, and
gains scored only in the round's count-valid cells, which all classes
share), and any other round to _grow, one class tree at a time. At
min_data_in_leaf 20 a 44-row sample leaves only cuts with 20 to 24 rows
on the left, about a quarter of the cells in lo..hi. The two growers
share one gain computation (_gains), one leaf value (_leaf_row), one
per-tree column draw (_draw_columns), one dense left-side sum
(_left_sums) and one node-row builder (_tree). With the same sequential
prefix sums and the same first-occurrence argmax, their trees are
bit-identical and they leave the rng in the same state.

Prediction. _forest_outputs applies a list of trees, a round's class
trees say, to a bin-code matrix as one forest (the "tree traversal"
layout of Hummingbird, Nakandala et al., OSDI 2020): their nodes in flat
arrays and one gather per tree level over the (row, tree) pairs still at
a split, so a round of stumps costs one column gather. Every round's
trees, in training and in prediction, are applied this way, bit for bit
as Tree's own per-tree walk, which stays as the tests' reference.

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
    counts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stacked (gradient, Hessian, count) histogram, shape (3, F, width).

    flat holds precomputed cell indices rank + width * feature, row-major
    (_RowCoding.columns). counts, if given, is the count plane of these
    rows, which is then copied instead of counted.
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
    if counts is None:
        counts = np.bincount(flat, minlength=size).reshape(n_features, width)
    hist[2] = counts
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


def _gains(
    gl: np.ndarray, hl: np.ndarray, g_total, h_total, l2: float,
    gains: np.ndarray, t1: np.ndarray, t2: np.ndarray,
) -> None:
    """Write the gains of cuts with left sums gl, hl into gains.

    g_total and h_total are the parent's sums: scalars, or one per column
    of gl. t1 and t2 are scratch buffers of gains' shape. A parent with
    H + l2 <= 0 scores 0. Overflow and 0/0 are left as inf and nan, for
    the caller's finite mask. Every split scan computes its gains here,
    so all of them round alike.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h_l2 = np.add(h_total, l2)
        parent = np.where(h_l2 > 0, g_total * g_total / h_l2, 0.0)
        # left term: GL^2 / (HL + l2)
        np.multiply(gl, gl, out=gains)
        np.add(hl, l2, out=t1)
        np.divide(gains, t1, out=gains)
        # right term: (G - GL)^2 / ((H + l2) - HL)
        np.subtract(g_total, gl, out=t2)
        np.multiply(t2, t2, out=t2)
        np.subtract(h_l2, hl, out=t1)
        np.divide(t2, t1, out=t2)
        np.add(gains, t2, out=gains)
        gains -= parent


def _leaf_row(g_sum: float, h_sum: float, l2: float) -> list:
    """The [feature, threshold, left, right, value] node row of a leaf with
    gradient sum g_sum and Hessian sum h_sum: value -G/(H + l2), or 0.0
    where H + l2 <= 0."""
    denom = h_sum + l2
    return [-1, -1, -1, -1, 0.0 if denom <= 0.0 else float(-g_sum / denom)]


def _left_sums(code: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Per-plane sums of a cut's left bins, planes[:, k] the bin of code
    code[k]: the bins are placed at their codes, empty bins included, and
    each plane is summed, as a histogram over every bin would be."""
    dense = np.zeros((planes.shape[0], code[-1] + 1))
    dense[:, code] = planes
    return dense.sum(axis=1)


def _tree(nodes: List[list]) -> Tree:
    """The Tree of [feature, threshold, left, right, value] node rows."""
    columns = list(zip(*nodes))
    return Tree(
        *(np.asarray(column, dtype=np.int32) for column in columns[:4]),
        value=np.asarray(columns[4], dtype=np.float64),
    )


def _best_split(
    hist: np.ndarray,
    totals: Tuple[float, float, int],
    min_data: int,
    l2: float,
    scratch: _SplitScratch,
    window: Optional[Tuple[int, np.ndarray]] = None,
) -> Optional[Tuple[float, int, int]]:
    """(gain, local feature, cut bin) of the best positive-gain split.

    Ties resolve to the lowest feature index, then the lowest bin, via the
    first-occurrence argmax over the feature-major gain matrix. Cutting at
    the last bin leaves the right side empty, which the count constraint
    rejects on its own.

    window, given for a root, is (lo, valid) of _RowCoding.root_counts:
    valid[f, k] tells whether cut lo + k of local feature f leaves at least
    min_data rows on each side, and no cut outside those bins does (valid
    is read, not written). Then only gradient and Hessian are summed, up to
    the window's last bin, and only the window is scored. Prefix sums are
    sequential, so truncated ones equal the leading ones, and every cell
    left out would be refused, so the same (feature, cut) wins.
    """
    g_total, h_total, c_total = totals
    if c_total < 2 * min_data:
        return None
    n_features, width = hist.shape[1:]
    if window is None:
        lo, end, planes = 0, width, 3
    else:
        lo, end, planes = window[0], window[0] + window[1].shape[1], 2
    # scratch buffers viewed as contiguous arrays of this scan's shape
    cum = scratch.cum.ravel()[:planes * n_features * end].reshape(planes, n_features, end)
    np.cumsum(hist[:planes, :, :end], axis=2, out=cum)
    gl, hl = cum[0, :, lo:], cum[1, :, lo:]
    shape, size = gl.shape, gl.size
    gains, t1, t2, valid, mask = (
        buf.ravel()[:size].reshape(shape)
        for buf in (scratch.gains, scratch.t1, scratch.t2, scratch.valid, scratch.mask)
    )

    _gains(gl, hl, g_total, h_total, l2, gains, t1, t2)
    np.isfinite(gains, out=valid)
    if window is None:
        np.greater_equal(cum[2], min_data, out=mask)
        valid &= mask
        np.less_equal(cum[2], c_total - min_data, out=mask)
        valid &= mask
    else:
        valid &= window[1]
    if not valid.any():
        return None
    np.copyto(gains, -np.inf, where=~valid)
    feat, cut = divmod(int(np.argmax(gains)), shape[1])
    gain = float(gains[feat, cut])
    if gain <= 0.0:
        return None
    return gain, feat, lo + cut


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
    min_data is the min_data_in_leaf of every tree grown on these rows.
    """

    ranks: np.ndarray
    codes: np.ndarray
    twins: np.ndarray
    min_data: int

    @property
    def width(self) -> int:
        return self.codes.shape[1]

    def kept(self, drawn: np.ndarray) -> np.ndarray:
        """The drawn columns that can win a split, ascending: the first drawn
        column of each twin group, constant columns left out."""
        groups, first = np.unique(self.twins[drawn], return_index=True)
        return drawn[np.sort(first[groups >= 0])]

    def columns(
        self, kept: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(columns, cells) of the columns kept, as kept() returns them, or
        all_columns if kept is None. cells[i, k] = ranks[i, columns[k]] +
        width * k indexes row i's histogram cell of the k-th column.
        """
        if kept is None:
            return self.all_columns
        cells = self.ranks[:, kept].astype(np.int64)
        cells += np.arange(kept.size) * self.width
        return kept, cells

    @cached_property
    def all_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """columns() of every column that can win a split, made once for
        all trees of a round."""
        return self.columns(self.kept(np.arange(self.ranks.shape[1])))

    @cached_property
    def _root_window(self) -> Tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """(plane row of each column, count plane, lo, count-valid window)
        of all_columns on these rows, made once for all trees of a round."""
        kept, cells = self.all_columns
        row_of = np.zeros(self.twins.size, dtype=np.intp)
        row_of[kept] = np.arange(kept.size)
        return (row_of,) + _count_window(cells, kept.size, self.width, self.min_data)

    def root_counts(
        self, kept: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, int, np.ndarray]:
        """(counts, lo, valid) of a root over the columns kept, as columns()
        returns them, or over all_columns if kept is None: their count
        plane and _best_split's window.

        A kept column's rows are those of its twin, which all_columns keeps
        and whose codes on these rows are the same. For all_columns the
        round's own planes are returned, to be read, not written.
        """
        _, counts, lo, valid = self._root_window
        if kept is None:
            return counts, lo, valid
        rows = self.plane_rows(kept)
        return counts[rows], lo, valid[rows]

    def plane_rows(self, kept: np.ndarray) -> np.ndarray:
        """Each kept column's row in all_columns and the round's planes."""
        return self._root_window[0][self.twins[kept]]


def _count_window(
    cells: np.ndarray, n_features: int, width: int, min_data: int
) -> Tuple[np.ndarray, int, np.ndarray]:
    """(count plane, lo, valid) of the rows whose histogram cells are cells.

    valid[f, k] tells whether cut lo + k of column f leaves at least
    min_data rows on each side; lo and valid's width are the narrowest bin
    span that holds every such cut.
    """
    n = cells.shape[0]
    counts = np.bincount(cells.ravel(), minlength=n_features * width)
    counts = counts.reshape(n_features, width)
    below = np.cumsum(counts, axis=1)
    valid = (below >= min_data) & (below <= n - min_data)
    cuts = np.flatnonzero(valid.any(axis=0))
    lo, end = (int(cuts[0]), int(cuts[-1]) + 1) if cuts.size else (0, 0)
    return counts.astype(np.float64), lo, valid[:, lo:end]


def _code_rows(codes: np.ndarray, twins: np.ndarray, min_data: int) -> _RowCoding:
    """_RowCoding of a (rows, columns) uint8 bin-code matrix, its twins and
    the min_data_in_leaf of the trees to grow on it."""
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
    return _RowCoding(rank_of[slot], back, np.where(n_codes > 1, twins, -1), min_data)


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
    return _grow(
        _code_rows(binned.codes, twins, params.min_data_in_leaf), g, h, params, rng
    )


def _draw_columns(
    coding: _RowCoding, params, rng: np.random.Generator
) -> Optional[np.ndarray]:
    """One tree's feature subsample: the kept columns of a draw of
    ceil(feature_fraction * columns) of all columns, or None, with no rng
    call, when feature_fraction is 1 and the tree keeps all_columns."""
    if params.feature_fraction >= 1.0:
        return None
    n_features = coding.ranks.shape[1]
    n_sel = max(1, _ceil_frac(params.feature_fraction, n_features))
    return coding.kept(np.sort(rng.choice(n_features, size=n_sel, replace=False)))


def _grow_round(
    coding: _RowCoding, grad: np.ndarray, hess: np.ndarray, params,
    rng: np.random.Generator,
) -> List[Tree]:
    """The class trees of one boosting round on coded rows, in class order:
    column c of the (rows, classes) float64 grad and hess is class c's.

    A round of fewer than 3 * min_data rows cannot split a child (Stump
    rounds, in the module docstring), so _grow_stumps grows its trees at
    once; any other round grows them one by one with _grow. Both give the same
    trees and leave the rng in the same state.
    """
    if coding.ranks.shape[0] < 3 * coding.min_data:
        return _grow_stumps(coding, grad, hess, params, rng)
    return [
        _grow(coding, grad[:, c], hess[:, c], params, rng) for c in range(grad.shape[1])
    ]


def _grow(
    coding: _RowCoding, g: np.ndarray, h: np.ndarray, params, rng: np.random.Generator
) -> Tree:
    """grow_tree on coded rows, with float64 gradient and Hessian; the
    rows' coding fixes min_data_in_leaf."""
    n = coding.ranks.shape[0]
    l2 = params.l2_regularization
    min_data = coding.min_data
    width = coding.width

    kept = _draw_columns(coding, params, rng)
    feat_sel, cells = coding.columns(kept)
    root_counts, lo, valid = coding.root_counts(kept)
    f_sel = feat_sel.size
    scratch = _SplitScratch(f_sel, width)

    # one [feature, threshold, left, right, value] row per node
    nodes: List[list] = []
    # per queued split: (-gain, node, local feature, cut, rows, histogram, totals)
    heap: List[tuple] = []

    def add_leaf(
        rows: np.ndarray,
        hist: Optional[np.ndarray],
        totals: Tuple[float, float, int],
        window: Optional[Tuple[int, np.ndarray]] = None,
    ) -> None:
        """Append a leaf and queue its best split, if hist is given and has one."""
        node = len(nodes)
        nodes.append(_leaf_row(totals[0], totals[1], l2))
        cand = (
            None if hist is None
            else _best_split(hist, totals, min_data, l2, scratch, window)
        )
        if cand is not None:
            heapq.heappush(heap, (-cand[0], node, cand[1], cand[2], rows, hist, totals))

    # the root's counts and count-valid cuts are the round's (root_counts)
    root_hist = _histograms(cells, g, h, f_sel, width, root_counts)
    add_leaf(np.arange(n), root_hist, (float(g.sum()), float(h.sum()), n), (lo, valid))
    n_leaves = 1
    while heap and n_leaves < params.num_leaves:
        _neg_gain, node, feat_local, cut, rows, hist, totals = heapq.heappop(heap)
        # the cells of local feature k start at k * width
        go_left = cells[rows, feat_local] <= feat_local * width + cut
        left_rows = rows[go_left]
        right_rows = rows[~go_left]
        column = int(feat_sel[feat_local])
        code = coding.codes[column, :cut + 1]
        g_left, h_left, c_left = _left_sums(code, hist[:, feat_local, :cut + 1])
        left_totals = (float(g_left), float(h_left), int(c_left))
        right_totals = (
            totals[0] - left_totals[0],
            totals[1] - left_totals[1],
            totals[2] - left_totals[2],
        )
        nodes[node] = [column, int(code[-1]), len(nodes), len(nodes) + 1, 0.0]
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

    return _tree(nodes)


def _grow_stumps(
    coding: _RowCoding, g: np.ndarray, h: np.ndarray, params, rng: np.random.Generator
) -> List[Tree]:
    """_grow of every class column of g and h, in class order, on rows too
    few for any child to split: fewer than 3 * min_data_in_leaf.

    A valid cut leaves at most n - min_data < 2 * min_data rows on the
    larger side, so _grow gives neither child a histogram, and each tree is
    its root's best split or a single leaf, whatever num_leaves is. The
    classes' columns are drawn first, in class order, as _grow draws them.
    One bincount histograms gradient and Hessian of every class over
    all_columns in bins 0..hi, bin-major; one running sum over those bins
    gives cumsum's prefix sums for all of them, and gains are scored only
    in the round's count-valid cells (root_counts), which every class
    shares. Each class takes the first-occurrence argmax over its kept
    columns in their local order; gains, leaf totals and leaf values are
    those of _grow, so every tree is bit-identical to _grow's.
    """
    n_classes = g.shape[1]
    l2 = params.l2_regularization
    columns = coding.all_columns[0]
    f_all = columns.size
    _, lo, valid = coding.root_counts()
    kept = [_draw_columns(coding, params, rng) for _ in range(n_classes)]
    # class-major gradients and Hessians; their row sums are _grow's g.sum()
    # and h.sum() of each class
    by_class = np.ascontiguousarray(np.concatenate([g, h], axis=1).T)
    g_total, h_total = np.split(by_class.sum(axis=1), 2)

    # the count-valid cells as (row of all_columns, cut), cuts ascending
    cell_row, cell_cut = divmod(np.flatnonzero(valid), max(valid.shape[1], 1))
    cell_cut += lo
    splits: List[Optional[Tuple[int, int, int]]] = [None] * n_classes
    if cell_row.size:
        end = lo + valid.shape[1]
        # histogram cells (bin, gradient or Hessian, class, row of
        # all_columns), each filled in row order as _histograms fills it
        ranks = coding.ranks[:, columns].ravel()
        entry = np.flatnonzero(ranks < end)
        row, col = divmod(entry, f_all)
        cells = ranks[entry].astype(np.intp) * (2 * n_classes * f_all) + col
        cells = (cells + (np.arange(2 * n_classes) * f_all)[:, None]).ravel()
        hist = np.bincount(
            cells, weights=np.take(by_class, row, axis=1).ravel(),
            minlength=end * 2 * n_classes * f_all,
        ).reshape(end, 2, n_classes, f_all)
        # cumsum's sequential prefix sums, a bin at a time
        # (np.cumsum(axis=0) gives these bits but ran ~4x slower on (40, 2, 8, 300))
        cum = hist.copy()
        for b in range(1, end):
            cum[b] += cum[b - 1]
        gl, hl = (cum[cell_cut, plane, :, cell_row] for plane in (0, 1))
        gains, t1, t2 = (np.empty_like(gl) for _ in range(3))
        _gains(gl, hl, g_total, h_total, l2, gains, t1, t2)
        gains[~np.isfinite(gains)] = -np.inf
        if kept[0] is None:
            best = [(i, int(columns[cell_row[i]])) for i in np.argmax(gains, axis=0)]
        else:
            best = []
            for c, class_kept in enumerate(kept):
                local = np.full(f_all, -1)
                local[coding.plane_rows(class_kept)] = np.arange(class_kept.size)
                mine = np.flatnonzero(local[cell_row] >= 0)
                # a stable sort by local column keeps each column's cuts ascending
                order = mine[np.argsort(local[cell_row[mine]], kind="stable")]
                i = order[np.argmax(gains[order, c])] if order.size else None
                best.append((i, None if i is None else int(class_kept[local[cell_row[i]]])))
        for c, (i, column) in enumerate(best):
            if i is not None and gains[i, c] > 0.0:
                splits[c] = (column, int(cell_row[i]), int(cell_cut[i]))

    trees = []
    for c, split in enumerate(splits):
        g_sum, h_sum = float(g_total[c]), float(h_total[c])
        if split is None:
            trees.append(_tree([_leaf_row(g_sum, h_sum, l2)]))
            continue
        column, hist_row, cut = split
        code = coding.codes[column, :cut + 1]
        g_left, h_left = (
            float(total) for total in _left_sums(code, hist[:cut + 1, :, c, hist_row].T)
        )
        trees.append(_tree([
            [column, int(code[-1]), 1, 2, 0.0],
            _leaf_row(g_left, h_left, l2),
            _leaf_row(g_sum - g_left, h_sum - h_left, l2),
        ]))
    return trees


def _forest_outputs(trees: List[Tree], codes: np.ndarray) -> np.ndarray:
    """(rows, trees) leaf values of trees on a bin-code matrix: column t
    holds the leaf value of trees[t] that each row reaches.

    The trees' nodes are concatenated into flat arrays, each tree's child
    indices offset by its start, and every (row, tree) pair starts at its
    tree's root. A leaf points both children at itself, so the first level
    steps every pair with one gather of the roots' columns; each later
    level steps only the pairs still at a split. Every child comes after
    its parent (as growth appends nodes and io._check_trees requires), so
    the walk ends.
    """
    sizes = np.array([tree.feature.size for tree in trees])
    start = np.cumsum(sizes) - sizes
    offset = np.repeat(start, sizes)
    feature = np.concatenate([tree.feature for tree in trees]).astype(np.intp)
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left for tree in trees]) + offset
    right = np.concatenate([tree.right for tree in trees]) + offset
    value = np.concatenate([tree.value for tree in trees])
    split = feature >= 0
    own = np.flatnonzero(~split)
    feature[own] = 0
    left[own] = right[own] = own

    node = np.where(
        np.take(codes, feature[start], axis=1) <= threshold[start],
        left[start], right[start],
    )
    flat = node.ravel()
    pairs = np.flatnonzero(split[flat])
    while pairs.size:
        at = flat[pairs]
        go_left = codes[pairs // len(trees), feature[at]] <= threshold[at]
        at = np.where(go_left, left[at], right[at])
        flat[pairs] = at
        pairs = pairs[split[at]]
    return value[flat].reshape(node.shape)
