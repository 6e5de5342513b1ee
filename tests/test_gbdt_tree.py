"""Histogram tree growth against an exhaustive split-search oracle."""
from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semgkit.gbdt import BinnedMatrix, TrainParams, Tree, bin_features, grow_tree
from semgkit.gbdt import booster, train
from semgkit.gbdt import tree as tree_module
from semgkit.gbdt.sampling import _ceil_frac
from semgkit.gbdt.tree import column_twins


def exhaustive_root_split(codes, grad, hess, min_data, l2):
    """Scan every (feature, cut) pair; ties pick lowest feature then cut.

    Returns (gain, feature, cut) or None when no valid positive-gain split
    exists. Mirrors the documented split objective exactly.
    """
    n, n_features = codes.shape
    g_total = grad.sum()
    h_total = hess.sum()
    parent = g_total**2 / (h_total + l2)
    best = None
    for f in range(n_features):
        for cut in range(int(codes[:, f].max())):
            go_left = codes[:, f] <= cut
            n_left = int(go_left.sum())
            if n_left < min_data or n - n_left < min_data:
                continue
            gl = grad[go_left].sum()
            hl = hess[go_left].sum()
            gain = (
                gl**2 / (hl + l2)
                + (g_total - gl) ** 2 / (h_total - hl + l2)
                - parent
            )
            if gain > 0.0 and (best is None or gain > best[0]):
                best = (gain, f, cut)
    return best


def leaf_assignments(tree: Tree, codes: np.ndarray) -> np.ndarray:
    """Leaf node index reached by every row."""
    out = np.empty(codes.shape[0], dtype=np.int64)
    for i in range(codes.shape[0]):
        node = 0
        while tree.feature[node] >= 0:
            if codes[i, tree.feature[node]] <= tree.threshold[node]:
                node = int(tree.left[node])
            else:
                node = int(tree.right[node])
        out[i] = node
    return out


def random_instance(rng, max_n=32, max_f=4, max_code=6):
    n = int(rng.integers(4, max_n + 1))
    f = int(rng.integers(1, max_f + 1))
    codes = rng.integers(0, max_code, size=(n, f)).astype(np.uint8)
    edges = tuple(
        np.arange(0.5, codes[:, j].max() + 0.5) if codes[:, j].max() > 0
        else np.empty(0)
        for j in range(f)
    )
    grad = rng.normal(0.0, 2.0, size=n)
    hess = rng.uniform(0.1, 2.0, size=n)
    return BinnedMatrix(codes, edges), grad, hess


class TestRootSplitOracle:
    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(0)
        checked_splits = 0
        for _ in range(150):
            binned, grad, hess = random_instance(rng)
            min_data = int(rng.integers(1, 5))
            l2 = float(rng.choice([0.0, 0.1, 1.0]))
            params = TrainParams(num_leaves=2, min_data_in_leaf=min_data,
                                 l2_regularization=l2)
            tree = grow_tree(binned, grad, hess, params, np.random.default_rng(1))
            oracle = exhaustive_root_split(binned.codes, grad, hess, min_data, l2)
            if oracle is None:
                assert tree.feature.shape[0] == 1 and tree.feature[0] == -1
                continue
            gain, feat, cut = oracle
            assert tree.feature[0] >= 0, "oracle found a split the tree missed"
            # recompute the tree's chosen gain for a tolerance comparison
            go_left = binned.codes[:, tree.feature[0]] <= tree.threshold[0]
            gl, hl = grad[go_left].sum(), hess[go_left].sum()
            g, h = grad.sum(), hess.sum()
            tree_gain = (
                gl**2 / (hl + l2)
                + (g - gl) ** 2 / (h - hl + l2)
                - g**2 / (h + l2)
            )
            assert tree_gain == pytest.approx(gain, abs=1e-9)
            # only insist on the exact (feature, cut) away from ties
            runner_up = max(
                (
                    other
                    for other in all_split_gains(binned.codes, grad, hess, min_data, l2)
                    if (other[1], other[2]) != (feat, cut)
                ),
                default=None,
                key=lambda t: t[0],
            )
            if runner_up is None or gain - runner_up[0] > 1e-9:
                assert (int(tree.feature[0]), int(tree.threshold[0])) == (feat, cut)
                checked_splits += 1
        assert checked_splits > 50

    def test_tie_breaks_to_lowest_feature(self):
        rng = np.random.default_rng(2)
        col = rng.integers(0, 4, size=24).astype(np.uint8)
        codes = np.column_stack([col, col])  # identical features tie exactly
        edges = (np.arange(0.5, 3.5), np.arange(0.5, 3.5))
        binned = BinnedMatrix(codes, edges)
        grad = rng.normal(0.0, 1.0, size=24)
        hess = np.ones(24)
        params = TrainParams(num_leaves=2, min_data_in_leaf=1)
        tree = grow_tree(binned, grad, hess, params, np.random.default_rng(0))
        assert tree.feature[0] == 0

    def test_no_split_on_constant_gradient(self):
        # grad proportional to hess makes every split gain exactly zero;
        # 1.25 keeps the histogram sums exact in binary
        codes = np.random.default_rng(3).integers(0, 5, size=(30, 2)).astype(np.uint8)
        binned = BinnedMatrix(codes, (np.arange(0.5, 4.5), np.arange(0.5, 4.5)))
        grad = np.full(30, 1.25)
        hess = np.ones(30)
        params = TrainParams(num_leaves=8, min_data_in_leaf=1)
        tree = grow_tree(binned, grad, hess, params, np.random.default_rng(0))
        assert tree.feature.shape[0] == 1
        assert tree.value[0] == -1.25


class TestGrowth:
    def test_perfect_split_two_leaves(self):
        codes = np.repeat([0, 1], 10).astype(np.uint8)[:, None]
        binned = BinnedMatrix(codes, (np.array([0.5]),))
        grad = np.where(codes[:, 0] == 0, -1.0, 1.0)
        hess = np.ones(20)
        params = TrainParams(num_leaves=4, min_data_in_leaf=1, l2_regularization=0.5)
        tree = grow_tree(binned, grad, hess, params, np.random.default_rng(0))
        assert tree.n_leaves == 2
        assert tree.feature[0] == 0 and tree.threshold[0] == 0
        left_value = tree.value[int(tree.left[0])]
        right_value = tree.value[int(tree.right[0])]
        assert left_value == pytest.approx(10.0 / 10.5)
        assert right_value == pytest.approx(-10.0 / 10.5)

    def test_min_data_in_leaf_honored(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 3))
        binned = bin_features(x, max_bins=32)
        grad = rng.normal(0.0, 1.0, size=200)
        hess = np.ones(200)
        params = TrainParams(num_leaves=16, min_data_in_leaf=15)
        tree = grow_tree(binned, grad, hess, params, np.random.default_rng(0))
        leaves = leaf_assignments(tree, binned.codes)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 15

    def test_num_leaves_cap(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((300, 4))
        binned = bin_features(x, max_bins=64)
        grad = rng.normal(0.0, 1.0, size=300)
        params = TrainParams(num_leaves=7, min_data_in_leaf=1)
        tree = grow_tree(binned, grad, np.ones(300), params, np.random.default_rng(0))
        assert tree.n_leaves <= 7

    def test_leaf_values_match_leaf_sums(self):
        # integer-valued g/h keep histogram subtraction exact, so every
        # leaf value must equal -G/(H + l2) recomputed from its rows
        rng = np.random.default_rng(6)
        x = rng.standard_normal((400, 5))
        binned = bin_features(x, max_bins=16)
        grad = rng.integers(-8, 9, size=400).astype(np.float64)
        hess = rng.integers(1, 5, size=400).astype(np.float64)
        l2 = 1.0
        params = TrainParams(num_leaves=24, min_data_in_leaf=5, l2_regularization=l2)
        tree = grow_tree(binned, grad, hess, params, np.random.default_rng(0))
        assert tree.n_leaves > 4  # the data admits many splits
        leaves = leaf_assignments(tree, binned.codes)
        for leaf in np.unique(leaves):
            rows = leaves == leaf
            expected = -grad[rows].sum() / (hess[rows].sum() + l2)
            assert tree.value[leaf] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_feature_fraction_limits_candidates(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((200, 10))
        binned = bin_features(x, max_bins=16)
        grad = rng.normal(0.0, 1.0, size=200)
        params = TrainParams(num_leaves=2, min_data_in_leaf=1, feature_fraction=0.1)
        used = set()
        for seed in range(20):
            tree = grow_tree(binned, grad, np.ones(200), params,
                             np.random.default_rng(seed))
            if tree.feature[0] >= 0:
                used.add(int(tree.feature[0]))
        assert len(used) > 1  # different draws pick different single features

    def test_subnormal_hessians_overflow_no_gain_silently(self):
        # with l2 = 0, gains G^2 / H overflow to inf; the scan drops them
        # without a RuntimeWarning, which the test settings make an error
        codes = (np.arange(60) % 6).astype(np.uint8)[:, None]
        binned = BinnedMatrix(codes, (np.arange(5.0),))
        grad = np.where(codes[:, 0] < 3, -1.0, 1.0)
        params = TrainParams(num_leaves=4, min_data_in_leaf=5)
        tree = grow_tree(binned, grad, np.full(60, 1e-310), params,
                         np.random.default_rng(0))
        assert tree.n_leaves == 1

    def test_grad_shape_validation(self):
        binned = bin_features(np.zeros((5, 1)) + np.arange(5)[:, None])
        with pytest.raises(ValueError):
            grow_tree(binned, np.zeros(4), np.ones(5), TrainParams(),
                      np.random.default_rng(0))



def interleaved_copies(rng, n=240, k=6):
    """(distinct BinnedMatrix, the same columns with constant columns and
    copies of earlier columns interleaved, index of each distinct column in it)."""
    codes = rng.integers(0, 8, size=(n, k)).astype(np.uint8)
    edges = tuple(np.arange(0.5, 7.5) for _ in range(k))
    # -1 is a constant column; ("copy", j) repeats distinct column j
    layout = [0, -1, 1, ("copy", 0), 2, 3, -1, ("copy", 2), 4, ("copy", 4),
              ("copy", 0), 5, -1]
    columns, where = [], {}
    for item in layout:
        if item == -1:
            columns.append(np.full(n, 3, dtype=np.uint8))
        elif isinstance(item, tuple):
            columns.append(codes[:, item[1]])
        else:
            where[item] = len(columns)
            columns.append(codes[:, item])
    wide = BinnedMatrix(np.stack(columns, axis=1), tuple(edges[0] for _ in columns))
    index = np.array([where[j] for j in range(k)])
    return BinnedMatrix(codes, edges), wide, index


def same_tree(a: Tree, b: Tree) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("feature", "threshold", "left", "right", "value")
    )


class TestSkippedColumns:
    """Constant columns and copies of an earlier column are never scanned."""

    def test_column_twins(self):
        codes = np.array(
            [[1, 1, 0, 1, 2, 1], [2, 2, 0, 2, 1, 2], [3, 3, 0, 1, 2, 3]], dtype=np.uint8
        )
        assert column_twins(codes).tolist() == [0, 0, -1, 3, 4, 0]
        assert column_twins(codes[:1]).tolist() == [-1] * 6

    @pytest.mark.parametrize("seed", range(6))
    def test_tree_equals_the_tree_of_the_distinct_columns(self, seed):
        rng = np.random.default_rng(seed)
        distinct, wide, index = interleaved_copies(rng)
        # dyadic gradients: every histogram sum is exact, and gains tie often
        grad = rng.integers(-16, 17, size=distinct.n_samples) / 8.0
        hess = rng.integers(1, 9, size=distinct.n_samples) / 8.0
        params = TrainParams(num_leaves=8, min_data_in_leaf=5)
        want = grow_tree(distinct, grad, hess, params, np.random.default_rng(seed))
        got = grow_tree(wide, grad, hess, params, np.random.default_rng(seed))
        assert (want.feature >= 0).sum() > 3
        mapped = np.where(want.feature >= 0, index[np.maximum(want.feature, 0)], -1)
        assert np.array_equal(got.feature, mapped)
        assert same_tree(replace(got, feature=want.feature), want)

    @pytest.mark.parametrize("fraction", [1.0, 0.5, 0.2])
    def test_draws_and_trees_equal_a_scan_of_every_drawn_column(self, fraction):
        # twins = arange scans every drawn column: growth without skipping
        params = TrainParams(num_leaves=6, min_data_in_leaf=3, feature_fraction=fraction)
        lone_copies = 0
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            _, wide, _ = interleaved_copies(rng)
            grad = rng.normal(0.0, 1.0, size=wide.n_samples)
            hess = rng.uniform(0.5, 1.5, size=wide.n_samples)
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = grow_tree(wide, grad, hess, params, rng_a)
            want = grow_tree(wide, grad, hess, params, rng_b,
                             twins=np.arange(wide.n_features))
            assert same_tree(got, want)
            assert rng_a.random() == rng_b.random()  # the same draws were made
            # a copy can split only when its twin was not drawn
            twins = column_twins(wide.codes)
            lone_copies += any(twins[f] != f for f in got.feature[got.feature >= 0])
        assert bool(lone_copies) == (fraction < 1.0)

    def test_twins_are_listed_once_per_fit(self, monkeypatch):
        calls = []

        def counted(codes):
            calls.append(codes.shape)
            return column_twins(codes)

        monkeypatch.setattr(booster, "column_twins", counted)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((120, 5))
        y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0)
        model = train(x[:90], y[:90], x[90:], y[90:],
                      params=TrainParams(max_rounds=5, early_stop_rounds=0,
                                         min_data_in_leaf=5))
        assert model.n_rounds == 5
        assert calls == [(90, 5)]


def all_split_gains(codes, grad, hess, min_data, l2):
    """Every valid (gain, feature, cut) triple, for tie inspection."""
    n, n_features = codes.shape
    g_total = grad.sum()
    h_total = hess.sum()
    parent = g_total**2 / (h_total + l2)
    out = []
    for f in range(n_features):
        for cut in range(int(codes[:, f].max())):
            go_left = codes[:, f] <= cut
            n_left = int(go_left.sum())
            if n_left < min_data or n - n_left < min_data:
                continue
            gl = grad[go_left].sum()
            hl = hess[go_left].sum()
            gain = (
                gl**2 / (hl + l2)
                + (g_total - gl) ** 2 / (h_total - hl + l2)
                - parent
            )
            if gain > 0.0:
                out.append((gain, f, cut))
    return out


class TestPredictBinned:
    def test_known_routing(self):
        # root splits feature 0 at code <= 1; right child splits feature 1 at 0
        tree = Tree(
            feature=np.array([0, -1, 1, -1, -1], dtype=np.int32),
            threshold=np.array([1, -1, 0, -1, -1], dtype=np.int32),
            left=np.array([1, -1, 3, -1, -1], dtype=np.int32),
            right=np.array([2, -1, 4, -1, -1], dtype=np.int32),
            value=np.array([0.0, 10.0, 0.0, 20.0, 30.0]),
        )
        codes = np.array(
            [[0, 0], [1, 5], [2, 0], [2, 1], [5, 0]], dtype=np.uint8
        )
        out = tree.predict_binned(codes)
        np.testing.assert_array_equal(out, [10.0, 10.0, 20.0, 30.0, 20.0])

    def test_equality_goes_left(self):
        tree = Tree(
            feature=np.array([0, -1, -1], dtype=np.int32),
            threshold=np.array([3, -1, -1], dtype=np.int32),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, -1.0, 1.0]),
        )
        codes = np.array([[3], [4]], dtype=np.uint8)
        np.testing.assert_array_equal(tree.predict_binned(codes), [-1.0, 1.0])


def forest_of(kinds, rng, n_features=5):
    """One tree per kind: a single leaf for 1, else a grow_tree tree of at
    most that many leaves (a stump for 2) on 200 rows of codes 0..9."""
    codes = rng.integers(0, 10, size=(200, n_features), dtype=np.uint8)
    binned = BinnedMatrix(codes, tuple(np.arange(9.0) for _ in range(n_features)))
    trees = []
    for leaves in kinds:
        if leaves == 1:
            trees.append(Tree(
                *(np.array([-1], dtype=np.int32) for _ in range(4)),
                value=rng.standard_normal(1),
            ))
            continue
        params = TrainParams(num_leaves=leaves, min_data_in_leaf=2)
        trees.append(grow_tree(
            binned, rng.standard_normal(200), rng.uniform(0.5, 2.0, 200), params, rng
        ))
    return trees


class TestForestOutputs:
    """tree._forest_outputs applies a list of trees as one forest; its
    column t is trees[t].predict_binned, byte for byte."""

    @staticmethod
    def check(trees, codes):
        out = tree_module._forest_outputs(trees, codes)
        assert out.shape == (codes.shape[0], len(trees)) and out.dtype == np.float64
        for t, tree in enumerate(trees):
            assert out[:, t].tobytes() == tree.predict_binned(codes).tobytes(), t

    @pytest.mark.parametrize("n_rows", [0, 1, 300])
    @pytest.mark.parametrize("kinds", [
        list(range(2, 32)),  # every num_leaves from 2 to 31
        [2] * 8,  # a round of stumps
        [1] * 3,  # single leaves only
        [1, 31, 2, 1, 4, 2, 17],  # mixed
    ])
    def test_every_column_equals_predict_binned(self, kinds, n_rows):
        rng = np.random.default_rng(len(kinds) + n_rows)
        trees = forest_of(kinds, rng)
        assert [tree.n_leaves for tree in trees] == kinds
        codes = rng.integers(0, 10, size=(n_rows, 5), dtype=np.uint8)
        self.check(trees, codes)

    @settings(max_examples=60, deadline=None)
    @given(
        kinds=st.lists(st.integers(1, 31), min_size=1, max_size=12),
        n_rows=st.sampled_from([0, 1, 2, 97]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_forests(self, kinds, n_rows, seed):
        rng = np.random.default_rng(seed)
        trees = forest_of(kinds, rng)
        self.check(trees, rng.integers(0, 10, size=(n_rows, 5), dtype=np.uint8))


def best_first_reference(codes, grad, hess, num_leaves, min_data, l2):
    """Best-first growth with every leaf's (G, H, count) summed from its own
    rows, no histogram subtraction, and every (column, cut) scanned.

    Gains use _best_split's expression order, ties keep the first (column,
    cut) in column-major order, and the next leaf to split is the one with
    the smallest (-gain, node id), as grow_tree's heap orders them. Returns
    the tree's (feature, threshold, left, right, value) lists.
    """
    feature, threshold, left, right, value = [], [], [], [], []
    width = int(codes.max()) + 1

    def add_leaf(rows):
        for column in (feature, threshold, left, right):
            column.append(-1)
        value.append(float(-grad[rows].sum() / (hess[rows].sum() + l2)))
        return len(feature) - 1

    def best_split(rows):
        g, h, count = grad[rows].sum(), hess[rows].sum(), rows.size
        if count < 2 * min_data:
            return None
        parent = g * g / (h + l2)
        best = None
        for f in range(codes.shape[1]):
            for cut in range(width):
                go_left = rows[codes[rows, f] <= cut]
                if not min_data <= go_left.size <= count - min_data:
                    continue
                gl, hl = grad[go_left].sum(), hess[go_left].sum()
                gain = gl * gl / (hl + l2) + (g - gl) * (g - gl) / ((h + l2) - hl) - parent
                if best is None or gain > best[0]:
                    best = (gain, f, cut)
        return best if best is not None and best[0] > 0.0 else None

    root_rows = np.arange(codes.shape[0])
    rows_of = {add_leaf(root_rows): root_rows}
    candidates = {0: best_split(root_rows)}
    n_leaves = 1
    while n_leaves < num_leaves:
        live = [(-c[0], node) for node, c in candidates.items() if c is not None]
        if not live:
            break
        _, node = min(live)
        _, f, cut = candidates.pop(node)
        rows = rows_of.pop(node)
        go_left = codes[rows, f] <= cut
        children = [(add_leaf(part), part) for part in (rows[go_left], rows[~go_left])]
        feature[node], threshold[node] = f, cut
        left[node], right[node] = children[0][0], children[1][0]
        value[node] = 0.0
        n_leaves += 1
        for child, part in children:
            rows_of[child] = part
            candidates[child] = best_split(part)
    return feature, threshold, left, right, value


@st.composite
def dyadic_instances(draw):
    """(codes, grad, hess, num_leaves, min_data, l2) with exact sums.

    The code matrix holds 1 to 3 random columns, a constant column and a
    copy of the first column, in a drawn order. Gradients are multiples of
    1/8 in [-4, 4] and Hessians in [1/8, 2], so every sum of them, in any
    order, is exact in float64. Some draws append a mirror of the rows,
    gradients negated, with a last column that tells the halves apart:
    once that column splits them, the two leaves' best gains tie, which
    only the heap's node-id order resolves.
    """
    n = draw(st.integers(2, 24))
    n_random = draw(st.integers(1, 3))
    cell = st.integers(0, 4)
    columns = [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(n_random)]
    columns.append([draw(cell)] * n)
    columns.append(list(columns[0]))
    order = draw(st.permutations(range(len(columns))))
    codes = np.array([columns[j] for j in order], dtype=np.uint8).T
    grad = np.array(draw(st.lists(st.integers(-32, 32), min_size=n, max_size=n))) / 8.0
    hess = np.array(draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))) / 8.0
    if draw(st.booleans()):
        halves = np.repeat(np.array([0, 4], dtype=np.uint8), n)[:, None]
        codes = np.hstack([np.vstack([codes, codes]), halves])
        grad, hess = np.concatenate([grad, -grad]), np.concatenate([hess, hess])
    return (
        codes, grad, hess, draw(st.integers(2, 8)), draw(st.integers(1, 4)),
        draw(st.sampled_from([0.0, 0.5, 1.0])),
    )


class TestExactGrowthOracle:
    @settings(max_examples=300, deadline=None)
    @given(instance=dyadic_instances())
    # children of exactly 2 * min_data rows can still split: 4 leaves
    @example(instance=(
        np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8),
        np.array([-2.0, 2.0, -1.0, 1.0]), np.ones(4), 4, 1, 0.0,
    ))
    def test_tree_equals_the_best_first_reference(self, instance):
        codes, grad, hess, num_leaves, min_data, l2 = instance
        binned = BinnedMatrix(codes, tuple(np.arange(0.5, 4.5) for _ in codes.T))
        params = TrainParams(
            num_leaves=num_leaves, min_data_in_leaf=min_data, l2_regularization=l2
        )
        tree = grow_tree(binned, grad, hess, params, np.random.default_rng(0))
        want = best_first_reference(codes, grad, hess, num_leaves, min_data, l2)
        for name, column in zip(("feature", "threshold", "left", "right", "value"), want):
            assert getattr(tree, name).tolist() == column, name


def node_counts(tree: Tree, codes: np.ndarray) -> np.ndarray:
    """Number of rows that pass through every node."""
    counts = np.zeros(tree.feature.shape[0], dtype=np.int64)
    for row in codes:
        node = 0
        counts[node] += 1
        while tree.feature[node] >= 0:
            if row[tree.feature[node]] <= tree.threshold[node]:
                node = int(tree.left[node])
            else:
                node = int(tree.right[node])
            counts[node] += 1
    return counts


class TestSkippedHistograms:
    """A split whose children both hold fewer than 2 * min_data rows makes
    no child histogram: neither child can be split, so none would be read."""

    @staticmethod
    def grow_counted(binned, grad, hess, params):
        calls = []
        histograms = tree_module._histograms

        def counted(*args):
            calls.append(args[0].shape[0])
            return histograms(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_module, "_histograms", counted)
            tree = grow_tree(binned, grad, hess, params, np.random.default_rng(0))
        return tree, calls

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_children_below_twice_min_data_make_no_histogram(self, k):
        # 2 * min_data + k rows split into two halves, both below 2 * min_data
        min_data = 5
        n = 2 * min_data + k
        codes = (np.arange(n) >= n // 2).astype(np.uint8)[:, None]
        binned = BinnedMatrix(codes, (np.array([0.5]),))
        grad = np.where(codes[:, 0] == 0, -1.0, 1.0)
        params = TrainParams(
            num_leaves=4, min_data_in_leaf=min_data, l2_regularization=1.0
        )
        tree, calls = self.grow_counted(binned, grad, np.ones(n), params)
        assert tree.n_leaves == 2
        assert calls == [n]  # the root's alone
        assert tree.value[1] == pytest.approx(n // 2 / (n // 2 + 1.0))

    def test_a_splittable_child_keeps_the_smaller_histogram(self):
        # 30 rows at min_data 5: the right child's 20 rows can split again
        min_data = 5
        codes = np.repeat([0, 1, 2], 10).astype(np.uint8)[:, None]
        binned = BinnedMatrix(codes, (np.array([0.5, 1.5]),))
        grad = np.repeat([-2.0, 1.0, 3.0], 10)
        params = TrainParams(num_leaves=2, min_data_in_leaf=min_data)
        tree, calls = self.grow_counted(binned, grad, np.ones(30), params)
        assert tree.threshold[0] == 0
        assert calls == [30, 10]

    @settings(max_examples=200, deadline=None)
    @given(instance=dyadic_instances())
    def test_one_call_per_root_and_per_split_with_a_splittable_child(self, instance):
        codes, grad, hess, num_leaves, min_data, l2 = instance
        binned = BinnedMatrix(codes, tuple(np.arange(0.5, 4.5) for _ in codes.T))
        params = TrainParams(
            num_leaves=num_leaves, min_data_in_leaf=min_data, l2_regularization=l2
        )
        tree, calls = self.grow_counted(binned, grad, hess, params)
        counts = node_counts(tree, codes)
        splits = np.flatnonzero(tree.feature >= 0)
        larger = np.maximum(counts[tree.left[splits]], counts[tree.right[splits]])
        assert len(calls) == 1 + int(np.sum(larger >= 2 * min_data))


@st.composite
def sparse_bin_instances(draw):
    """(codes, grad, hess, num_leaves, min_data, l2) on 63 bins, each column
    holding only 1 to 4 drawn codes of 0..62, so some are constant on the rows.
    Gradients are dyadic, as in dyadic_instances."""
    n = draw(st.integers(2, 24))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        used = draw(st.lists(st.integers(0, 62), min_size=1, max_size=4, unique=True))
        columns.append(draw(st.lists(st.sampled_from(used), min_size=n, max_size=n)))
    codes = np.array(columns, dtype=np.uint8).T
    grad = np.array(draw(st.lists(st.integers(-32, 32), min_size=n, max_size=n))) / 8.0
    hess = np.array(draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))) / 8.0
    return (
        codes, grad, hess, draw(st.integers(2, 8)), draw(st.integers(1, 4)),
        draw(st.sampled_from([0.0, 0.5, 1.0])),
    )


class TestCompactBins:
    """Histograms span only the codes the rows hold; thresholds stay bin codes."""

    @settings(max_examples=300, deadline=None)
    @given(instance=sparse_bin_instances())
    def test_tree_equals_the_best_first_reference(self, instance):
        codes, grad, hess, num_leaves, min_data, l2 = instance
        binned = BinnedMatrix(codes, tuple(np.arange(0.5, 62.5) for _ in codes.T))
        params = TrainParams(
            num_leaves=num_leaves, min_data_in_leaf=min_data, l2_regularization=l2
        )
        # no column is listed as constant: those constant on the rows are
        # found by the coding of the rows alone
        twins = np.arange(codes.shape[1])
        tree = grow_tree(binned, grad, hess, params, np.random.default_rng(0), twins)
        want = best_first_reference(codes, grad, hess, num_leaves, min_data, l2)
        for name, column in zip(("feature", "threshold", "left", "right", "value"), want):
            assert getattr(tree, name).tolist() == column, name

    def test_round_histograms_are_as_wide_as_the_sample_codes(self, monkeypatch):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((400, 6))
        y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0.5)
        params = TrainParams(max_rounds=6, early_stop_rounds=0, min_data_in_leaf=3,
                             num_leaves=6, top_rate=0.05, other_rate=0.05, max_bins=63)
        start, codes, encoded, valid = booster._train_args(x, y, params=params)
        assert (codes.max(axis=0) == 62).all()  # every column fills 63 bins
        events = []
        goss, histograms = booster.goss_sample, tree_module._histograms

        def sampled(*args):
            out = goss(*args)
            events.append(("round", codes[out[0]]))
            return out

        def counted(*args):
            events.append(("histogram", args[4]))
            return histograms(*args)

        monkeypatch.setattr(booster, "goss_sample", sampled)
        monkeypatch.setattr(tree_module, "_histograms", counted)
        model = booster._boost(start, codes, encoded, valid)
        assert model.n_rounds == 6
        widths, most = [], 0
        for kind, value in events:
            if kind == "round":
                most = max(np.unique(column).size for column in value.T)
            else:
                assert value <= most
                widths.append(value)
        assert len(widths) >= 6 * 3
        assert max(widths) < 63


@st.composite
def round_instances(draw):
    """(codes, grad, hess, num_leaves, min_data, l2, fraction) of one boosting
    round: 2 * min_data to 2 * min_data + 3 rows, so that few cuts leave
    min_data rows on each side and the roots' bin span is narrow, and one
    gradient and Hessian column per class, dyadic as in dyadic_instances.
    Columns hold 1 to 6 drawn codes of 0..62, and a constant column and a
    copy of the first column join them in a drawn order."""
    min_data = draw(st.integers(1, 6))
    n = 2 * min_data + draw(st.integers(0, 3))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        used = draw(st.lists(st.integers(0, 62), min_size=1, max_size=6, unique=True))
        columns.append(draw(st.lists(st.sampled_from(used), min_size=n, max_size=n)))
    columns.append([draw(st.integers(0, 62))] * n)
    columns.append(list(columns[0]))
    order = draw(st.permutations(range(len(columns))))
    codes = np.array([columns[j] for j in order], dtype=np.uint8).T
    size = n * draw(st.integers(1, 4))
    grad = np.array(draw(st.lists(st.integers(-32, 32), min_size=size, max_size=size))) / 8.0
    hess = np.array(draw(st.lists(st.integers(1, 16), min_size=size, max_size=size))) / 8.0
    return (
        codes, grad.reshape(n, -1), hess.reshape(n, -1), draw(st.integers(2, 4)),
        min_data, draw(st.sampled_from([0.0, 0.5, 1.0])),
        draw(st.sampled_from([1.0, 0.6, 0.3])),
    )


class TestSharedRootWindow:
    """The class trees of a round share its root counts and bin span
    (_RowCoding.root_counts)."""

    @settings(max_examples=300, deadline=None)
    @given(instance=round_instances())
    def test_every_class_tree_equals_the_best_first_reference(self, instance):
        codes, grad, hess, num_leaves, min_data, l2, fraction = instance
        params = TrainParams(
            num_leaves=num_leaves, min_data_in_leaf=min_data, l2_regularization=l2,
            feature_fraction=fraction,
        )
        n_features = codes.shape[1]
        coding = tree_module._code_rows(codes, column_twins(codes), min_data)
        rng = np.random.default_rng(0)
        for c in range(grad.shape[1]):
            drawn = np.arange(n_features)
            if fraction < 1.0:
                n_sel = max(1, _ceil_frac(fraction, n_features))
                drawn = np.sort(copy.deepcopy(rng).choice(n_features, size=n_sel, replace=False))
            tree = tree_module._grow(coding, grad[:, c], hess[:, c], params, rng)
            feature, *rest = best_first_reference(
                codes[:, drawn], grad[:, c], hess[:, c], num_leaves, min_data, l2
            )
            want = [[int(drawn[f]) if f >= 0 else -1 for f in feature]] + rest
            for name, column in zip(("feature", "threshold", "left", "right", "value"), want):
                assert getattr(tree, name).tolist() == column, name

    def test_root_counts_are_made_once_per_round(self, monkeypatch):
        windows, roots = [], []
        count_window, histograms = tree_module._count_window, tree_module._histograms

        def counted_window(*args):
            windows.append(args[0].shape[0])
            return count_window(*args)

        def counted_histograms(*args):
            roots.append(len(args) > 5)
            return histograms(*args)

        monkeypatch.setattr(tree_module, "_count_window", counted_window)
        monkeypatch.setattr(tree_module, "_histograms", counted_histograms)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((300, 6))
        y = (x[:, 0] > 0).astype(int) + 2 * (x[:, 1] > 0)
        params = TrainParams(max_rounds=5, early_stop_rounds=0, min_data_in_leaf=5,
                             num_leaves=6, top_rate=0.2, other_rate=0.1)
        model = train(x, y, params=params)
        assert model.n_classes == 4 and model.n_rounds == 5
        # one count plane per round, on the round's 90 sampled rows
        assert windows == [90] * 5
        # every class root reads it; no child histogram does
        assert roots.count(True) == 5 * 4
        assert len(roots) > 5 * 4


def equal_trees(got: Tree, want: Tree) -> bool:
    """Node arrays of the same dtype and the same bytes."""
    return all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in (
            (getattr(got, name), getattr(want, name))
            for name in ("feature", "threshold", "left", "right", "value")
        )
    )


# 29 rows at min_data 10: every column's codes 2 apart, so a left side's dense
# row holds empty bins between its 10 to 19 occupied ones, and gradients of
# no common scale, so summing it without them groups the values differently;
# at this seed that changes the last bit of some leaf totals
_GAPPED = np.random.default_rng(89)
_GAPPED_ROUND = (
    np.stack([_GAPPED.permutation(29) * 2 for _ in range(3)], axis=1).astype(np.uint8),
    _GAPPED.standard_normal((29, 3)), _GAPPED.uniform(0.1, 2.0, (29, 3)),
    2, 10, 0.0, 1.0,
)


def floats(low: float, high: float) -> st.SearchStrategy:
    return st.floats(low, high, allow_subnormal=False)


@st.composite
def stump_round_instances(draw):
    """(codes, grad, hess, num_leaves, min_data, l2, fraction) of a boosting
    round too small for any child to split: 1 to 3 * min_data - 1 rows, so
    rounds below 2 * min_data rows grow single leaves. Columns hold 1 to 8
    drawn codes of 0..62; a constant column and a copy of the first join
    them in a drawn order. One gradient and Hessian column per class: the
    gradients either tied, drawn from four values, or any normal floats."""
    min_data = draw(st.integers(1, 10))
    n = draw(st.integers(1, 3 * min_data - 1))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        used = draw(st.lists(st.integers(0, 62), min_size=1, max_size=8, unique=True))
        columns.append(draw(st.lists(st.sampled_from(used), min_size=n, max_size=n)))
    columns.append([draw(st.integers(0, 62))] * n)
    columns.append(list(columns[0]))
    order = draw(st.permutations(range(len(columns))))
    codes = np.array([columns[j] for j in order], dtype=np.uint8).T
    size = n * draw(st.integers(1, 4))
    if draw(st.booleans()):
        tied = st.sampled_from([-1.0, -0.5, 0.5, 1.0])
        grad = draw(st.lists(tied, min_size=size, max_size=size))
    else:
        grad = draw(st.lists(floats(-4.0, 4.0), min_size=size, max_size=size))
    hess = draw(st.lists(floats(1 / 16, 2.0), min_size=size, max_size=size))
    return (
        codes, np.array(grad).reshape(n, -1), np.array(hess).reshape(n, -1),
        draw(st.integers(2, 8)), min_data, draw(st.sampled_from([0.0, 1.0])),
        draw(st.sampled_from([1.0, 0.6, 0.3])),
    )


class TestStumpRounds:
    """A round of fewer than 3 * min_data_in_leaf rows grows its class trees
    in one batched root scan (tree._grow_stumps), bit-identical to _grow,
    and its trees, applied as one forest (tree._forest_outputs), score as
    predict_binned does."""

    @settings(max_examples=400, deadline=None)
    @given(instance=stump_round_instances())
    @example(instance=_GAPPED_ROUND)
    def test_every_class_tree_and_the_rng_equal_grow(self, instance):
        codes, grad, hess, num_leaves, min_data, l2, fraction = instance
        params = TrainParams(
            num_leaves=num_leaves, min_data_in_leaf=min_data, l2_regularization=l2,
            feature_fraction=fraction,
        )
        coding = tree_module._code_rows(codes, column_twins(codes), min_data)
        rng_grow, rng_stumps = np.random.default_rng(5), np.random.default_rng(5)
        want = [
            tree_module._grow(coding, grad[:, c], hess[:, c], params, rng_grow)
            for c in range(grad.shape[1])
        ]
        got = tree_module._grow_stumps(coding, grad, hess, params, rng_stumps)
        assert len(got) == len(want)
        for c, (a, b) in enumerate(zip(got, want)):
            assert equal_trees(a, b), (c, a, b)
        assert rng_stumps.bit_generator.state == rng_grow.bit_generator.state
        outputs = tree_module._forest_outputs(got, codes)
        for c, tree in enumerate(got):
            assert outputs[:, c].tobytes() == tree.predict_binned(codes).tobytes()

    def test_subnormal_hessians_overflow_no_gain_silently(self):
        # as in _grow, gains G^2 / H overflow to inf without a RuntimeWarning
        codes = (np.arange(29) % 6).astype(np.uint8)[:, None]
        grad = np.stack([np.where(codes[:, 0] < 3, -1.0, 1.0), np.ones(29)], axis=1)
        hess = np.full((29, 2), 1e-310)
        params = TrainParams(min_data_in_leaf=10)
        coding = tree_module._code_rows(codes, column_twins(codes), 10)
        got = tree_module._grow_stumps(coding, grad, hess, params, np.random.default_rng(0))
        assert [tree.n_leaves for tree in got] == [1, 1]
        rng = np.random.default_rng(0)
        want = [tree_module._grow(coding, grad[:, c], hess[:, c], params, rng)
                for c in range(2)]
        assert all(equal_trees(a, b) for a, b in zip(got, want))

    @staticmethod
    def grown(monkeypatch, n_rows, min_data):
        """The _grow and _grow_stumps calls of a 3-round, 4-class fit on
        n_rows rows, every row in every round."""
        calls = {"grow": 0, "stumps": 0}
        grow, stumps = tree_module._grow, tree_module._grow_stumps

        def counted_grow(*args):
            calls["grow"] += 1
            return grow(*args)

        def counted_stumps(*args):
            calls["stumps"] += 1
            return stumps(*args)

        monkeypatch.setattr(tree_module, "_grow", counted_grow)
        monkeypatch.setattr(tree_module, "_grow_stumps", counted_stumps)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((n_rows, 5))
        y = np.arange(n_rows) % 4
        params = TrainParams(max_rounds=3, early_stop_rounds=0, min_data_in_leaf=min_data)
        model = train(x, y, params=params)
        assert model.n_rounds == 3 and model.n_classes == 4
        return calls

    @pytest.mark.parametrize("min_data", [2, 4, 7])
    def test_rounds_below_three_min_data_make_no_grow_call(self, monkeypatch, min_data):
        calls = self.grown(monkeypatch, 3 * min_data - 1, min_data)
        assert calls == {"grow": 0, "stumps": 3}

    @pytest.mark.parametrize("min_data", [2, 4, 7])
    def test_rounds_of_three_min_data_grow_every_class_tree(self, monkeypatch, min_data):
        calls = self.grown(monkeypatch, 3 * min_data, min_data)
        assert calls == {"grow": 3 * 4, "stumps": 0}


class TestRoundPlanes:
    def test_roots_keeping_every_column_read_the_round_planes(self):
        # a tree that keeps every column gets the round's count plane and
        # count-valid window themselves, and its scan leaves them unchanged
        rng = np.random.default_rng(17)
        codes = rng.integers(0, 20, (60, 6)).astype(np.uint8)
        coding = tree_module._code_rows(codes, column_twins(codes), 5)
        _, counts, lo, valid = coding._root_window
        before = counts.copy(), valid.copy()
        shared = coding.root_counts()
        assert shared[0] is counts and shared[1] == lo and shared[2] is valid
        params = TrainParams(num_leaves=4, min_data_in_leaf=5)
        for c in range(3):
            grad = rng.standard_normal(60)
            tree_module._grow(coding, grad, np.ones(60), params, rng)
        np.testing.assert_array_equal(counts, before[0])
        np.testing.assert_array_equal(valid, before[1])
