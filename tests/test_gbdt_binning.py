"""Quantile binning and code reproducibility."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semgkit.gbdt import MAX_BINS_LIMIT, BinnedMatrix, apply_bins, bin_features


class TestBinFeatures:
    def test_few_uniques_get_own_bins(self):
        col = np.array([3.0, 1.0, 2.0, 1.0, 3.0, 2.0])
        binned = bin_features(col[:, None], max_bins=255)
        np.testing.assert_array_equal(binned.codes[:, 0], [2, 0, 1, 0, 2, 1])
        np.testing.assert_array_equal(binned.edges[0], [1.5, 2.5])
        assert binned.n_bins(0) == 3

    def test_constant_column_single_bin(self):
        binned = bin_features(np.full((10, 1), 4.2))
        assert binned.edges[0].size == 0
        np.testing.assert_array_equal(binned.codes[:, 0], 0)
        assert binned.n_bins(0) == 1
        assert binned.max_width == 1

    def test_codes_bounded_by_max_bins(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2000, 3))
        binned = bin_features(x, max_bins=16)
        assert binned.codes.dtype == np.uint8
        for j in range(3):
            assert binned.codes[:, j].max() <= 15
            assert binned.n_bins(j) <= 16

    def test_edge_value_goes_left(self):
        edges = (np.array([1.5, 2.5]),)
        codes = apply_bins(np.array([[1.0], [1.5], [1.6], [2.5], [3.0]]), edges)
        np.testing.assert_array_equal(codes[:, 0], [0, 0, 1, 1, 2])

    def test_apply_reproduces_training_codes(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5.0, 5.0, size=(500, 4))
        binned = bin_features(x, max_bins=32)
        np.testing.assert_array_equal(apply_bins(x, binned.edges), binned.codes)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        ),
        max_bins=st.integers(min_value=2, max_value=64),
    )
    def test_codes_monotone_in_value(self, values, max_bins):
        x = np.array(values)[:, None]
        binned = bin_features(x, max_bins=max_bins)
        order = np.argsort(x[:, 0], kind="stable")
        codes = binned.codes[order, 0].astype(int)
        assert np.all(np.diff(codes) >= 0)

    def test_quantile_path_balances_counts(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10000, 1))
        binned = bin_features(x, max_bins=10)
        counts = np.bincount(binned.codes[:, 0], minlength=10)
        assert counts.min() > 500  # near-equal occupancy on continuous data

    def test_max_bins_validation(self):
        x = np.zeros((5, 1))
        with pytest.raises(ValueError):
            bin_features(x, max_bins=1)
        with pytest.raises(ValueError):
            bin_features(x, max_bins=MAX_BINS_LIMIT + 1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            bin_features(np.zeros(5))
        with pytest.raises(ValueError):
            apply_bins(np.zeros((3, 2)), (np.array([0.0]),))


def per_column_edges(column, max_bins):
    """The edges of one column, computed alone: midpoints of its distinct
    values if it has at most max_bins of them, else its distinct quantiles."""
    unique = np.unique(column)
    if unique.size <= max_bins:
        return (unique[:-1] + unique[1:]) / 2.0
    return np.unique(np.quantile(column, np.arange(1, max_bins) / max_bins))


@st.composite
def feature_matrices(draw):
    """(features, max_bins): Gaussian columns scaled by 1e-3 to 1e3, some
    rounded to integers or to a few levels (signed zeros included), so both
    the midpoint and the quantile rule occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, f = draw(st.integers(1, 200)), draw(st.integers(1, 12))
    x = rng.standard_normal((n, f)) * 10.0 ** rng.uniform(-3, 3, size=f)
    kinds = draw(st.lists(st.sampled_from(["real", "integer", "levels"]), min_size=f, max_size=f))
    for j, kind in enumerate(kinds):
        if kind == "integer":
            x[:, j] = np.round(x[:, j])
        elif kind == "levels":
            x[:, j] = rng.choice([-0.0, 0.0, 1.5, -2.25], size=n)
    return x, draw(st.integers(2, 64))


class TestBinFeaturesEdges:
    @settings(max_examples=200, deadline=None)
    @given(instance=feature_matrices())
    def test_edges_equal_the_per_column_rule_byte_for_byte(self, instance):
        x, max_bins = instance
        binned = bin_features(x, max_bins)
        for j in range(x.shape[1]):
            want = per_column_edges(x[:, j], max_bins)
            assert binned.edges[j].tobytes() == want.tobytes(), j
        np.testing.assert_array_equal(binned.codes, apply_bins(x, binned.edges))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_are_refused(self, bad):
        x = np.zeros((4, 2))
        x[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            bin_features(x)


class TestBinnedMatrix:
    def test_dtype_enforced(self):
        with pytest.raises(ValueError):
            BinnedMatrix(np.zeros((3, 1), dtype=np.int32), (np.array([0.0]),))

    def test_max_width(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([
            rng.integers(0, 4, 100).astype(float),
            rng.standard_normal(100),
        ])
        binned = bin_features(x, max_bins=20)
        assert binned.max_width == max(binned.n_bins(0), binned.n_bins(1))
