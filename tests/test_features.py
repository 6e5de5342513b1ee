"""Feature extraction against brute-force oracles."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.signal import hilbert

from semgkit.features import (
    FeatureConfig,
    FeatureExtractionError,
    analytic_phase,
    band_power,
    extract_features,
    extract_matrix,
    feature_names,
    plv,
    plv_matrix,
    stft_psd,
    time_domain,
)
from semgkit.dataset import Window


def naive_time_domain(x):
    """Direct summation forms of the six time-domain features."""
    n = len(x)
    mean = sum(x) / n
    var = sum((v - mean) ** 2 for v in x) / (n - 1)
    mav = sum(abs(v) for v in x) / n
    sgn = [0.0 if v == 0 else math.copysign(1.0, v) for v in x]
    zcr = sum(abs(sgn[i] - sgn[i - 1]) for i in range(1, n)) / (2.0 * n)
    rms = math.sqrt(sum(v * v for v in x) / n)
    wl = sum(abs(x[i] - x[i - 1]) for i in range(1, n))
    return np.array([mean, var, mav, zcr, rms, wl])


def naive_stft_psd(x, seg_len, hop):
    """Summed Hann-windowed segment powers via the O(N^2) DFT."""
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(seg_len) / seg_len))
    k = np.arange(seg_len)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / seg_len)
    psd = np.zeros(seg_len)
    start = 0
    while start + seg_len <= len(x):
        seg = x[start:start + seg_len] * window
        spectrum = dft @ seg
        psd += np.abs(spectrum) ** 2
        start += hop
    return psd


class TestTimeDomain:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 400))
            x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            got = time_domain(x).to_array()
            np.testing.assert_allclose(got, naive_time_domain(x.tolist()),
                                       rtol=1e-9, atol=1e-12)

    def test_simple_ramp(self):
        feats = time_domain([1.0, 2.0, 3.0])
        assert feats.mean == pytest.approx(2.0)
        assert feats.var == pytest.approx(1.0)
        assert feats.mav == pytest.approx(2.0)
        assert feats.zcr == 0.0
        assert feats.rms == pytest.approx(math.sqrt(14.0 / 3.0))
        assert feats.wl == pytest.approx(2.0)

    def test_alternating_signs(self):
        feats = time_domain([1.0, -1.0, 1.0, -1.0])
        assert feats.mean == 0.0
        assert feats.mav == 1.0
        assert feats.rms == 1.0
        # three sign flips of size 2 over 2N = 8
        assert feats.zcr == pytest.approx(0.75)
        assert feats.wl == pytest.approx(6.0)
        assert feats.var == pytest.approx(4.0 / 3.0)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            time_domain([1.0])


class TestStftPsd:
    @pytest.mark.parametrize("seg_len,hop", [(8, 4), (16, 8), (32, 16), (64, 64)])
    def test_matches_quadratic_dft(self, seg_len, hop):
        rng = np.random.default_rng(seg_len)
        x = rng.standard_normal(seg_len * 3 + 5)
        got = stft_psd(x, 2000.0, seg_len, hop)
        want = naive_stft_psd(x, seg_len, hop)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_parseval_single_segment(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64)
        psd = stft_psd(x, 2000.0, seg_len=64, hop=64)
        window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(64) / 64))
        np.testing.assert_allclose(psd.sum(), 64.0 * ((x * window) ** 2).sum(),
                                   rtol=1e-12)

    def test_segment_positions(self):
        # length 1280 with 256/128 gives 9 segment starts: 0,128,...,1024
        x = np.ones(1280)
        psd = stft_psd(x, 2000.0, 256, 128)
        single = stft_psd(np.ones(256), 2000.0, 256, 256)
        np.testing.assert_allclose(psd, 9.0 * single, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            stft_psd(np.ones(100), 2000.0, seg_len=256)
        with pytest.raises(ValueError):
            stft_psd(np.ones(300), 2000.0, seg_len=256, hop=0)


class TestBandPower:
    def test_bin_to_band_mapping(self):
        # seg_len 1000 at 2 kHz puts bin centers on a 2 Hz grid
        fs, seg_len = 2000.0, 1000
        freqs = np.arange(seg_len) * fs / seg_len
        for target, band in [(20.0, 0), (36.0, 0), (38.0, 1), (198.0, 9), (200.0, 9)]:
            psd = np.zeros(seg_len)
            psd[int(target / 2.0)] = 1.0
            out = band_power(psd, fs, seg_len)
            assert out[band] == 1.0
            assert out.sum() == 1.0
        for outside in (18.0, 202.0):
            psd = np.zeros(seg_len)
            psd[int(outside / 2.0)] = 1.0
            assert band_power(psd, fs, seg_len).sum() == 0.0

    def test_last_band_right_closed(self):
        fs, seg_len = 2000.0, 100  # 20 Hz bins, bin 10 sits exactly at 200
        psd = np.zeros(seg_len)
        psd[10] = 3.0
        out = band_power(psd, fs, seg_len)
        assert out[9] == 3.0

    def test_band_count_and_shape(self):
        psd = np.ones(256)
        out = band_power(psd, 2000.0, 256)
        assert out.shape == (10,)
        with pytest.raises(ValueError):
            band_power(np.ones(128), 2000.0, 256)


class TestPhase:
    @pytest.mark.parametrize("n", [64, 65, 1280])
    def test_matches_scipy_hilbert(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        got = analytic_phase(x)
        want = np.angle(hilbert(x))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_pure_tone_phase_advances(self):
        t = np.arange(512) / 2000.0
        x = np.cos(2.0 * np.pi * 125.0 * t)
        phase = np.unwrap(analytic_phase(x))
        core = slice(64, 448)
        rate = np.diff(phase[core]) * 2000.0 / (2.0 * np.pi)
        np.testing.assert_allclose(rate, 125.0, atol=1.0)

    def test_plv_identical_channels(self):
        rng = np.random.default_rng(2)
        phase = rng.uniform(-np.pi, np.pi, 1280)
        assert plv(phase, phase) == 1.0

    def test_plv_constant_offset(self):
        rng = np.random.default_rng(3)
        phase = rng.uniform(-np.pi, np.pi, 1280)
        assert abs(plv(phase, phase + 0.7) - 1.0) <= 1e-12

    def test_plv_independent_phases_small(self):
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(50):
            a = rng.uniform(-np.pi, np.pi, 1280)
            b = rng.uniform(-np.pi, np.pi, 1280)
            hits += plv(a, b) < 0.1
        assert hits >= 49

    def test_plv_never_exceeds_one(self):
        assert plv(np.zeros(10), np.zeros(10)) <= 1.0

    def test_plv_matrix_properties(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((6, 256))
        m = plv_matrix(data)
        assert m.shape == (6, 6)
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), np.ones(6))
        assert np.all((m >= 0.0) & (m <= 1.0))

    def test_plv_matrix_matches_pairwise(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((4, 200))
        m = plv_matrix(data)
        pa = analytic_phase(data[1])
        pb = analytic_phase(data[3])
        assert m[1, 3] == pytest.approx(plv(pa, pb), abs=1e-12)

    def test_coupled_channels_high_plv(self):
        rng = np.random.default_rng(7)
        shared = rng.standard_normal(1280)
        a = shared + 0.05 * rng.standard_normal(1280)
        b = shared + 0.05 * rng.standard_normal(1280)
        m = plv_matrix(np.vstack([a, b]))
        assert m[0, 1] > 0.9


class TestVector:
    def test_names_length_and_order(self):
        names = feature_names(12)
        assert len(names) == 336
        assert names[0] == "ch1_mean"
        assert names[5] == "ch1_wl"
        assert names[6] == "ch2_mean"
        assert names[71] == "ch12_wl"
        assert names[72] == "ch1_band1"
        assert names[81] == "ch1_band10"
        assert names[191] == "ch12_band10"
        assert names[192] == "plv_1_1"
        assert names[203] == "plv_1_12"
        assert names[335] == "plv_12_12"

    def test_extract_layout(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((12, 1280))
        cfg = FeatureConfig()
        vec = extract_features(data, cfg)
        assert vec.shape == (336,)
        np.testing.assert_array_equal(vec[:6], time_domain(data[0]).to_array())
        np.testing.assert_array_equal(vec[6:12], time_domain(data[1]).to_array())
        psd = stft_psd(data[0], cfg.sample_rate, cfg.stft_seg_len, cfg.stft_hop)
        np.testing.assert_array_equal(
            vec[72:82], band_power(psd, cfg.sample_rate, cfg.stft_seg_len)
        )
        np.testing.assert_array_equal(vec[192:], plv_matrix(data).ravel())

    def test_block_equals_stacked_rows(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((12, 1280))
        cfg = FeatureConfig()
        fs, seg, hop = cfg.sample_rate, cfg.stft_seg_len, cfg.stft_hop
        td = time_domain(data).to_array()
        psd = stft_psd(data, fs, seg, hop)
        bands = band_power(psd, fs, seg)
        row_td = np.stack([time_domain(row).to_array() for row in data])
        row_psd = np.stack([stft_psd(row, fs, seg, hop) for row in data])
        row_bands = np.stack([band_power(p, fs, seg) for p in row_psd])
        assert td.shape == (12, 6) and bands.shape == (12, 10)
        assert np.array_equal(td, row_td)
        assert np.array_equal(psd, row_psd)
        assert np.array_equal(bands, row_bands)
        assert np.array_equal(
            analytic_phase(data), np.stack([analytic_phase(row) for row in data])
        )
        vec = extract_features(data, cfg)
        assert np.array_equal(
            vec,
            np.concatenate(
                [row_td.ravel(), row_bands.ravel(), plv_matrix(data).ravel()]
            ),
        )

    def test_accepts_window_object(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((12, 1280))
        w = Window(data=data, label=2, repetition=1, subject_id=0)
        np.testing.assert_array_equal(extract_features(w), extract_features(data))

    def test_non_finite_value_is_named(self):
        data = np.random.default_rng(10).standard_normal((12, 1280))
        data[2, 5] = np.nan
        with pytest.raises(FeatureExtractionError, match="ch3|plv"):
            extract_features(data)

    def test_extract_matrix_shapes(self):
        rng = np.random.default_rng(11)
        windows = [
            Window(rng.standard_normal((12, 1280)), label=i % 3 + 1,
                   repetition=i % 2 + 1, subject_id=0)
            for i in range(4)
        ]
        X, labels, reps = extract_matrix(windows)
        assert X.shape == (4, 336)
        np.testing.assert_array_equal(labels, [1, 2, 3, 1])
        np.testing.assert_array_equal(reps, [1, 2, 1, 2])

    def test_extract_matrix_rejects_empty(self):
        with pytest.raises(ValueError):
            extract_matrix([])
