"""Filter design, application, and channel standardization."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from semgkit.dsp import (
    ChannelStats,
    DegenerateChannelError,
    SecondOrderSections,
    cascade,
    compute_stats,
    design_bandpass,
    design_notch,
    filter_channels,
    frequency_response,
    standardize,
)
from semgkit.dataset import Window

FS = 2000.0


def naive_sosfilt(sections: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Direct-form II transposed biquad cascade, one sample at a time."""
    y = x.astype(np.float64).copy()
    for b0, b1, b2, _, a1, a2 in sections:
        out = np.empty_like(y)
        z1 = 0.0
        z2 = 0.0
        for n in range(y.size):
            out[n] = b0 * y[n] + z1
            z1 = b1 * y[n] - a1 * out[n] + z2
            z2 = b2 * y[n] - a2 * out[n]
        y = out
    return y


class TestDesign:
    def test_bandpass_edges_at_half_power(self):
        sos = design_bandpass(20.0, 200.0, order=5, sample_rate=FS)
        response = frequency_response(sos, [20.0, 200.0], FS)
        target = 1.0 / np.sqrt(2.0)
        assert np.all(np.abs(response - target) <= 0.05 * target)

    def test_bandpass_passband_and_stopband(self):
        sos = design_bandpass(20.0, 200.0, order=5, sample_rate=FS)
        mid = frequency_response(sos, [60.0, 100.0, 150.0], FS)
        assert np.all(mid > 0.95)
        outside = frequency_response(sos, [2.0, 600.0], FS)
        assert np.all(outside < 0.05)

    def test_bandpass_section_count(self):
        sos = design_bandpass(20.0, 200.0, order=5, sample_rate=FS)
        assert sos.n_sections == 5

    @pytest.mark.parametrize("f0", [74.0, 148.0])
    def test_notch_depth(self, f0):
        sos = design_notch(f0, quality=30.0, sample_rate=FS)
        gain = frequency_response(sos, [f0], FS)[0]
        assert -20.0 * np.log10(gain) >= 26.0

    def test_notch_spares_neighbours(self):
        sos = design_notch(74.0, quality=30.0, sample_rate=FS)
        neighbours = frequency_response(sos, [60.0, 90.0], FS)
        assert np.all(neighbours > 0.9)

    def test_designed_filters_stable(self):
        assert design_bandpass(20.0, 200.0, 5, FS).is_stable()
        assert design_notch(74.0, 30.0, FS).is_stable()
        assert design_notch(148.0, 30.0, FS).is_stable()

    @settings(max_examples=50, deadline=None)
    @given(
        low=st.floats(min_value=1.0, max_value=300.0),
        width=st.floats(min_value=5.0, max_value=500.0),
        order=st.integers(min_value=1, max_value=8),
    )
    def test_bandpass_always_stable(self, low, width, order):
        high = min(low + width, FS / 2 - 1.0)
        sos = design_bandpass(low, high, order=order, sample_rate=FS)
        assert np.all(np.abs(sos.poles()) < 1.0)

    def test_poles_of_a_narrow_band_raise_no_warning(self):
        # butter's sections here have numerators with near-zero leading
        # coefficients, on which sos2zpk's numerator normalization warns
        sos = design_bandpass(1.0, 2.0, order=8, sample_rate=FS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = sp_signal.sos2zpk(sos.sections)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(sos.poles(), want)
            assert sos.is_stable()

    @settings(max_examples=50, deadline=None)
    @given(
        f0=st.floats(min_value=1.0, max_value=990.0),
        quality=st.floats(min_value=2.0, max_value=100.0),
    )
    def test_notch_always_stable(self, f0, quality):
        sos = design_notch(f0, quality=quality, sample_rate=FS)
        assert np.all(np.abs(sos.poles()) < 1.0)

    def test_degenerate_notch_rejected(self):
        # bandwidth f0/Q beyond the spectrum has no stable realization
        with pytest.raises(ValueError, match="unstable"):
            design_notch(900.0, quality=0.6, sample_rate=FS)

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            design_bandpass(200.0, 20.0, 5, FS)
        with pytest.raises(ValueError):
            design_bandpass(20.0, 1100.0, 5, FS)
        with pytest.raises(ValueError):
            design_notch(0.0, 30.0, FS)
        with pytest.raises(ValueError):
            design_notch(74.0, -1.0, FS)

    def test_sections_use_scipy_layout(self):
        sos = design_bandpass(20.0, 200.0, order=3, sample_rate=FS)
        np.testing.assert_array_equal(
            sos.sections,
            sp_signal.butter(3, [20.0, 200.0], btype="bandpass", fs=FS, output="sos"),
        )
        assert np.all(design_notch(74.0, 30.0, FS).sections[:, 3] == 1.0)
        with pytest.raises(ValueError, match=r"\(n, 6\)"):
            SecondOrderSections(sos.sections[:, 1:])
        with pytest.raises(ValueError, match="a0 = 1"):
            SecondOrderSections(2.0 * sos.sections)

    def test_cascade_response_is_product(self):
        bp = design_bandpass(20.0, 200.0, 5, FS)
        nt = design_notch(74.0, 30.0, FS)
        both = cascade(bp, nt)
        freqs = np.linspace(5.0, 900.0, 40)
        combined = frequency_response(both, freqs, FS)
        product = frequency_response(bp, freqs, FS) * frequency_response(nt, freqs, FS)
        np.testing.assert_allclose(combined, product, rtol=1e-12)


class TestApply:
    def test_matches_naive_biquad_loop(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(400)
        sos = design_bandpass(20.0, 200.0, order=3, sample_rate=FS)
        got = filter_channels(sos, x)
        want = naive_sosfilt(sos.sections, x)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_notch_matches_naive_loop(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(300)
        sos = design_notch(74.0, 30.0, FS)
        got = filter_channels(sos, x)
        want = naive_sosfilt(sos.sections, x)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_cascade_equals_filters_in_sequence(self):
        # the pipeline's one-pass chain: causal output is bit-identical
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 700))
        bp = design_bandpass(20.0, 380.0, order=5, sample_rate=FS)
        n1 = design_notch(74.0, 30.0, FS)
        n2 = design_notch(148.0, 30.0, FS)
        want = filter_channels(n2, filter_channels(n1, filter_channels(bp, x)))
        assert np.array_equal(filter_channels(cascade(bp, n1, n2), x), want)

    def test_zero_phase_matches_forward_backward_reference(self):
        # forward pass, then a forward pass over the reversal, both from
        # zero state (no edge-matched initial conditions)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(512)
        sos = design_bandpass(20.0, 200.0, order=4, sample_rate=FS)
        got = filter_channels(sos, x, zero_phase=True)
        fwd = sp_signal.sosfilt(sos.sections, x)
        want = sp_signal.sosfilt(sos.sections, fwd[::-1])[::-1]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_zero_phase_removes_delay(self):
        # a passband tone should come back aligned with itself
        t = np.arange(4096) / FS
        x = np.sin(2.0 * np.pi * 80.0 * t)
        sos = design_bandpass(20.0, 200.0, 5, FS)
        y = filter_channels(sos, x, zero_phase=True)
        core = slice(1024, 3072)  # ignore edge transients
        lags = [np.dot(y[core], np.roll(x, k)[core]) for k in (-2, -1, 0, 1, 2)]
        assert int(np.argmax(lags)) == 2

    def test_notch_suppresses_tone(self):
        t = np.arange(8000) / FS
        tone = np.sin(2.0 * np.pi * 74.0 * t)
        sos = design_notch(74.0, 30.0, FS)
        y = filter_channels(sos, tone)
        steady = y[4000:]
        assert np.sqrt(np.mean(steady**2)) < 0.05 * np.sqrt(np.mean(tone**2))

    def test_filter_channels_rowwise(self):
        # a block, 2-D or 3-D, equals its rows filtered one at a time
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 256))
        sos = design_bandpass(20.0, 200.0, 3, FS)
        for zero_phase in (False, True):
            got = filter_channels(sos, x, zero_phase=zero_phase)
            for i in range(4):
                np.testing.assert_array_equal(
                    got[i], filter_channels(sos, x[i], zero_phase=zero_phase)
                )
            stacked = filter_channels(sos, x.reshape(2, 2, 256), zero_phase=zero_phase)
            np.testing.assert_array_equal(stacked.reshape(4, 256), got)

    def test_input_validation(self):
        sos = design_notch(74.0, 30.0, FS)
        with pytest.raises(ValueError):
            filter_channels(sos, np.zeros(()))
        with pytest.raises(ValueError):
            filter_channels(sos, np.zeros(0))
        with pytest.raises(ValueError):
            filter_channels(sos, np.zeros((2, 0)))


class TestStandardize:
    def test_stats_match_concatenated_population_moments(self):
        rng = np.random.default_rng(8)
        windows = [rng.standard_normal((3, 50)) + 2.0 for _ in range(4)]
        stats = compute_stats(windows)
        pooled = np.concatenate(windows, axis=1)
        np.testing.assert_allclose(stats.mean, pooled.mean(axis=1), rtol=1e-12)
        np.testing.assert_allclose(stats.std, pooled.std(axis=1), rtol=1e-9)

    def test_standardize_normalizes_training_pool(self):
        rng = np.random.default_rng(9)
        windows = [5.0 + 3.0 * rng.standard_normal((2, 80)) for _ in range(5)]
        stats = compute_stats(windows)
        pooled = np.concatenate([standardize(stats, w) for w in windows], axis=1)
        np.testing.assert_allclose(pooled.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(pooled.std(axis=1), 1.0, rtol=1e-12)

    def test_standardize_keeps_window_kind(self):
        rng = np.random.default_rng(10)
        w = Window(data=rng.standard_normal((2, 40)), label=1, repetition=1, subject_id=0)
        stats = compute_stats([w])
        out = standardize(stats, w)
        assert isinstance(out, Window)
        assert out.label == 1 and out.repetition == 1
        arr = standardize(stats, w.data)
        assert isinstance(arr, np.ndarray)
        np.testing.assert_array_equal(out.data, arr)

    def test_standardize_refuses_a_1d_window(self):
        # a 1-D row used to broadcast against the 12 channel stats
        stats = ChannelStats(np.zeros(12), np.ones(12))
        with pytest.raises(ValueError, match=r"\(n_channels, n_samples\)"):
            standardize(stats, np.arange(100.0))

    def test_standardize_refuses_a_channel_count_other_than_the_stats(self):
        stats = ChannelStats(np.zeros(12), np.ones(12))
        with pytest.raises(ValueError, match="window has 1 channels; the stats cover 12"):
            standardize(stats, np.arange(100.0)[None, :])

    def test_zero_variance_channel_is_named(self):
        windows = [np.vstack([np.ones(30), np.random.default_rng(0).standard_normal(30)])]
        with pytest.raises(DegenerateChannelError, match="ch1"):
            compute_stats(windows)

    def test_stats_require_data(self):
        with pytest.raises(ValueError):
            compute_stats([])

    def test_channel_stats_shape_checks(self):
        with pytest.raises(ValueError):
            ChannelStats(np.zeros(3), np.ones(2))
        with pytest.raises(DegenerateChannelError, match="ch2"):
            ChannelStats(np.zeros(3), np.array([1.0, 0.0, 1.0]))

    def test_channel_stats_reject_non_finite_entries(self):
        mean = np.array([0.0, np.nan, 0.0, 0.0])
        std = np.array([1.0, 1.0, 1.0, np.inf])
        with pytest.raises(ValueError) as err:
            ChannelStats(mean, std)
        assert not isinstance(err.value, DegenerateChannelError)
        assert str(err.value) == "non-finite mean or std of channel(s): ch2, ch4"
        with pytest.raises(ValueError, match=r"channel\(s\): ch1$"):
            ChannelStats(np.zeros(2), np.array([np.nan, 1.0]))
