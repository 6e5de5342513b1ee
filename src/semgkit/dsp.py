"""IIR filter design and signal conditioning for multichannel sEMG.

Filters are designed as cascades of biquad sections (analog Butterworth
prototype mapped through the bilinear transform with frequency pre-warping,
plus single-biquad notches) and applied causally by default; a zero-phase
mode runs the cascade forward and then time-reversed. Sections are kept in
scipy's second-order-sections layout, so scipy.signal.sosfilt runs them as
they are.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import signal as _sig


class DegenerateChannelError(ValueError):
    """A channel has zero variance and cannot be standardized."""


@dataclass(frozen=True)
class SecondOrderSections:
    """Cascade of biquad sections.

    Parameters
    ----------
    sections : ndarray, shape (n_sections, 6)
        scipy's layout: rows of (b0, b1, b2, a0, a1, a2) with a0 = 1.
    """

    sections: np.ndarray

    def __post_init__(self) -> None:
        arr = np.atleast_2d(np.asarray(self.sections, dtype=np.float64))
        if arr.size == 0 or arr.shape[1] != 6:
            raise ValueError("sections must be a non-empty (n, 6) array")
        if np.any(arr[:, 3] != 1.0):
            raise ValueError("every section must have a0 = 1")
        object.__setattr__(self, "sections", arr)

    @property
    def n_sections(self) -> int:
        return self.sections.shape[0]

    def poles(self) -> np.ndarray:
        """Roots of every section denominator, concatenated.

        These are scipy.signal.sos2zpk's poles, taken without its
        normalization of each section's numerator, which warns on a
        numerator with a near-zero leading coefficient.
        """
        return np.concatenate([np.roots(a) for a in self.sections[:, 3:]])

    def is_stable(self) -> bool:
        return bool(np.all(np.abs(self.poles()) < 1.0))


def cascade(*filters: SecondOrderSections) -> SecondOrderSections:
    """Concatenate several section cascades into one filter."""
    if not filters:
        raise ValueError("cascade requires at least one filter")
    return SecondOrderSections(np.vstack([f.sections for f in filters]))


def design_bandpass(
    low_hz: float,
    high_hz: float,
    order: int = 5,
    sample_rate: float = 2000.0,
) -> SecondOrderSections:
    """Butterworth bandpass as second-order sections.

    An analog prototype of the given order is band-transformed and
    discretized via the bilinear transform with frequency pre-warping,
    giving ``order`` biquad sections (discrete order 2*order).

    Parameters
    ----------
    low_hz, high_hz : float
        -3 dB band edges, 0 < low_hz < high_hz < sample_rate / 2.
    order : int
        Analog prototype order (>= 1).
    sample_rate : float
        Sampling frequency in Hz.
    """
    nyq = sample_rate / 2.0
    if not 0.0 < low_hz < high_hz < nyq:
        raise ValueError(
            f"band edges must satisfy 0 < low < high < {nyq}; "
            f"got ({low_hz}, {high_hz})"
        )
    if order < 1:
        raise ValueError("order must be >= 1")
    sos = _sig.butter(order, [low_hz, high_hz], btype="bandpass",
                      fs=sample_rate, output="sos")
    out = SecondOrderSections(sos)
    if not out.is_stable():
        raise ValueError("designed bandpass is unstable")
    return out


def design_notch(
    f0_hz: float,
    quality: float = 30.0,
    sample_rate: float = 2000.0,
) -> SecondOrderSections:
    """Single-biquad notch with unit gain at DC and Nyquist.

    Parameters
    ----------
    f0_hz : float
        Center frequency to reject, 0 < f0_hz < sample_rate / 2.
    quality : float
        Q factor; bandwidth is f0_hz / quality.
    """
    nyq = sample_rate / 2.0
    if not 0.0 < f0_hz < nyq:
        raise ValueError(f"notch frequency must be in (0, {nyq}); got {f0_hz}")
    if quality <= 0.0:
        raise ValueError("quality must be > 0")
    b, a = _sig.iirnotch(f0_hz, quality, fs=sample_rate)
    out = SecondOrderSections(np.concatenate([b, a]) / a[0])
    if not out.is_stable():
        raise ValueError("designed notch is unstable")
    return out


def filter_channels(
    sos: SecondOrderSections,
    channels: np.ndarray,
    zero_phase: bool = False,
) -> np.ndarray:
    """Filter along the last axis of a (..., n_samples) array.

    Causal mode evaluates each section in direct-form II transposed with
    zero initial state. Zero-phase mode filters forward, then filters the
    time-reversed output and reverses again, removing phase distortion and
    doubling the attenuation in dB. Every row is filtered on its own, so a
    block gives the same values as its rows one at a time; a 1-D input is
    one channel.
    """
    x = np.asarray(channels, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("channels must have a non-empty last axis")
    y = _sig.sosfilt(sos.sections, x, axis=-1)
    if zero_phase:
        y = _sig.sosfilt(sos.sections, y[..., ::-1], axis=-1)[..., ::-1]
    return y


def frequency_response(
    sos: SecondOrderSections,
    freqs_hz: Sequence[float],
    sample_rate: float,
) -> np.ndarray:
    """|H(e^{jw})| at the given frequencies.

    The response is the product of the section responses, as
    scipy.signal.sosfreqz evaluates it.
    """
    f = np.asarray(freqs_hz, dtype=np.float64)
    nyq = sample_rate / 2.0
    if f.size and (f.min() < 0.0 or f.max() > nyq):
        raise ValueError(f"frequencies must lie in [0, {nyq}]")
    _, h = _sig.sosfreqz(sos.sections, worN=f, fs=sample_rate)
    return np.abs(h).reshape(f.shape)


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean and standard deviation, computed from training data."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mean, dtype=np.float64)
        s = np.asarray(self.std, dtype=np.float64)
        if m.shape != s.shape or m.ndim != 1:
            raise ValueError("mean and std must be 1-D arrays of equal length")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)
        bad = np.flatnonzero(~(np.isfinite(m) & np.isfinite(s)))
        if bad.size:
            names = ", ".join(f"ch{i + 1}" for i in bad)
            raise ValueError(f"non-finite mean or std of channel(s): {names}")
        bad = np.flatnonzero(s <= 0.0)
        if bad.size:
            names = ", ".join(f"ch{i + 1}" for i in bad)
            raise DegenerateChannelError(
                f"zero-variance channel(s): {names}"
            )


def _window_data(window) -> np.ndarray:
    data = getattr(window, "data", window)
    return np.asarray(data, dtype=np.float64)


def compute_stats(train_windows: Iterable) -> ChannelStats:
    """Pooled per-channel mean and standard deviation over training windows.

    Accepts a sequence of Window objects or of (n_channels, n_samples)
    arrays. Statistics must come from training data only; the split is the
    caller's responsibility.
    """
    total = total_sq = 0.0
    count = 0
    for w in train_windows:
        data = _window_data(w)
        total = total + data.sum(axis=1)
        total_sq = total_sq + (data * data).sum(axis=1)
        count += data.shape[1]
    if count == 0:
        raise ValueError("at least one training window is required")
    mean = total / count
    var = total_sq / count - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    return ChannelStats(mean, std)


def standardize(stats: ChannelStats, window):
    """Map each channel c to (x - mean_c) / std_c.

    Returns the same kind of value it was given: a Window comes back as a
    Window with transformed data, a bare array as an array.
    """
    data = _window_data(window)
    scaled = (data - stats.mean[:, None]) / stats.std[:, None]
    if dataclasses.is_dataclass(window) and hasattr(window, "data"):
        return dataclasses.replace(window, data=scaled)
    return scaled
