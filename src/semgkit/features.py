"""Per-window feature extraction: time-domain, band-power, and phase coupling.

Every window yields a fixed-order vector: for each channel the six
time-domain features (mean, variance, mean absolute value, zero-crossing
rate, RMS, waveform length), then for each channel ten band powers over
equal-width bands partitioning 20-200 Hz, then the row-major flatten of the
full channel-by-channel phase-locking-value matrix. With 12 channels that
is 72 + 120 + 144 = 336 values.

time_domain, stft_psd, band_power and analytic_phase work along the last
axis of a (..., n_samples) input: one call takes a channel or a window.

extract_standardized gives a filtered window's rows under several channel
standardizations (x - m) / s at once. Its FFT work runs once per window:
the Hann-windowed segment spectra S and the analytic signal z are linear
in x, so the standardized spectra are (S - m W) / s, with W the window's
DFT, and the standardized analytic signal is (z - m) / s, because the
analytic filter keeps DC at gain 1. extract_features is its call with one
identity standardization, so every feature has one implementation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .dsp import ChannelStats, _window_data

TIME_DOMAIN_ORDER: Tuple[str, ...] = ("mean", "var", "mav", "zcr", "rms", "wl")
N_BANDS = 10
BAND_LO_HZ = 20.0
BAND_WIDTH_HZ = 18.0


class FeatureExtractionError(ValueError):
    """A feature came out non-finite; the message names channel and feature."""


@dataclass(frozen=True)
class TimeDomainFeatures:
    """The six time-domain features, each of the input's leading shape."""

    mean: np.ndarray
    var: np.ndarray
    mav: np.ndarray
    zcr: np.ndarray
    rms: np.ndarray
    wl: np.ndarray

    def to_array(self) -> np.ndarray:
        """Shape (6,) for one channel, (n_channels, 6) for a window."""
        return np.stack([getattr(self, f) for f in TIME_DOMAIN_ORDER], axis=-1)


@dataclass(frozen=True)
class FeatureConfig:
    """Extraction parameters; defaults match the 2 kHz, 1280-sample window."""

    sample_rate: float = 2000.0
    stft_seg_len: int = 256
    stft_hop: int = 128

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")
        if self.stft_seg_len < 4:
            raise ValueError("stft_seg_len must be >= 4")
        if self.stft_hop < 1:
            raise ValueError("stft_hop must be >= 1")


def time_domain(channel: np.typing.ArrayLike) -> TimeDomainFeatures:
    """Six time-domain features of each channel in a (..., n_samples) input.

    Variance uses the 1/(N-1) normalization. The zero-crossing rate sums
    |sgn(s(n)) - sgn(s(n-1))| over n = 2..N with the three-valued sign and
    divides by 2N. Waveform length sums |s(n) - s(n-1)| over n = 2..N.
    """
    x = np.asarray(channel, dtype=np.float64)
    if x.ndim < 1 or x.shape[-1] < 2:
        raise ValueError("channel must have at least 2 samples on its last axis")
    n = x.shape[-1]
    return TimeDomainFeatures(
        mean=x.mean(axis=-1),
        var=x.var(axis=-1, ddof=1),
        mav=np.abs(x).mean(axis=-1),
        zcr=np.abs(np.diff(np.sign(x))).sum(axis=-1) / (2.0 * n),
        rms=np.sqrt(np.mean(x * x, axis=-1)),
        wl=np.abs(np.diff(x)).sum(axis=-1),
    )


def _hann(length: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(length) / length))


def stft_psd(
    channel: np.typing.ArrayLike,
    sample_rate: float,
    seg_len: int = 256,
    hop: int = 128,
) -> np.ndarray:
    """Power spectral density as a sum of Hann-windowed DFT powers.

    Works along the last axis of a (..., n_samples) input and returns
    (..., seg_len). Segments start at offsets 0, hop, 2*hop, ...; each is
    multiplied by a Hann window and transformed; the result is the per-bin
    sum of |S|^2 over all segment positions. Bin b corresponds to
    frequency b * sample_rate / seg_len.
    """
    return _power(_segment_spectra(np.asarray(channel, dtype=np.float64), seg_len, hop))


def _segment_spectra(x: np.ndarray, seg_len: int, hop: int) -> np.ndarray:
    """Hann-windowed DFTs of stft_psd's segments, shape (..., n_segments, seg_len)."""
    if x.ndim < 1:
        raise ValueError("channel must have a sample axis")
    if seg_len > x.shape[-1]:
        raise ValueError(f"seg_len {seg_len} exceeds signal length {x.shape[-1]}")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    segments = np.lib.stride_tricks.sliding_window_view(x, seg_len, axis=-1)[..., ::hop, :]
    return np.fft.fft(segments * _hann(seg_len), axis=-1)


def _power(spectra: np.ndarray) -> np.ndarray:
    """Per-bin sum of |S|^2 over the segment axis of _segment_spectra."""
    return (spectra.real ** 2 + spectra.imag ** 2).sum(axis=-2)


def band_power(
    psd: np.typing.ArrayLike,
    sample_rate: float,
    seg_len: int,
) -> np.ndarray:
    """Sum the PSD over ten equal bands partitioning 20-200 Hz.

    Works along the last axis of a (..., seg_len) input and returns
    (..., 10). Band k (1-based) covers [20 + 18(k-1), 20 + 18k) Hz; the
    last band is closed on the right at 200 Hz. A bin belongs to a band
    when its center frequency does.
    """
    p = np.asarray(psd, dtype=np.float64)
    if p.ndim < 1 or p.shape[-1] != seg_len:
        raise ValueError(f"psd must have length seg_len={seg_len}")
    freqs = np.arange(seg_len) * (sample_rate / seg_len)
    out = np.empty(p.shape[:-1] + (N_BANDS,))
    for k in range(N_BANDS):
        lo = BAND_LO_HZ + BAND_WIDTH_HZ * k
        hi = lo + BAND_WIDTH_HZ
        if k == N_BANDS - 1:
            mask = (freqs >= lo) & (freqs <= hi)
        else:
            mask = (freqs >= lo) & (freqs < hi)
        out[..., k] = p[..., mask].sum(axis=-1)
    return out


def analytic_phase(channel: np.typing.ArrayLike) -> np.ndarray:
    """Instantaneous phase of the discrete analytic signal.

    Works along the last axis of a (..., n_samples) input and returns the
    same shape. The analytic signal is built in the frequency domain:
    positive frequency coefficients are doubled, negative ones zeroed, DC
    and Nyquist kept as they are. The phase is atan2(imag, real).
    """
    x = np.asarray(channel, dtype=np.float64)
    if x.ndim < 1 or x.shape[-1] < 4:
        raise ValueError("channel must have at least 4 samples on its last axis")
    z = _analytic_signal(x)
    return np.arctan2(z.imag, z.real)


def _analytic_signal(x: np.ndarray) -> np.ndarray:
    """The discrete analytic signal of analytic_phase along the last axis."""
    n = x.shape[-1]
    gain = np.zeros(n)
    gain[0] = 1.0
    if n % 2 == 0:
        gain[n // 2] = 1.0
        gain[1:n // 2] = 2.0
    else:
        gain[1:(n + 1) // 2] = 2.0
    return np.fft.ifft(np.fft.fft(x) * gain)


def _unit_phasors(z: np.ndarray) -> np.ndarray:
    """z / |z|, the phasor of z's phase, written over z; 1 where z is 0.

    z is a complex temporary of the caller's. 1 is the phasor of phase 0,
    the phase atan2 gives at 0.
    """
    magnitude = np.abs(z)
    # 0/0 at z = 0 is overwritten below; a non-finite z stays non-finite
    with np.errstate(divide="ignore", invalid="ignore"):
        z /= magnitude
    z[magnitude == 0] = 1.0
    return z


def plv(phase_m: Sequence[float], phase_n: Sequence[float]) -> float:
    """Phase-locking value: modulus of the mean unit phasor of the phase gap."""
    pm = np.asarray(phase_m, dtype=np.float64)
    pn = np.asarray(phase_n, dtype=np.float64)
    if pm.shape != pn.shape or pm.ndim != 1 or pm.size < 1:
        raise ValueError("phase sequences must be 1-D and of equal length >= 1")
    value = np.abs(np.exp(1j * (pm - pn)).mean())
    return float(min(value, 1.0))


def plv_matrix(window_data: np.ndarray) -> np.ndarray:
    """Full symmetric PLV matrix across channels, unit diagonal."""
    data = np.asarray(window_data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("window_data must be (n_channels, n_samples)")
    return _plv_matrices(_unit_phasors(_analytic_signal(data)))


def _plv_matrices(phasors: np.ndarray) -> np.ndarray:
    """PLV matrices of (..., n_channels, n_samples) unit phasors."""
    coupling = phasors @ phasors.conj().swapaxes(-1, -2) / phasors.shape[-1]
    matrix = np.minimum(np.abs(coupling), 1.0)
    # exact symmetry and unit diagonal by construction
    upper = np.triu(matrix, k=1)
    matrix = upper + upper.swapaxes(-1, -2)
    diagonal = np.arange(matrix.shape[-1])
    matrix[..., diagonal, diagonal] = 1.0
    return matrix


def feature_names(n_channels: int = 12) -> List[str]:
    """Frozen index-to-name map of the extracted vector."""
    names: List[str] = []
    for ch in range(1, n_channels + 1):
        names.extend(f"ch{ch}_{f}" for f in TIME_DOMAIN_ORDER)
    for ch in range(1, n_channels + 1):
        names.extend(f"ch{ch}_band{k}" for k in range(1, N_BANDS + 1))
    for i in range(1, n_channels + 1):
        names.extend(f"plv_{i}_{j}" for j in range(1, n_channels + 1))
    return names


def extract_features(window, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Assemble the fixed-order feature vector of one window.

    Accepts a Window or a bare (n_channels, n_samples) array. The input is
    expected to be filtered and standardized already. Raises
    FeatureExtractionError if any value comes out non-finite.
    """
    n_channels = _window_data(window).shape[0]
    identity = ChannelStats(np.zeros(n_channels), np.ones(n_channels))
    return extract_standardized(window, [identity], cfg)[0]


def extract_standardized(
    window,
    stats: Sequence[ChannelStats],
    cfg: FeatureConfig = FeatureConfig(),
) -> np.ndarray:
    """Feature vectors of one filtered window under each channel standardization.

    Accepts a Window or a bare (n_channels, n_samples) array, not yet
    standardized. Row i of the (len(stats), n_features) result is
    extract_features(standardize(stats[i], window), cfg): its time-domain
    block bit for bit, its band powers and PLVs to rounding, because the
    segment spectra and the analytic signal are computed once, from the
    window as given (see the module docstring). Raises
    FeatureExtractionError if any value comes out non-finite.
    """
    data = _window_data(window)
    n_channels = data.shape[0]
    if not stats:
        raise ValueError("at least one ChannelStats is required")
    if any(st.mean.shape != (n_channels,) for st in stats):
        raise ValueError(f"every ChannelStats must cover the window's {n_channels} channels")
    mean = np.stack([st.mean for st in stats])[:, :, None]
    std = np.stack([st.std for st in stats])[:, :, None]
    seg_len = cfg.stft_seg_len

    spectra = _segment_spectra(data, seg_len, cfg.stft_hop)
    psd = np.repeat(_power(spectra)[None], len(stats), axis=0)
    # The periodic Hann window's DFT W is seg_len/2 at bin 0, -seg_len/4 at
    # bins 1 and seg_len-1 and 0 elsewhere, so only those bins move with m:
    # sum |S - m W|^2 = psd + m W (n_segments m W - 2 sum Re S), exactly
    # psd at m = 0.
    edge = [0, 1, seg_len - 1]
    mw = mean * np.array([seg_len / 2.0, -seg_len / 4.0, -seg_len / 4.0])
    psd[..., edge] += mw * (spectra.shape[-2] * mw - 2.0 * spectra[..., edge].real.sum(axis=-2))
    psd /= std * std
    phasors = _unit_phasors(_analytic_signal(data) - mean)

    rows = np.concatenate([
        time_domain((data - mean) / std).to_array().reshape(len(stats), -1),
        band_power(psd, cfg.sample_rate, seg_len).reshape(len(stats), -1),
        _plv_matrices(phasors).reshape(len(stats), -1),
    ], axis=1)
    if not np.all(np.isfinite(rows)):
        bad = int(np.flatnonzero(~np.isfinite(rows))[0]) % rows.shape[1]
        raise FeatureExtractionError(
            f"non-finite feature {feature_names(n_channels)[bad]} (index {bad})"
        )
    return rows


def extract_matrix(
    windows: Iterable,
    cfg: FeatureConfig = FeatureConfig(),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature matrix plus label and repetition vectors for many windows."""
    rows = []
    labels = []
    repetitions = []
    for w in windows:
        rows.append(extract_features(w, cfg))
        labels.append(getattr(w, "label", 0))
        repetitions.append(getattr(w, "repetition", 0))
    if not rows:
        raise ValueError("no windows to extract")
    return (
        np.vstack(rows),
        np.asarray(labels, dtype=np.int64),
        np.asarray(repetitions, dtype=np.int64),
    )
