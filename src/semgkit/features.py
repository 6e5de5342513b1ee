"""Per-window feature extraction: time-domain, band-power, and phase coupling.

Every window yields a fixed-order vector: for each channel the six
time-domain features (mean, variance, mean absolute value, zero-crossing
rate, RMS, waveform length), then for each channel ten band powers over
equal-width bands partitioning 20-200 Hz, then the row-major flatten of the
full channel-by-channel phase-locking-value matrix. With 12 channels that
is 72 + 120 + 144 = 336 values.

time_domain, stft_psd, band_power and analytic_phase work along the last
axis of a (..., n_samples) input: one call takes a channel or a window.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

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
    x = np.asarray(channel, dtype=np.float64)
    if x.ndim < 1:
        raise ValueError("channel must have a sample axis")
    if seg_len > x.shape[-1]:
        raise ValueError(f"seg_len {seg_len} exceeds signal length {x.shape[-1]}")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    window = _hann(seg_len)
    segments = np.lib.stride_tricks.sliding_window_view(x, seg_len, axis=-1)[..., ::hop, :]
    spectra = np.fft.fft(segments * window, axis=-1)
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
    n = x.shape[-1]
    spectrum = np.fft.fft(x)
    gain = np.zeros(n)
    gain[0] = 1.0
    if n % 2 == 0:
        gain[n // 2] = 1.0
        gain[1:n // 2] = 2.0
    else:
        gain[1:(n + 1) // 2] = 2.0
    z = np.fft.ifft(spectrum * gain)
    return np.arctan2(z.imag, z.real)


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
    phasors = np.exp(1j * analytic_phase(data))
    coupling = phasors @ phasors.conj().T / data.shape[1]
    matrix = np.minimum(np.abs(coupling), 1.0)
    # exact symmetry and unit diagonal by construction
    upper = np.triu(matrix, k=1)
    matrix = upper + upper.T
    np.fill_diagonal(matrix, 1.0)
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
    data = np.asarray(getattr(window, "data", window), dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("window data must be (n_channels, n_samples)")
    psd = stft_psd(data, cfg.sample_rate, cfg.stft_seg_len, cfg.stft_hop)
    vector = np.concatenate([
        time_domain(data).to_array().ravel(),
        band_power(psd, cfg.sample_rate, cfg.stft_seg_len).ravel(),
        plv_matrix(data).ravel(),
    ])
    if not np.all(np.isfinite(vector)):
        bad = int(np.flatnonzero(~np.isfinite(vector))[0])
        raise FeatureExtractionError(
            f"non-finite feature {feature_names(data.shape[0])[bad]} (index {bad})"
        )
    return vector


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
