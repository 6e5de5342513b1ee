"""Recordings, synthetic signal generation, windowing, and split plans.

A Recording holds 12 channels of raw sEMG sampled at a common rate, with a
per-sample gesture label (stimulus, 0 = rest) and repetition index. Windows
are fixed-length slices whose samples all share one stimulus value. Train
and test sets are formed by assigning whole repetitions to one side, so
overlapping windows can never straddle the split.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import dsp

CSV_COLUMNS: Tuple[str, ...] = tuple(f"ch{i}" for i in range(1, 13)) + (
    "stimulus",
    "repetition",
)
N_CHANNELS = 12
MAX_CLASSES = 18
MAX_REPETITIONS = 6


class RecordingFormatError(ValueError):
    """The file does not follow the documented CSV layout."""


class RecordingParseError(RecordingFormatError):
    """A cell could not be parsed; the message names the file line."""


@dataclass(frozen=True)
class Recording:
    """Multichannel raw sEMG with per-sample stimulus and repetition labels.

    Every channel sample must be finite.
    """

    subject_id: int
    sample_rate: float
    channels: np.ndarray
    stimulus: np.ndarray
    repetition: np.ndarray

    def __post_init__(self) -> None:
        ch = np.asarray(self.channels, dtype=np.float64)
        st = np.asarray(self.stimulus, dtype=np.int64)
        rep = np.asarray(self.repetition, dtype=np.int64)
        if ch.ndim != 2 or ch.shape[1] == 0:
            raise ValueError("channels must be a non-empty (n_channels, T) array")
        t = ch.shape[1]
        if st.shape != (t,) or rep.shape != (t,):
            raise ValueError("stimulus and repetition must have length T")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")
        for i, row in enumerate(ch):  # a row at a time: no full-size mask
            if not np.isfinite(row).all():
                bad = int(np.flatnonzero(~np.isfinite(row))[0])
                raise ValueError(
                    f"non-finite ch{i + 1} sample {bad}: {float(row[bad])!r}"
                )
        if st.min() < 0 or st.max() > MAX_CLASSES:
            raise ValueError(f"stimulus values must lie in 0..{MAX_CLASSES}")
        if rep.min() < 1 or rep.max() > MAX_REPETITIONS:
            raise ValueError(f"repetition values must lie in 1..{MAX_REPETITIONS}")
        for start, end in _runs(st):
            if st[start] > 0 and not np.all(rep[start:end] == rep[start]):
                raise ValueError(
                    "repetition must be constant within a nonzero-stimulus run"
                )
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "stimulus", st)
        object.__setattr__(self, "repetition", rep)

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]

    @property
    def n_channels(self) -> int:
        return self.channels.shape[0]


@dataclass(frozen=True)
class Window:
    """Fixed-length multichannel segment carrying one gesture label."""

    data: np.ndarray
    label: int
    repetition: int
    subject_id: int

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] == 0:
            raise ValueError("window data must be a non-empty 2-D array")
        if not 0 <= self.label <= MAX_CLASSES:
            raise ValueError(f"label must lie in 0..{MAX_CLASSES}")
        if not 1 <= self.repetition <= MAX_REPETITIONS:
            raise ValueError(f"repetition must lie in 1..{MAX_REPETITIONS}")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint repetition sets for one train/test split."""

    train_repetitions: frozenset
    test_repetitions: frozenset

    def __post_init__(self) -> None:
        train = frozenset(int(r) for r in self.train_repetitions)
        test = frozenset(int(r) for r in self.test_repetitions)
        if train & test:
            raise ValueError("train and test repetitions must be disjoint")
        if not (train | test) <= set(range(1, MAX_REPETITIONS + 1)):
            raise ValueError(f"repetitions must lie in 1..{MAX_REPETITIONS}")
        object.__setattr__(self, "train_repetitions", train)
        object.__setattr__(self, "test_repetitions", test)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic sEMG generator.

    Each gesture class imposes a distinct per-channel amplitude profile on
    band-limited (20-200 Hz) noise carriers and adds a class-specific
    narrowband source shared across channels (which couples their phases).
    Mains interference at mains_hz and its second harmonic, plus broadband
    noise at snr_db, ride on top. ``class_seed`` pins the class profiles
    independently of the noise realization, so two specs with equal
    class_seed but different seeds describe the same gestures recorded
    under different conditions.
    """

    n_classes: int = 18
    repetitions: int = 6
    hold_duration: float = 5.0
    rest_duration: float = 3.0
    sample_rate: float = 2000.0
    snr_db: float = 20.0
    mains_hz: float = 74.0
    seed: int = 0
    class_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 2 <= self.n_classes <= MAX_CLASSES:
            raise ValueError(f"n_classes must lie in 2..{MAX_CLASSES}")
        if not 1 <= self.repetitions <= MAX_REPETITIONS:
            raise ValueError(f"repetitions must lie in 1..{MAX_REPETITIONS}")
        if self.hold_duration <= 0 or self.rest_duration <= 0:
            raise ValueError("durations must be > 0")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")
        if not 0 < self.mains_hz < self.sample_rate / 2:
            raise ValueError("mains_hz must lie in (0, sample_rate/2)")


def _runs(values: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal constant runs of a 1-D array as (start, end) pairs."""
    n = values.shape[0]
    if n == 0:
        return []
    change = np.flatnonzero(np.diff(values) != 0) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [n]])
    return list(zip(starts.tolist(), ends.tolist()))


def load_recording(
    path,
    sample_rate: float = 2000.0,
    subject_id: int = 0,
) -> Recording:
    """Read a recording from the documented CSV layout.

    The header must be exactly ``ch1,...,ch12,stimulus,repetition``; each
    following row is one sample. Values are finite floating-point volts
    for the channels and integers for stimulus and repetition.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        header_line = handle.readline()
        header = tuple(h.strip() for h in header_line.rstrip("\n").split(","))
        if header != CSV_COLUMNS:
            raise RecordingFormatError(
                f"expected header {','.join(CSV_COLUMNS)}; got {','.join(header)}"
            )
        try:
            with warnings.catch_warnings():
                # empty input is reported as a format error below
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(handle, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError:
            handle.seek(0)
            handle.readline()
            _locate_bad_cell(handle)
            raise
    if table.size == 0:
        raise RecordingFormatError("file contains no sample rows")
    if table.shape[1] != len(CSV_COLUMNS):
        raise RecordingFormatError(
            f"expected {len(CSV_COLUMNS)} columns, got {table.shape[1]}"
        )
    rows, cols = np.nonzero(~np.isfinite(table))
    if rows.size:
        row, col = int(rows[0]), int(cols[0])
        value = float(table[row, col])
        raise RecordingParseError(
            f"line {_data_line(path, row)}: non-finite {CSV_COLUMNS[col]} value {value!r}"
        )
    stim = table[:, 12]
    rep = table[:, 13]
    for name, col in (("stimulus", stim), ("repetition", rep)):
        if not np.all(col == np.round(col)):
            bad = int(np.flatnonzero(col != np.round(col))[0])
            raise RecordingParseError(
                f"line {_data_line(path, bad)}: non-integer {name} value "
                f"{float(col[bad])!r}"
            )
    return Recording(
        subject_id=subject_id,
        sample_rate=sample_rate,
        channels=np.ascontiguousarray(table[:, :12].T),
        stimulus=stim.astype(np.int64),
        repetition=rep.astype(np.int64),
    )


def _data_line(path: Path, row: int) -> int:
    """The file line of data row row, counting the header and the lines
    np.loadtxt skips: empty ones and those that hold only a '#' comment."""
    with path.open("r", encoding="utf-8", newline="") as handle:
        handle.readline()
        lines = (
            n for n, text in enumerate(handle, 2) if text.split("#")[0].rstrip("\r\n")
        )
        return next(islice(lines, row, None))


def _locate_bad_cell(handle) -> None:
    """Re-scan the data rows to name the first unparseable cell."""
    reader = csv.reader(handle)
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise RecordingFormatError(
                f"line {line_no}: expected {len(CSV_COLUMNS)} fields, got {len(row)}"
            )
        for name, cell in zip(CSV_COLUMNS, row):
            try:
                float(cell)
            except ValueError:
                raise RecordingParseError(
                    f"line {line_no}: could not parse {name} value {cell!r}"
                ) from None


def save_recording(recording: Recording, path) -> None:
    """Write a recording in the CSV layout that load_recording reads.

    Channel values are written with repr precision, so a save/load round
    trip reproduces the arrays bit for bit.
    """
    path = Path(path)
    ch = recording.channels
    stim = recording.stimulus
    rep = recording.repetition
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for t in range(recording.n_samples):
            cells = [repr(float(v)) for v in ch[:, t]]
            cells.append(str(int(stim[t])))
            cells.append(str(int(rep[t])))
            handle.write(",".join(cells) + "\n")


def generate_synthetic(spec: SyntheticSpec) -> Recording:
    """Deterministic synthetic recording following the hold/rest schedule.

    For each repetition, the schedule is rest then hold for class 1, rest
    then hold for class 2, and so on. The generator is a pure function of
    the spec.
    """
    fs = spec.sample_rate
    hold_n = max(int(round(spec.hold_duration * fs)), 1)
    rest_n = max(int(round(spec.rest_duration * fs)), 1)
    block_n = rest_n + hold_n
    total = spec.repetitions * spec.n_classes * block_n

    profile_entropy = spec.seed if spec.class_seed is None else spec.class_seed
    rng_profile = np.random.default_rng([int(profile_entropy), 101])
    rng_noise = np.random.default_rng([int(spec.seed), 202])

    amplitude = rng_profile.uniform(0.4, 1.6, size=(spec.n_classes, N_CHANNELS))
    shared_gain = rng_profile.uniform(0.3, 0.9, size=(spec.n_classes, N_CHANNELS))
    band_idx = rng_profile.integers(0, 10, size=spec.n_classes)

    band_lo = 20.0 + 18.0 * band_idx
    carrier_bp = dsp.design_bandpass(20.0, 200.0, order=5, sample_rate=fs)
    narrow_filters = {}
    for c in range(spec.n_classes):
        lo, hi = band_lo[c], band_lo[c] + 18.0
        key = (lo, hi)
        if key not in narrow_filters:
            narrow_filters[key] = dsp.design_bandpass(lo, hi, order=3, sample_rate=fs)

    # one full-size array throughout: each carrier row is drawn, filtered
    # and brought to unit RMS in place, in the stream order of one
    # (N_CHANNELS, total) draw
    channels = np.empty((N_CHANNELS, total))
    for row in channels:
        rng_noise.standard_normal(out=row)
        row[:] = dsp.filter_channels(carrier_bp, row)
        row /= np.sqrt(np.mean(row * row))

    stimulus = np.zeros(total, dtype=np.int64)
    repetition = np.ones(total, dtype=np.int64)
    rest_scale = 0.08
    pad = 512  # discard the narrowband filter's startup transient

    pos = 0
    for r in range(1, spec.repetitions + 1):
        for c in range(1, spec.n_classes + 1):
            rest_sl = slice(pos, pos + rest_n)
            hold_sl = slice(pos + rest_n, pos + block_n)
            channels[:, rest_sl] *= rest_scale
            stimulus[hold_sl] = c
            repetition[rest_sl] = r
            repetition[hold_sl] = r

            channels[:, hold_sl] *= amplitude[c - 1][:, None]
            lo = band_lo[c - 1]
            nb = narrow_filters[(lo, lo + 18.0)]
            raw = rng_noise.standard_normal(hold_n + pad)
            shared = dsp.filter_channels(nb, raw)[pad:]
            shared = shared / np.sqrt(np.mean(shared * shared))
            channels[:, hold_sl] += shared_gain[c - 1][:, None] * shared
            pos += block_n

    t_axis = np.arange(total) / fs
    ramp = np.empty(total)
    wave = np.empty(total)
    mains_amp = 0.35
    phases = rng_noise.uniform(0.0, 2.0 * np.pi, size=(2, N_CHANNELS))
    for harmonic, phase in zip((1.0, 2.0), phases):
        np.multiply(2.0 * np.pi * harmonic * spec.mains_hz, t_axis, out=ramp)
        for row, row_phase in zip(channels, phase):
            np.add(ramp, row_phase, out=wave)
            np.sin(wave, out=wave)
            wave *= mains_amp / harmonic
            row += wave

    rms_clean = np.sqrt(_square_sum(channels) / channels.size)
    noise_std = rms_clean / (10.0 ** (spec.snr_db / 20.0))
    for row in channels:
        rng_noise.standard_normal(out=wave)
        wave *= noise_std
        row += wave

    return Recording(
        subject_id=0,
        sample_rate=fs,
        channels=channels,
        stimulus=stimulus,
        repetition=repetition,
    )


# _square_sum squares at most this many values at a time
_SUM_BLOCK = 1 << 16


def _square_sum(x: np.ndarray) -> np.float64:
    """np.sum(x * x), bit for bit, without a full-size x * x.

    numpy sums n > 128 contiguous float64 values by splitting them at
    n // 2 rounded down to a multiple of 8 and adding the two halves' sums,
    each found the same way. Splitting the flattened x by that rule down to
    runs of at most _SUM_BLOCK values, and squaring one run at a time, adds
    the same partial sums in the same order.
    """
    flat = np.ravel(x)

    def run_sum(start: int, n: int) -> np.float64:
        if n <= _SUM_BLOCK:
            run = flat[start:start + n]
            return np.sum(run * run)
        half = n // 2
        half -= half % 8
        return run_sum(start, half) + run_sum(start + half, n - half)

    return run_sum(0, flat.size)


def segment(
    recording: Recording,
    window_len: int = 1280,
    step: int = 320,
    include_rest: bool = False,
) -> List[Window]:
    """Slide a fixed window over each constant-stimulus run.

    Within every maximal run of constant stimulus, windows start at the run
    start and advance by ``step``, so a run of length L yields
    floor((L - window_len)/step) + 1 windows (0 when L < window_len). A
    window whose samples would mix stimulus values is never produced. Rest
    (stimulus 0) runs are skipped unless ``include_rest``.
    """
    if window_len < 1 or step < 1:
        raise ValueError("window_len and step must be >= 1")
    if window_len > recording.n_samples:
        raise ValueError(
            f"window_len {window_len} exceeds recording length {recording.n_samples}"
        )
    windows: List[Window] = []
    for start, end in _runs(recording.stimulus):
        label = int(recording.stimulus[start])
        if label == 0 and not include_rest:
            continue
        for off in range(start, end - window_len + 1, step):
            windows.append(
                Window(
                    data=recording.channels[:, off:off + window_len],
                    label=label,
                    repetition=int(recording.repetition[off]),
                    subject_id=recording.subject_id,
                )
            )
    return windows


def make_cv_plans() -> Tuple[SplitPlan, SplitPlan, SplitPlan]:
    """The three fixed repetition-grouped cross-validation splits."""
    return (
        SplitPlan(frozenset({2, 4, 5, 6}), frozenset({1, 3})),
        SplitPlan(frozenset({1, 3, 4, 6}), frozenset({2, 5})),
        SplitPlan(frozenset({1, 2, 3, 5}), frozenset({4, 6})),
    )


def split_by_repetition(
    windows: Sequence[Window],
    plan: SplitPlan,
) -> Tuple[List[Window], List[Window]]:
    """Partition windows into (train, test) by their repetition index."""
    train: List[Window] = []
    test: List[Window] = []
    for w in windows:
        if w.repetition in plan.train_repetitions:
            train.append(w)
        elif w.repetition in plan.test_repetitions:
            test.append(w)
        else:
            raise ValueError(
                f"window repetition {w.repetition} is in neither side of the plan"
            )
    return train, test
