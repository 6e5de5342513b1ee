"""Recording IO, synthetic generation, windowing, and split plans."""
from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semgkit.dataset import (
    CSV_COLUMNS,
    Recording,
    RecordingFormatError,
    RecordingParseError,
    SplitPlan,
    SyntheticSpec,
    Window,
    generate_synthetic,
    load_recording,
    make_cv_plans,
    save_recording,
    segment,
    split_by_repetition,
    _square_sum,
)


def small_recording(seed: int = 0, n: int = 200) -> Recording:
    rng = np.random.default_rng(seed)
    stimulus = np.zeros(n, dtype=np.int64)
    stimulus[50:120] = 1
    stimulus[150:190] = 2
    repetition = np.ones(n, dtype=np.int64)
    return Recording(
        subject_id=3,
        sample_rate=2000.0,
        channels=rng.standard_normal((12, n)),
        stimulus=stimulus,
        repetition=repetition,
    )


class TestCsvRoundTrip:
    def test_bit_identical(self, tmp_path):
        rec = small_recording()
        path = tmp_path / "rec.csv"
        save_recording(rec, path)
        back = load_recording(path, sample_rate=rec.sample_rate, subject_id=3)
        np.testing.assert_array_equal(back.channels, rec.channels)
        np.testing.assert_array_equal(back.stimulus, rec.stimulus)
        np.testing.assert_array_equal(back.repetition, rec.repetition)
        assert back.subject_id == 3

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "rec.csv"
        save_recording(small_recording(), path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(CSV_COLUMNS)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(RecordingFormatError, match="expected header"):
            load_recording(path)

    def test_bad_cell_names_line(self, tmp_path):
        rec = small_recording(n=40)
        path = tmp_path / "bad.csv"
        save_recording(rec, path)
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[2] = "oops"
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordingParseError, match="line 6.*ch3"):
            load_recording(path)

    def test_short_row_names_line(self, tmp_path):
        rec = small_recording(n=30)
        path = tmp_path / "bad.csv"
        save_recording(rec, path)
        lines = path.read_text().splitlines()
        lines[3] = "1.0,2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordingFormatError, match="line 4"):
            load_recording(path)

    def test_non_integer_stimulus_rejected(self, tmp_path):
        rec = small_recording(n=30)
        path = tmp_path / "bad.csv"
        save_recording(rec, path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[12] = "1.5"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordingParseError, match="line 3.*stimulus"):
            load_recording(path)

    @pytest.mark.parametrize(
        "column, cell, value", [(3, "nan", "nan"), (0, "-inf", "-inf"), (13, "inf", "inf")]
    )
    def test_non_finite_cell_names_line_and_column(self, tmp_path, column, cell, value):
        rec = small_recording(n=30)
        path = tmp_path / "bad.csv"
        save_recording(rec, path)
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[column] = cell
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordingParseError) as err:
            load_recording(path)
        assert str(err.value) == (
            f"line 5: non-finite {CSV_COLUMNS[column]} value {float(value)!r}"
        )

    def test_bad_value_line_counts_skipped_lines(self, tmp_path):
        # np.loadtxt skips blank and comment lines; the message names the
        # file line all the same
        rec = small_recording(n=30)
        path = tmp_path / "bad.csv"
        save_recording(rec, path)
        lines = path.read_text().splitlines()
        for at, column, cell in ((6, 3, "nan"), (9, 12, "1.5")):
            edited = list(lines)
            cells = edited[at].split(",")
            cells[column] = cell
            edited[at] = ",".join(cells)
            edited[2:2] = ["", "# a comment"]
            path.write_text("\n".join(edited) + "\n")
            with pytest.raises(RecordingParseError, match=f"^line {at + 3}: "):
                load_recording(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n")
        with pytest.raises(RecordingFormatError, match="no sample rows"):
            load_recording(path)


class TestRecordingValidation:
    def test_repetition_must_be_constant_per_run(self):
        stim = np.array([1, 1, 1, 1])
        rep = np.array([1, 1, 2, 2])
        with pytest.raises(ValueError, match="constant"):
            Recording(0, 2000.0, np.zeros((2, 4)), stim, rep)

    def test_stimulus_range(self):
        with pytest.raises(ValueError, match="stimulus"):
            Recording(0, 2000.0, np.zeros((2, 3)), np.array([0, 19, 0]), np.ones(3))

    def test_repetition_range(self):
        with pytest.raises(ValueError, match="repetition"):
            Recording(0, 2000.0, np.zeros((2, 3)), np.zeros(3), np.array([1, 7, 1]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_names_channel_and_index(self, value):
        recording = small_recording()
        channels = recording.channels.copy()
        channels[4, 17] = value
        channels[9, 3] = value  # an earlier sample of a later channel
        with pytest.raises(ValueError) as err:
            replace(recording, channels=channels)
        assert str(err.value) == f"non-finite ch5 sample 17: {float(value)!r}"

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Window(np.zeros((2, 0)), 1, 1, 0)
        with pytest.raises(ValueError):
            Window(np.zeros((2, 5)), 19, 1, 0)
        with pytest.raises(ValueError):
            Window(np.zeros((2, 5)), 1, 0, 0)


class TestSegment:
    def test_count_law_on_synthetic(self, tiny_recording):
        # hold runs are 1600 samples: floor((1600 - 1280) / 320) + 1 = 2
        windows = segment(tiny_recording, window_len=1280, step=320)
        assert len(windows) == 3 * 6 * 2
        labels = sorted({w.label for w in windows})
        assert labels == [1, 2, 3]

    def test_windows_are_views_into_recording(self, tiny_recording):
        w = segment(tiny_recording, window_len=1280, step=320)[0]
        assert w.data.base is not None
        start = int(np.flatnonzero(tiny_recording.stimulus == 1)[0])
        np.testing.assert_array_equal(
            w.data, tiny_recording.channels[:, start:start + 1280]
        )

    def test_include_rest(self, tiny_recording):
        # rest runs are 500 samples, so use a window that fits inside them
        with_rest = segment(tiny_recording, window_len=320, step=320, include_rest=True)
        without = segment(tiny_recording, window_len=320, step=320, include_rest=False)
        assert len(with_rest) > len(without)
        assert {w.label for w in with_rest} == {0, 1, 2, 3}

    def test_short_run_yields_nothing(self):
        stim = np.concatenate([np.ones(100, dtype=np.int64), np.zeros(100, dtype=np.int64)])
        rec = Recording(0, 2000.0, np.zeros((2, 200)), stim, np.ones(200, dtype=np.int64))
        assert segment(rec, window_len=128, step=32) == []

    @settings(max_examples=60, deadline=None)
    @given(
        run_lens=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=6),
        window_len=st.integers(min_value=8, max_value=120),
        step=st.integers(min_value=1, max_value=60),
    )
    def test_count_law_property(self, run_lens, window_len, step):
        # labels cycle 1,2,3 so consecutive runs never merge
        stim = np.concatenate([
            np.full(n, (i % 3) + 1, dtype=np.int64) for i, n in enumerate(run_lens)
        ])
        if stim.size < window_len:
            return
        rec = Recording(
            0, 2000.0, np.zeros((1, stim.size)), stim, np.ones(stim.size, dtype=np.int64)
        )
        windows = segment(rec, window_len=window_len, step=step)
        expected = 0
        changes = np.flatnonzero(np.diff(stim) != 0) + 1
        bounds = np.concatenate([[0], changes, [stim.size]])
        for a, b in zip(bounds[:-1], bounds[1:]):
            run = b - a
            if run >= window_len:
                expected += (run - window_len) // step + 1
        assert len(windows) == expected

    def test_labels_pure_within_window(self, tiny_recording):
        for w in segment(tiny_recording, window_len=640, step=320, include_rest=True):
            assert w.data.shape == (12, 640)

    def test_validation(self, tiny_recording):
        with pytest.raises(ValueError):
            segment(tiny_recording, window_len=0)
        with pytest.raises(ValueError):
            segment(tiny_recording, window_len=10**9)


class TestPlans:
    def test_fixed_plans(self):
        plans = make_cv_plans()
        assert len(plans) == 3
        assert plans[0].train_repetitions == frozenset({2, 4, 5, 6})
        assert plans[0].test_repetitions == frozenset({1, 3})
        assert plans[1].train_repetitions == frozenset({1, 3, 4, 6})
        assert plans[1].test_repetitions == frozenset({2, 5})
        assert plans[2].train_repetitions == frozenset({1, 2, 3, 5})
        assert plans[2].test_repetitions == frozenset({4, 6})
        for p in plans:
            assert p.train_repetitions | p.test_repetitions == set(range(1, 7))

    def test_plan_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            SplitPlan(frozenset({1, 2}), frozenset({2, 3}))

    def test_split_by_repetition(self, tiny_recording):
        windows = segment(tiny_recording)
        plan = make_cv_plans()[0]
        train, test = split_by_repetition(windows, plan)
        assert len(train) + len(test) == len(windows)
        assert all(w.repetition in plan.train_repetitions for w in train)
        assert all(w.repetition in plan.test_repetitions for w in test)

    def test_split_rejects_unassigned_repetition(self, tiny_recording):
        windows = segment(tiny_recording)
        plan = SplitPlan(frozenset({1}), frozenset({2}))
        with pytest.raises(ValueError, match="neither side"):
            split_by_repetition(windows, plan)


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(n_classes=3, repetitions=2, hold_duration=0.4,
                             rest_duration=0.2, seed=5)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        np.testing.assert_array_equal(a.channels, b.channels)
        np.testing.assert_array_equal(a.stimulus, b.stimulus)

    def test_schedule_layout(self):
        spec = SyntheticSpec(n_classes=2, repetitions=2, hold_duration=0.4,
                             rest_duration=0.2, seed=0)
        rec = generate_synthetic(spec)
        rest_n, hold_n = 400, 800
        block = rest_n + hold_n
        assert rec.n_samples == 2 * 2 * block
        assert rec.n_channels == 12
        np.testing.assert_array_equal(rec.stimulus[:rest_n], 0)
        np.testing.assert_array_equal(rec.stimulus[rest_n:block], 1)
        np.testing.assert_array_equal(rec.stimulus[block + rest_n:2 * block], 2)
        np.testing.assert_array_equal(rec.repetition[:2 * block], 1)
        np.testing.assert_array_equal(rec.repetition[2 * block:], 2)

    def test_seed_changes_noise_only(self):
        base = dict(n_classes=2, repetitions=1, hold_duration=0.4,
                    rest_duration=0.2, class_seed=11)
        a = generate_synthetic(SyntheticSpec(seed=0, **base))
        b = generate_synthetic(SyntheticSpec(seed=1, **base))
        assert not np.array_equal(a.channels, b.channels)
        np.testing.assert_array_equal(a.stimulus, b.stimulus)

    def test_hold_sections_louder_than_rest(self):
        spec = SyntheticSpec(n_classes=2, repetitions=1, hold_duration=0.5,
                             rest_duration=0.5, seed=1, snr_db=40.0)
        rec = generate_synthetic(spec)
        hold = rec.channels[:, rec.stimulus > 0]
        rest = rec.channels[:, rec.stimulus == 0]
        assert np.sqrt(np.mean(hold**2)) > 2.0 * np.sqrt(np.mean(rest**2))

    def test_mains_component_present(self):
        spec = SyntheticSpec(n_classes=2, repetitions=1, hold_duration=0.5,
                             rest_duration=0.5, seed=2, mains_hz=74.0)
        rec = generate_synthetic(spec)
        x = rec.channels[0]
        freqs = np.fft.rfftfreq(x.size, 1.0 / spec.sample_rate)
        spectrum = np.abs(np.fft.rfft(x))
        peak = freqs[np.argmax(spectrum)]
        assert abs(peak - 74.0) < 2.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_classes=1)
        with pytest.raises(ValueError):
            SyntheticSpec(n_classes=19)
        with pytest.raises(ValueError):
            SyntheticSpec(repetitions=0)
        with pytest.raises(ValueError):
            SyntheticSpec(hold_duration=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(mains_hz=1500.0)


class TestSquareSum:
    # around numpy's 8-wide unrolled block (128), the run size of
    # _square_sum (2**16), and the bench's transfer and train recordings
    LENGTHS = (1, 7, 8, 9, 127, 128, 129, 2**16 - 1, 2**16, 2**16 + 1,
               3 * 2**16 + 5, 12 * 432000, 12 * 972000)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_equals_numpy_sum_of_squares_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 0.1, 1.0, 10.0, 1e3):
            x = rng.standard_normal(n)
            x *= scale
            want = np.sum(x * x)
            assert _square_sum(x) == want
            if n % 12 == 0:  # as the generator calls it, on (12, T) channels
                assert _square_sum(x.reshape(12, -1)) == want


def test_generation_holds_one_full_size_array():
    # the carriers are drawn, filtered and scaled in the channels array
    # itself, so the traced peak stays near that one array (the labels
    # and the mains term's row buffers add about 0.4 of it)
    spec = SyntheticSpec(n_classes=6, hold_duration=1.5, seed=3)
    tracemalloc.start()
    try:
        recording = generate_synthetic(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * recording.channels.nbytes
