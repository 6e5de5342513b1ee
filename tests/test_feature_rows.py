"""extract_standardized and the plan rows built from it, against the
per-window reference extract_features(standardize(stats, window)), plus
metamorphic checks of the front end (channel gains and channel order) and
of whole train runs under power-of-two channel gains and a monotone class
relabeling."""
from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from semgkit.dataset import (
    SyntheticSpec,
    generate_synthetic,
    make_cv_plans,
    save_recording,
    segment,
)
from semgkit.dsp import ChannelStats, standardize
from semgkit.features import (
    FeatureConfig,
    FeatureExtractionError,
    band_power,
    extract_features,
    extract_standardized,
    plv_matrix,
    stft_psd,
    time_domain,
)
from semgkit.gbdt import TrainParams
from semgkit.pipeline import (
    PipelineConfig,
    _filter_recording,
    _plan_rows,
    _plan_sides,
    _worker_pool,
    run_pipeline,
)

N_TD = 72  # the time-domain block of 12 channels

# bin 1 of a 32-sample segment is 62.5 Hz, inside band 3, so the mean's
# correction of the Hann window's DC leakage reaches a feature
CASES = {
    "default": (FeatureConfig(), 1280),
    "seg_len_32": (FeatureConfig(stft_seg_len=32, stft_hop=16), 1280),
    "odd_length": (FeatureConfig(), 1001),
}


def _window_and_stats(n_samples, seed):
    """A window with channel offsets and scales, and three stats near them."""
    rng = np.random.default_rng(seed)
    offset = rng.uniform(-2.0, 2.0, 12)
    scale = rng.uniform(0.5, 3.0, 12)
    window = offset[:, None] + scale[:, None] * rng.standard_normal((12, n_samples))
    stats = [
        ChannelStats(offset + rng.uniform(-0.5, 0.5, 12), scale * rng.uniform(0.8, 1.2, 12))
        for _ in range(3)
    ]
    return window, stats


@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_equal_extract_features_of_the_standardized_window(case):
    cfg, n_samples = CASES[case]
    for seed in range(3):
        window, stats = _window_and_stats(n_samples, seed)
        rows = extract_standardized(window, stats, cfg)
        assert rows.shape == (3, 336)
        for row, st in zip(rows, stats):
            want = extract_features(standardize(st, window), cfg)
            assert np.array_equal(row[:N_TD], want[:N_TD])
            np.testing.assert_allclose(row, want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_identity_stats_give_the_blockwise_features_bit_for_bit(case):
    cfg, n_samples = CASES[case]
    window, _ = _window_and_stats(n_samples, 7)
    psd = stft_psd(window, cfg.sample_rate, cfg.stft_seg_len, cfg.stft_hop)
    want = np.concatenate([
        time_domain(window).to_array().ravel(),
        band_power(psd, cfg.sample_rate, cfg.stft_seg_len).ravel(),
        plv_matrix(window).ravel(),
    ])
    assert np.array_equal(extract_features(window, cfg), want)


def test_zero_after_the_mean_is_phase_zero():
    # a channel equal to its mean (0.25, exact through the FFTs) has
    # analytic signal 0; atan2 gives it phase 0, so its phasor must be 1
    window, _ = _window_and_stats(1280, 3)
    window[4] = 0.25
    stats = ChannelStats(np.full(12, 0.25), np.ones(12))
    plv = extract_standardized(window, [stats])[0, 192:].reshape(12, 12)
    assert plv[4, 5] > 0.0
    np.testing.assert_allclose(plv, plv_matrix(standardize(stats, window)), rtol=1e-9)


def test_stats_must_cover_the_channels():
    window, stats = _window_and_stats(1280, 0)
    with pytest.raises(ValueError, match="at least one ChannelStats"):
        extract_standardized(window, [])
    with pytest.raises(ValueError, match="cover the window's 12 channels"):
        extract_standardized(window, [ChannelStats(np.zeros(11), np.ones(11))])


def test_non_finite_row_names_the_feature():
    window, stats = _window_and_stats(1280, 0)
    window[2, 5] = np.nan
    with pytest.raises(FeatureExtractionError, match="ch3_mean"):
        extract_standardized(window, stats)


def test_permuting_channels_permutes_every_block():
    cfg = FeatureConfig()
    window, stats = _window_and_stats(1280, 5)
    perm = np.random.default_rng(5).permutation(12)
    rows = extract_standardized(window, stats, cfg)
    permuted = extract_standardized(
        window[perm], [ChannelStats(st.mean[perm], st.std[perm]) for st in stats], cfg
    )
    for row, got in zip(rows, permuted):
        td, bands, plv = row[:72], row[72:192], row[192:]
        assert np.array_equal(got[:72], td.reshape(12, 6)[perm].ravel())
        np.testing.assert_allclose(
            got[72:192], bands.reshape(12, 10)[perm].ravel(), rtol=1e-9, atol=0.0
        )
        P = np.eye(12)[perm]
        np.testing.assert_allclose(
            got[192:], (P @ plv.reshape(12, 12) @ P.T).ravel(), rtol=1e-9, atol=0.0
        )


SPEC = SyntheticSpec(n_classes=3, repetitions=6, hold_duration=0.8, rest_duration=0.25)


def _rows_of(config, recording):
    windows = segment(_filter_recording(config, recording), config.window_len, config.step)
    with _worker_pool(windows, 1) as pool:
        return windows, _plan_rows(config, windows, make_cv_plans(), {}, pool)


def test_plan_rows_equal_the_per_window_reference():
    config = PipelineConfig(synthetic=SPEC)
    windows, plan_rows = _rows_of(config, generate_synthetic(replace(SPEC, seed=2)))
    for number, (plan, (stats, X_train, y_train, X_test, y_test)) in enumerate(
        zip(make_cv_plans(), plan_rows), start=1
    ):
        for side, X, y in zip(_plan_sides(windows, plan, number), (X_train, X_test),
                              (y_train, y_test)):
            want = np.stack([extract_features(standardize(stats, w)) for w in side])
            assert np.array_equal(X[:, :N_TD], want[:, :N_TD])
            np.testing.assert_allclose(X, want, rtol=1e-9, atol=0.0)
            assert np.array_equal(y, [w.label for w in side])


def test_channel_gains_leave_every_plan_row_unchanged():
    # the filters are linear and each plan standardizes with its train
    # side's stats, so a positive gain per channel cancels
    config = PipelineConfig(synthetic=SPEC)
    recording = generate_synthetic(replace(SPEC, seed=3))
    gains = np.random.default_rng(3).uniform(0.2, 5.0, recording.n_channels)
    # _filter_recording filters in place, so the gained copy comes first
    gained_recording = replace(recording, channels=recording.channels * gains[:, None])
    _, plain = _rows_of(config, recording)
    _, gained = _rows_of(config, gained_recording)
    for (_, *a), (_, *b) in zip(plain, gained):
        for x, y in zip(a, b):
            np.testing.assert_allclose(y, x, rtol=1e-9, atol=0.0)


def _splits(body):
    """The number of split nodes in a saved model body's trees."""
    return sum(
        np.count_nonzero(np.array(tree["feature"]) >= 0)
        for rnd in body["trees"] for tree in rnd
    )


def test_power_of_two_channel_gains_change_only_the_saved_scales(tmp_path):
    # scaling by 2^m commutes with every rounded +, x and sqrt (short of
    # overflow and subnormals), so the filtered channels are the scaled
    # ones, every standardized row is the same, and so is every tree
    recording = generate_synthetic(SPEC)
    exponents = np.array([-7, -6, -5, -3, -2, -1, 0, 1, 2, 4, 5, 6])
    gains = np.ldexp(1.0, exponents)
    recordings = {
        "plain": recording,
        "gained": replace(recording, channels=np.ldexp(recording.channels, exponents[:, None])),
    }
    # no GOSS: every round keeps all rows, so that the trees split
    params = TrainParams(num_leaves=4, max_rounds=3, min_data_in_leaf=5, max_bins=15)
    for name, rec in recordings.items():
        save_recording(rec, tmp_path / f"{name}.csv")
        run_pipeline(PipelineConfig(
            data_path=str(tmp_path / f"{name}.csv"), params=params, use_ensemble=False,
            out_dir=str(tmp_path / name),
        ), mode="train")
    plain, gained = tmp_path / "plain", tmp_path / "gained"
    for report in ("metrics.csv", "per_movement.csv", "confusion.csv"):
        assert (gained / report).read_bytes() == (plain / report).read_bytes(), report
    models = sorted(path.relative_to(plain) for path in plain.glob("model/*/model.json"))
    assert len(models) == 3
    for model in models:
        want, got = (json.loads((root / model).read_text()) for root in (plain, gained))
        scales = want.pop("standardization"), got.pop("standardization")
        for key in ("mean", "std"):
            assert np.array_equal(np.array(scales[1][key]), np.array(scales[0][key]) * gains)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert _splits(want) > 0


def _relabeled(text, columns):
    """A report's text with the class ids s in its first column (and, with
    columns, in its pred_<s> header cells) written as 2s + 1."""
    def relabel(cell):
        return str(2 * int(cell) + 1) if cell.isdigit() else cell

    header, *rows = text.splitlines()
    if columns:
        header = ",".join(
            f"pred_{relabel(cell[5:])}" if cell.startswith("pred_") else cell
            for cell in header.split(",")
        )
    rows = [",".join([relabel(row.split(",")[0])] + row.split(",")[1:]) for row in rows]
    return "\n".join([header] + rows) + "\n"


@pytest.mark.parametrize("use_ensemble", [False, True])
def test_monotone_class_relabeling_changes_only_the_class_ids(tmp_path, use_ensemble):
    # classes are sorted ids and every fit works on class positions, so
    # s -> 2s + 1 keeps every tree, score and split; only the ids move
    recording = generate_synthetic(SPEC)
    stimulus = np.where(recording.stimulus > 0, 2 * recording.stimulus + 1, 0)
    recordings = {"plain": recording, "relabeled": replace(recording, stimulus=stimulus)}
    # no GOSS: every round keeps all rows, so that the trees split
    params = TrainParams(num_leaves=4, max_rounds=3, min_data_in_leaf=5, max_bins=15)
    for name, rec in recordings.items():
        save_recording(rec, tmp_path / f"{name}.csv")
        run_pipeline(PipelineConfig(
            data_path=str(tmp_path / f"{name}.csv"), params=params,
            use_ensemble=use_ensemble, ensemble_k=3, out_dir=str(tmp_path / name),
        ), mode="train")
    plain, relabeled = tmp_path / "plain", tmp_path / "relabeled"
    assert (relabeled / "metrics.csv").read_bytes() == (plain / "metrics.csv").read_bytes()
    for report, columns in (("per_movement.csv", False), ("confusion.csv", True)):
        want = _relabeled((plain / report).read_text(), columns)
        assert want != (plain / report).read_text()
        assert (relabeled / report).read_text() == want, report
    models = sorted(path.relative_to(plain) for path in plain.glob("model/*/model.json"))
    assert len(models) == 3
    for model in models:
        want, got = (json.loads((root / model).read_text()) for root in (plain, relabeled))
        for doc in (want, got):
            assert ("member_bodies" in doc) == use_ensemble
        bodies = list(zip(want.get("member_bodies", [want]), got.get("member_bodies", [got])))
        for body, relabeled_body in bodies:
            classes = body.pop("classes")
            assert relabeled_body.pop("classes") == [2 * c + 1 for c in classes]
        assert sum(_splits(body) for body, _ in bodies) > 0
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
