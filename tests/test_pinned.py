"""Pinned outputs: the SHA-256 of every file a tiny run must reproduce.

A tiny bagged train, a tiny single-model train and a tiny transfer from the
single model's plan 1 each write files that must stay byte-identical
across any change that claims not to alter numerics (a faster kernel, a
different order of independent jobs, work moved to other processes). So
do the weighted-loss runs below, read from INI files, and the feature
rows of their plans. The two tiny trains also pin every member's tree
arrays and best_iteration and every member's raw scores of the plan's
test rows: a change that moves feature values by rounding alone may move
bin edges, and so model.json, but must leave these as they are. The
synthetic recordings behind the bench's workloads and these runs are
pinned too, so a change to how the generator computes them keeps every bit.

PINNED was recorded from the serial pipeline, before training ran in
worker processes. The model.json and feature-row digests were recorded
again when feature rows came to be made from one spectral pass per
window: rows moved by at most 6e-14 relative, bin edges with them, and
no tree, raw score or report file moved. All digests were recorded with
the numpy and scipy versions in RECORDED_WITH; other versions may round
differently, so the test skips under them. A change that alters numerics
on purpose records new digests here and says why in CHANGES.md.
"""
from __future__ import annotations

import configparser
import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from semgkit import pipeline
from semgkit.dataset import SyntheticSpec, generate_synthetic
from semgkit.gbdt import TrainParams
from semgkit.ensemble import BaggedModel
from semgkit.pipeline import (
    PipelineConfig,
    _load_plan,
    _plan_rows,
    load_config,
    run_pipeline,
)
from semgkit.transfer import TransferConfig

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

SPEC = SyntheticSpec(
    n_classes=4, repetitions=6, hold_duration=1.6, rest_duration=0.25, snr_db=-15.0
)
# the pipeline's GOSS profile, cut down to a few small rounds
PARAMS = TrainParams(
    num_leaves=8, max_rounds=8, min_data_in_leaf=5, top_rate=0.2, other_rate=0.1,
    max_bins=31, early_stop_rounds=3,
)
PINNED = {
    "bagged": {
        "confusion.csv":
            "d54fb88d885e6ededf4a41881fb0e3a860d771ef886d08b7e6822347c5c02ce4",
        "metrics.csv":
            "7f4b8833a1b16a446840d3ea8a87827573782e5bd8f3897f3d0f32e585e9f395",
        "model/plan_1/model.json":
            "64395e86f935648ed8e63ab291d3320af6dbb818e10e1b671232c9e62a3b25f3",
        "model/plan_2/model.json":
            "b97147c91a746af687722857c6bc2af444be10cd0f47761b603f92cddafa6d87",
        "model/plan_3/model.json":
            "75cce261382316de145090191659cbb55daa763aa91f19de4ce920b8fb512f3a",
    },
    "single": {
        "confusion.csv":
            "a43482d380422d55cfad245a82ab133a85fefd41f20b1fef2a7c7952597412e7",
        "metrics.csv":
            "5e9ee2d832725a07c6a1528555a0554a917bf037b414f20e186a8de70913903e",
        "model/plan_1/model.json":
            "47719495b3e84415647f13719f7b3684e1c632c186e7a8444085385ca7541b0f",
        "model/plan_2/model.json":
            "6170aa3a53ce8f5748d4f18604dd8f0a06dfcd81df9e3b781e5275b6cb9bd1cd",
        "model/plan_3/model.json":
            "9190d4b708e7beed20dd9b1cce8f15bc5f4d3068dcd022492a12845d17d81870",
    },
    "transfer": {
        "transfer_report.csv":
            "bf7391a5145c2d963ae68cb65d280a30ec7207111873db861ce814c0a1281dc7",
    },
}

# per plan of the bagged and single trains: "trees" hashes every member's
# feature, threshold, left, right and value arrays, round by round and class
# by class, and its best_iteration; "raw_test" hashes every member's raw
# scores of the plan's test rows, as _plan_rows makes them
PINNED_TREES = {
    "bagged": {
        "plan_1/trees":
            "9b61a1a8e9152f3476832c997fb2fe8d188dff3ea0fc71bc7c04c03aa25f022b",
        "plan_1/raw_test":
            "eaaeb0ad9771b648ed62a8818b75f347c9f18a398fa8a917d36fbb02f70b7010",
        "plan_2/trees":
            "05e21284c09a84b30161e153ba4c408075cebc9e267932d729264fea069028ab",
        "plan_2/raw_test":
            "7dc5e8899bbf84d12f11cd58b54c575e2e06d46f5ae058006bf5afd54f930fba",
        "plan_3/trees":
            "abb057606b43e473a042daf86c194e1fa6a317fd17c2f1875b4db751625b105b",
        "plan_3/raw_test":
            "15db5adc6214241ffa696834302c1ac2359e2cb4aadfb08edb113da44f3edcf8",
    },
    "single": {
        "plan_1/trees":
            "fb2c961f0f2d4467148e7fcdbafe037f84315752e6d3e6f98011051b72665069",
        "plan_1/raw_test":
            "1164933781c6ff2c4ad09a6d8f6c627d705f3addaabf4419da63106a1307eb4b",
        "plan_2/trees":
            "84cbf41ba52387601050d8f6ca68f63f712a9c7df88675af1b46f5f03a86b0e7",
        "plan_2/raw_test":
            "4261c1d1629b1fc0853c63ceda9ecbea28563e9285702469137c694c8119296b",
        "plan_3/trees":
            "0334d681afb966ba67d0a5f1842bf9f7bfb870384909c7fa92b9fb3b3ed94785",
        "plan_3/raw_test":
            "60eac1c81230c36970175c9f0d7719a43d8ec41c9db291e57c53342ef7c526f1",
    },
}

pytestmark = pytest.mark.skipif(
    {"numpy": np.__version__, "scipy": scipy.__version__} != RECORDED_WITH,
    reason=f"digests were recorded with {RECORDED_WITH}",
)


def _digests(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _record_plan_rows(mp: pytest.MonkeyPatch) -> list:
    """Make pipeline._plan_rows keep each result in the returned list."""
    made = []

    def recording_plan_rows(*args):
        made.append(_plan_rows(*args))
        return made[-1]

    mp.setattr(pipeline, "_plan_rows", recording_plan_rows)
    return made


def _tree_digests(model_dir: Path, plan_rows) -> dict:
    """The "trees" and "raw_test" digests of each saved plan under model_dir."""
    digests = {}
    for number, (_, _, _, X_test, _) in enumerate(plan_rows, start=1):
        model, _ = _load_plan(str(model_dir / f"plan_{number}"))
        members = model.members if isinstance(model, BaggedModel) else [model]
        trees, raw = hashlib.sha256(), hashlib.sha256()
        for member in members:
            trees.update(np.int64(member.best_iteration).tobytes())
            for tree in (t for round_trees in member.trees for t in round_trees):
                for array in (tree.feature, tree.threshold, tree.left, tree.right,
                              tree.value):
                    trees.update(array.tobytes())
            raw.update(member.predict_raw(X_test).tobytes())
        digests[f"plan_{number}/trees"] = trees.hexdigest()
        digests[f"plan_{number}/raw_test"] = raw.hexdigest()
    return digests


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    config = PipelineConfig(synthetic=SPEC, params=PARAMS, ensemble_k=3, seed=11)
    with pytest.MonkeyPatch.context() as mp:
        made = _record_plan_rows(mp)
        run_pipeline(replace(config, out_dir=str(root / "bagged")), mode="train")
        run_pipeline(
            replace(config, use_ensemble=False, out_dir=str(root / "single")),
            mode="train",
        )
    trees = {
        run: _tree_digests(root / run / "model", rows)
        for run, rows in zip(("bagged", "single"), made)
    }
    run_pipeline(
        replace(
            config,
            use_ensemble=False,
            out_dir=str(root / "transfer"),
            transfer_base_model=str(root / "single" / "model" / "plan_1"),
            transfer=TransferConfig(learning_rate=0.2, max_rounds=6, early_stop_rounds=3),
            transfer_seeds=(0, 1),
        ),
        mode="transfer",
    )
    files = {run: _digests(root / run, names) for run, names in PINNED.items()}
    return files, trees


@pytest.mark.parametrize("run", sorted(PINNED))
def test_outputs_match_the_pinned_digests(outputs, run):
    assert outputs[0][run] == PINNED[run]


@pytest.mark.parametrize("run", sorted(PINNED_TREES))
def test_trees_and_raw_scores_match_the_pinned_digests(outputs, run):
    assert outputs[1][run] == PINNED_TREES[run]


# Weighted-loss runs, configured through load_config so the [loss] keys
# travel the whole way from the INI file to every fit. Each run's INI is
# WEIGHTED_INI with the run's own keys laid over it. The bagged train
# weights the configured hard classes; the single-model train detects them
# per plan (auto); tune and transfer keep the configured ones although auto
# is on; transfer starts from the single model's plan 1. tune turns GOSS
# off: of the few rows it keeps, no trial's leaves could hold
# min_data_in_leaf, every trial would score the priors, and trials.log
# could not see the loss.
WEIGHTED_INI = {
    "data": {
        "n_classes": "4", "repetitions": "6", "hold_duration": "1.6",
        "rest_duration": "0.25", "snr_db": "-15",
    },
    "train": {
        "num_leaves": "8", "max_rounds": "8", "min_data_in_leaf": "5",
        "top_rate": "0.2", "other_rate": "0.1", "max_bins": "31",
        "early_stop_rounds": "3",
    },
    "loss": {"gain": "2.0", "hard_classes": "2 3"},
    "hpo": {"n_trials": "2"},
    "run": {"seed": "14"},
}
WEIGHTED_RUNS = {
    "bagged": ("train", {"ensemble": {"k": "3"}}),
    "single": ("train", {"loss": {"auto": "true"}, "ensemble": {"enabled": "false"}}),
    "tune": (
        "tune",
        {"loss": {"auto": "true"}, "train": {"top_rate": "1.0", "other_rate": "0.0"}},
    ),
    "transfer": (
        "transfer",
        {
            "loss": {"auto": "true"},
            "transfer": {
                "learning_rate": "0.2", "max_rounds": "6", "early_stop_rounds": "3",
                "seeds": "0 1",
            },
        },
    ),
}
PINNED_WEIGHTED = {
    "bagged": {
        "metrics.csv":
            "0318280705f594c21a06ced9efadb1565b9ac2b228a84f11ce23f049b69bfbfe",
        "model/plan_1/model.json":
            "91b8a556561fc1f36911cb3d32fa08e085f9c5194d5ad910c779bb144e2aa005",
        "model/plan_2/model.json":
            "5c3bf2ef282403314ea40aa000d2dcc7529a25635ab68e7ebb2ec42b614c278f",
        "model/plan_3/model.json":
            "de0765a58fa62acb6f4cd587ffcd3e402f7c81b38a0294f8d3cefe7482ee08fc",
    },
    "single": {
        "metrics.csv":
            "d816061e709ca28748c287850c429ce6c059c1aca343d24b9d5f346a89773e76",
        "model/plan_1/model.json":
            "90ae2828efeccaa9e79948019db569133b1fe0b8a4bf482bf7d0156a23641b0b",
        "model/plan_2/model.json":
            "d346e9027047466d0134ccaf345ddf24a7d90b5b798159cf96978c38186283e8",
        "model/plan_3/model.json":
            "6d0b00875935bb6cc967691bb2feaf3e9e5f0ca2d323b95614125afeecbf86f4",
    },
    "tune": {
        "best_params.json":
            "db24554b7bd8a1eb78270d5d0e089bf8eb9f2bf5ad2ebbcbaae3ffc03c9b655f",
        "trials.log":
            "bb6cd5446c86d44cf2098e7f96c3a4b9a71a8bfd9c4716e65f44064819c69502",
    },
    "transfer": {
        "transfer_report.csv":
            "27aa965551eb08787b61ca897921b4e4885dd77f1467b10ce65ec394a8945bac",
    },
}
# X_train and X_test bytes of each plan's rows, as _plan_rows makes them
PINNED_ROWS = {
    "plan_1/X_train":
        "2c089049ce449817ca7467424024772a932cba1e0a087442f3f518e286074f78",
    "plan_1/X_test":
        "bcbd78aae98d3a31316759a18eac55b28ef4667eaba1bcaf912895c208352226",
    "plan_2/X_train":
        "1246db98b6131dee3cb5bb9ecc2d068867222ba0476c4aef2665d38528603d9c",
    "plan_2/X_test":
        "2a89a08244f1a0c300d3314e78763da27fc17002fbc7c2cad90684c20b9d2488",
    "plan_3/X_train":
        "c34be4bb711e18210149bf7489c5298e77e0048f6a7cd1e103fcd39a2ad4bb5a",
    "plan_3/X_test":
        "e78b3c3d5ed7d9670d008be822494cfc7db5358dc817cb9844057a7df4c3671a",
}


def _weighted_config(root: Path, run: str) -> PipelineConfig:
    """The config of a weighted run, read from the INI file it writes."""
    mode, keys = WEIGHTED_RUNS[run]
    ini = configparser.ConfigParser()
    ini.read_dict(WEIGHTED_INI)
    ini.read_dict(keys)
    if mode == "transfer":
        ini["transfer"]["base_model"] = str(root / "single" / "model" / "plan_1")
    path = root / f"{run}.ini"
    with open(path, "w", encoding="utf-8") as fh:
        ini.write(fh)
    return replace(load_config(path), out_dir=str(root / run))


def test_weighted_runs_match_the_pinned_digests(tmp_path, monkeypatch):
    made = _record_plan_rows(monkeypatch)
    for run, (mode, _) in WEIGHTED_RUNS.items():
        run_pipeline(_weighted_config(tmp_path, run), mode=mode)
    digests = {
        run: _digests(tmp_path / run, files) for run, files in PINNED_WEIGHTED.items()
    }
    assert digests == PINNED_WEIGHTED
    rows = {}
    for number, (_, X_train, _, X_test, _) in enumerate(made[0], start=1):  # bagged
        for name, X in (("X_train", X_train), ("X_test", X_test)):
            rows[f"plan_{number}/{name}"] = hashlib.sha256(X.tobytes()).hexdigest()
    assert rows == PINNED_ROWS


# generate_synthetic's channels, stimulus and repetition, hashed in that
# order: the bench's train recording, its transfer recording (8 classes at
# -20 dB, class_seed 0) and the recording of the tiny runs above. Recorded
# before the generator drew, filtered and scaled the carriers one channel
# row at a time.
PINNED_SYNTHETIC = {
    "bench_train": (
        SyntheticSpec(hold_duration=1.5, seed=5),
        "cfe9643d5b38e7fbcafed5e7fb0ee57cf8b35bac5711c73ec4af7ab1a8691d89",
    ),
    "bench_transfer": (
        SyntheticSpec(n_classes=8, hold_duration=1.5, snr_db=-20.0, class_seed=0, seed=7),
        "0eac9b8c87c3449f7c04c6d38d7a9f907f9c907c100ebc19cef8cfec465f20c4",
    ),
    "tiny": (
        replace(SPEC, seed=11),
        "8c037497f8c87c21f6e7c9e62b355ebfe69e41c7800c95fe197858a97cf4f4c4",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SYNTHETIC))
def test_synthetic_recordings_match_the_pinned_digests(name):
    spec, want = PINNED_SYNTHETIC[name]
    recording = generate_synthetic(spec)
    digest = hashlib.sha256()
    for array in (recording.channels, recording.stimulus, recording.repetition):
        digest.update(array.tobytes())
    assert digest.hexdigest() == want
