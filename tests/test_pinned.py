"""Pinned outputs: the SHA-256 of every file a tiny run must reproduce.

A tiny bagged train, a tiny single-model train and a tiny transfer from the
single model's plan 1 each write files that must stay byte-identical
across any change that claims not to alter numerics (a faster kernel, a
different order of independent jobs, work moved to other processes). So
do the weighted-loss runs below, read from INI files, and the feature
rows of their plans. PINNED was recorded from the serial pipeline, before
training ran in worker processes. All digests were recorded with the
numpy and scipy versions in RECORDED_WITH; other versions may round
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
from semgkit.dataset import SyntheticSpec
from semgkit.gbdt import TrainParams
from semgkit.pipeline import PipelineConfig, _plan_rows, load_config, run_pipeline
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
            "ee6ae9afa02f018bd13048c0ebe5ca77e2c743c2332ac0856605003dfe46c344",
        "model/plan_2/model.json":
            "10c16484be69404c27a6f8b6447b960c0dd156810feb81d53f5dfaaeaa6eba3b",
        "model/plan_3/model.json":
            "38c0c92c82cee4af9a8ad384efd9a8150fc1e94583cfce2ae285835af0f4cbda",
    },
    "single": {
        "confusion.csv":
            "a43482d380422d55cfad245a82ab133a85fefd41f20b1fef2a7c7952597412e7",
        "metrics.csv":
            "5e9ee2d832725a07c6a1528555a0554a917bf037b414f20e186a8de70913903e",
        "model/plan_1/model.json":
            "65844a03eed23c155a3016fee925c2e4eefdd62cd68dafdfb9858345f38ec28b",
        "model/plan_2/model.json":
            "033bf60b4e02eb82b1cec8cfd9829252cc6e801f47204d599b4b37657d540a60",
        "model/plan_3/model.json":
            "5ff04a6d28bbe78d3c3f3cd47fcbd8d975991d9a962b676ba303853505712c1e",
    },
    "transfer": {
        "transfer_report.csv":
            "bf7391a5145c2d963ae68cb65d280a30ec7207111873db861ce814c0a1281dc7",
    },
}

pytestmark = pytest.mark.skipif(
    {"numpy": np.__version__, "scipy": scipy.__version__} != RECORDED_WITH,
    reason=f"digests were recorded with {RECORDED_WITH}",
)


def _digests(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    config = PipelineConfig(synthetic=SPEC, params=PARAMS, ensemble_k=3, seed=11)
    run_pipeline(replace(config, out_dir=str(root / "bagged")), mode="train")
    run_pipeline(
        replace(config, use_ensemble=False, out_dir=str(root / "single")), mode="train"
    )
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
    return {run: _digests(root / run, files) for run, files in PINNED.items()}


@pytest.mark.parametrize("run", sorted(PINNED))
def test_outputs_match_the_pinned_digests(outputs, run):
    assert outputs[run] == PINNED[run]


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
            "ab31a4642ccdc0fa40e99fa8e158b740c435a7fc916cf97f017f757f95016284",
        "model/plan_2/model.json":
            "92fc77473a67af72096940114c252856971b99b96e4f8d899c44b880e4584b00",
        "model/plan_3/model.json":
            "26f261ca2b0983e732eb0946862fb566df952fbce083b41eff5d07a1c4643c87",
    },
    "single": {
        "metrics.csv":
            "d816061e709ca28748c287850c429ce6c059c1aca343d24b9d5f346a89773e76",
        "model/plan_1/model.json":
            "7b65ce3ad503b0c533470db46975fba7d8d9362afd4470f9dc1bdd0fcd48f7fd",
        "model/plan_2/model.json":
            "dbddc7b2166ea46cb1716718b54d06a6f864693ff664174d88c471076cc216f6",
        "model/plan_3/model.json":
            "8faa114cd95ac81339727a62c9b956737bbbdb3f13d233b677cd168294fb4aa7",
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
        "2bb4c3753dd11ae0c0e49c6ab658647ff0cdaea3ef0331839b7010e188b241cb",
    "plan_1/X_test":
        "a5254bfea38f5c19dba6cd8956007ecc943086b68094a062a200f5de50f3c044",
    "plan_2/X_train":
        "0cfdb846b48e88a89845976d4d78276a309e65c57d6eaabcb7e01312803fe665",
    "plan_2/X_test":
        "8e41882b4584a22e3cecd6652ea052c1f657ba8545965feb8cf6e8ad6c66745d",
    "plan_3/X_train":
        "e70b8139acb4f6142c6602c68166233e97464485b500c193502dc7dbb17e8d4d",
    "plan_3/X_test":
        "95bfdac95d9c087bd494284bbd92db478f81047b48d80b5f832897bbed14b219",
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
    made = []

    def recording_plan_rows(*args):
        made.append(_plan_rows(*args))
        return made[-1]

    monkeypatch.setattr(pipeline, "_plan_rows", recording_plan_rows)
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
