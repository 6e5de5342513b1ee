"""Pinned outputs: the SHA-256 of every file a tiny run must reproduce.

A tiny bagged train, a tiny single-model train and a tiny transfer from the
single model's plan 1 each write files that must stay byte-identical
across any change that claims not to alter numerics (a faster kernel, a
different order of independent jobs, work moved to other processes). The
digests below were recorded from the serial pipeline, before training ran
in worker processes, with the numpy and scipy versions in RECORDED_WITH;
other versions may round differently, so the test skips under them. A
change that alters numerics on purpose records new digests here and says
why in CHANGES.md.
"""
from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from semgkit.dataset import SyntheticSpec
from semgkit.gbdt import TrainParams
from semgkit.pipeline import PipelineConfig, run_pipeline
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
