"""What the benchmark relies on must exist in the package.

Tracer.install() looks up every (module, attribute) in SPANNED and
Tree.predict_binned with getattr, so renaming one of them would make every
traced benchmark run fail. The tracer module is loaded from its file as it
is, without importing the benchmark package.

A traced train or transfer must still run its jobs in worker processes:
only private module-level functions are sent to them, never a name the
tracer replaced with a wrapper, which cannot be pickled.

bench/worker.py also reads the model files a train run leaves:
ensemble.load_bagged on each plan directory of a bagged run, and
gbdt.io.load_model on plan_1/model.json of a single-model run. A change of
layout must keep both working. On transfer it collects each run's
TransferReport by replacing pipeline.transfer_report.
"""
from __future__ import annotations

import importlib
import importlib.util
import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from semgkit import ensemble, pipeline
from semgkit.dataset import SyntheticSpec
from semgkit.gbdt import BoostedModel, TrainParams
from semgkit.gbdt import io as gbdt_io

ROOT = Path(__file__).resolve().parent.parent
TRACING_PATH = ROOT / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANNED = _load_tracing().SPANNED


@pytest.mark.parametrize(
    "module, attr", [(m, a) for _, m, a in SPANNED], ids=[s for s, _, _ in SPANNED]
)
def test_spanned_name_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_tree_predict_binned_exists():
    from semgkit.gbdt.tree import Tree

    assert callable(getattr(Tree, "predict_binned"))


@pytest.mark.parametrize("bagged", [True, False], ids=["bagged", "single"])
def test_train_files_load_as_the_worker_reads_them(tmp_path, bagged):
    config = replace(
        pipeline.default_config(),
        synthetic=SyntheticSpec(n_classes=3, repetitions=6, hold_duration=0.8,
                                rest_duration=0.25),
        params=TrainParams(num_leaves=4, max_rounds=2, min_data_in_leaf=5, max_bins=15),
        use_ensemble=bagged,
        ensemble_k=3,
        out_dir=str(tmp_path),
    )
    result = pipeline.run_pipeline(config, mode="train")
    plan_dirs = [Path(result["model_dir"]) / f"plan_{i}" for i in (1, 2, 3)]
    if bagged:
        for plan_dir in plan_dirs:
            assert len(ensemble.load_bagged(plan_dir).members) == config.ensemble_k
    else:
        for plan_dir in plan_dirs:
            assert isinstance(gbdt_io.load_model(plan_dir / "model.json"), BoostedModel)


def test_transfer_mode_calls_the_module_global_transfer_report(tmp_path, monkeypatch):
    config = replace(
        pipeline.default_config(),
        synthetic=SyntheticSpec(n_classes=3, repetitions=6, hold_duration=0.8,
                                rest_duration=0.25),
        params=TrainParams(num_leaves=4, max_rounds=2, min_data_in_leaf=5, max_bins=15),
        use_ensemble=False,
        out_dir=str(tmp_path / "base"),
    )
    base = pipeline.run_pipeline(config, mode="train")
    reports = []
    report_fn = pipeline.transfer_report

    def keep_report(*args, **kwargs):
        reports.append(report_fn(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(pipeline, "transfer_report", keep_report)
    result = pipeline.run_pipeline(
        replace(config, out_dir=str(tmp_path / "transfer"), transfer_seeds=(0,),
                transfer_base_model=str(Path(base["model_dir"]) / "plan_1")),
        mode="transfer",
    )
    assert len(reports) == 1
    assert reports[0].mean_row() == (result["before_mean"], result["after_mean"])


# Runs cli.main with argv[2] (train or transfer), traced as bench/worker.py
# traces it when argv[4] is "1", and prints the exit code and the number of
# spans recorded.
TRACED_SCRIPT = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
if sys.argv[4] == "1":
    tracer.install()
    tracer.active = True
import semgkit.cli
rc = semgkit.cli.main([sys.argv[2], "--config", sys.argv[3], "--out", sys.argv[5]])
print(rc, len(tracer.spans), file=sys.stderr)
"""

TRAIN_INI = """
[data]
n_classes = 3
hold_duration = 0.8
rest_duration = 0.25
[train]
num_leaves = 4
max_rounds = 3
min_data_in_leaf = 5
max_bins = 15
[ensemble]
k = 3
[run]
seed = 4
"""


def _run_cli(command: str, ini: Path, traced: str, out: Path) -> None:
    """cli.main command in a fresh process, traced or not; it must succeed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # A job that cannot be pickled can leave the pool waiting forever,
    # so a run that overstays is killed with its workers.
    run = subprocess.Popen(
        [sys.executable, "-c", TRACED_SCRIPT, str(TRACING_PATH), command, str(ini),
         traced, str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, stderr = run.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        pytest.fail(f"{command} with traced={traced} did not finish in 120 s")
    assert run.returncode == 0, stderr
    rc, spans = stderr.split()[-2:]
    assert rc == "0"
    assert (int(spans) > 0) == (traced == "1")


def test_traced_train_runs_its_pool_and_writes_the_same_model(tmp_path):
    ini = tmp_path / "train.ini"
    ini.write_text(TRAIN_INI)
    models = []
    for traced in ("0", "1"):
        out = tmp_path / f"traced{traced}"
        _run_cli("train", ini, traced, out)
        models.append({
            path.relative_to(out): path.read_bytes()
            for path in sorted((out / "model").rglob("*")) if path.is_file()
        })
    assert len(models[0]) == 3
    assert models[0] == models[1]


def test_traced_transfer_runs_its_pool_and_writes_the_same_report(tmp_path):
    ini = tmp_path / "transfer.ini"
    ini.write_text(TRAIN_INI.replace("k = 3", "enabled = false"))
    base = pipeline.run_pipeline(
        replace(pipeline.load_config(ini), out_dir=str(tmp_path / "base")), mode="train"
    )
    ini.write_text(
        ini.read_text()
        + f"[transfer]\nbase_model = {Path(base['model_dir']) / 'plan_1'}\n"
        + "max_rounds = 3\nseeds = 0 1 2\n"
    )
    reports = []
    for traced in ("0", "1"):
        out = tmp_path / f"traced{traced}"
        _run_cli("transfer", ini, traced, out)
        reports.append((out / "transfer_report.csv").read_bytes())
    assert reports[0] == reports[1]
