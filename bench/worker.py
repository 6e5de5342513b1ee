"""One benchmark workload, run in a fresh process by bench/run.py.

The worker drives semgkit only through its public entry points
(semgkit.cli.main, run_pipeline and the library functions), builds every
input from --seed, times set-up and the timed part separately, checks the
outputs, and writes one JSON result file. With --trace 1 it installs the
wrappers from tracing.py first and also reports per-layer metrics.

Workloads (the reason for each is in BENCHMARK.json):
  train     semgkit train through cli.main: 18 classes, hold 1.5 s, 3 CV
            plans x 5 bagged members. Set-up is a cold CLI start.
  transfer  run_pipeline(mode="transfer") over 5 paired seeds on noisy
            8-class data, from a single-model base trained in set-up.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import semgkit  # noqa: E402
import semgkit.cli  # noqa: E402
from semgkit import dataset, ensemble, pipeline  # noqa: E402
from semgkit.gbdt import io as gbdt_io  # noqa: E402

from tracing import Tracer  # noqa: E402

# The transfer sessions record one fixed gesture set (class profiles); the
# seed draws the recordings. Profiles drawn per seed would add the spread of
# task difficulty to every metric.
CLASS_SEED = 0


class Context:
    """Per-run settings plus the tracer, which is None when untraced."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.setups = args.setups
        self.work = work
        self.tracer = Tracer() if args.trace else None
        self.problems: List[str] = []

    def phase(self, run_id: str, traced: bool) -> None:
        """Name the run id of the next spans; only set-up and timed work is traced."""
        if self.tracer is not None:
            self.tracer.run_id = run_id
            self.tracer.active = traced

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


# ------------------------------------------------------------------ helpers


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def source_digest() -> str:
    """Digest of the program and of this benchmark, which fixes the workloads."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat_digest(ctx: Context, key: str, digest: str) -> None:
    """Compare with the digest an earlier run of the same seed and source left.

    The record lives in .bench_runs/ of this checkout and is keyed by the
    source digest, so a changed program or workload never meets a stale record.
    """
    record = ctx.work.parent / "digests" / f"{key}-s{ctx.seed}-{source_digest()}"
    if record.exists():
        ctx.check(record.read_text() == digest,
                  f"{key}: model digest differs from an earlier run of this seed")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(digest)


def run_units(ctx: Context, unit: Callable[[int], None]) -> List[float]:
    """Whole units, starting another while under --seconds; returns their times."""
    times: List[float] = []
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin < ctx.seconds:
        ctx.phase(f"timed/unit-{len(times)}", True)
        start = time.perf_counter()
        unit(len(times))
        times.append(time.perf_counter() - start)
        ctx.phase("", False)
    return times


def read_csv(path: Path) -> List[List[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


# ---------------------------------------------------------------- workloads


def workload_train(ctx: Context) -> Dict:
    ini = ctx.work / "train.ini"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup_times = []
    for _ in range(ctx.setups):
        start = time.perf_counter()
        ini.write_text("[data]\nhold_duration = 1.5\n")
        subprocess.run([sys.executable, "-c", "import semgkit.cli"], env=env,
                       check=True, cwd=ctx.work)
        setup_times.append(time.perf_counter() - start)

    results = []

    def unit(k: int) -> None:
        buf = io.StringIO()
        argv = ["train", "--config", str(ini), "--seed", str(ctx.seed),
                "--out", str(ctx.work / f"unit{k}")]
        with contextlib.redirect_stdout(buf):
            rc = semgkit.cli.main(argv)
        results.append((rc, buf.getvalue()))

    unit_times = run_units(ctx, unit)

    config = pipeline.load_config(ini)
    n_plans = len(dataset.make_cv_plans())
    spec = replace(config.synthetic, seed=ctx.seed)
    per_hold = (int(round(spec.hold_duration * spec.sample_rate)) - config.window_len) \
        // config.step + 1
    n_windows = spec.n_classes * spec.repetitions * per_hold
    plan_ok = [True] * n_plans
    digests, rounds = [], []
    for k, (rc, text) in enumerate(results):
        out = ctx.work / f"unit{k}"
        if not ctx.check(rc == 0, f"train unit {k}: exit code {rc}"):
            plan_ok = [False] * n_plans
            continue
        result = json.loads(text)
        metrics = read_csv(out / "metrics.csv")
        for i in range(n_plans):
            row = metrics[i] if i < len(metrics) else []
            good = (len(row) == 5 and row[0] == str(i + 1)
                    and float(row[1]) == result["plan_accuracies"][i])
            try:
                members = ensemble.load_bagged(out / "model" / f"plan_{i + 1}").members
            except (OSError, ValueError) as exc:
                ctx.problems.append(f"plan {i + 1}: model does not load: {exc}")
                members = []
            good = good and len(members) == config.ensemble_k
            if k == 0:
                rounds += [(m.n_rounds, m.best_iteration) for m in members]
            plan_ok[i] = plan_ok[i] and ctx.check(good, f"plan {i + 1}: checks failed")
        whole = [
            ctx.check(bool(metrics) and metrics[-1][0] == "mean"
                      and float(metrics[-1][1]) == result["mean_accuracy"],
                      "metrics.csv mean row differs from mean_accuracy"),
            ctx.check(sum(int(v) for row in read_csv(out / "confusion.csv") for v in row[1:])
                      == n_windows, f"confusion.csv does not sum to {n_windows} windows"),
        ]
        if not all(whole):
            plan_ok = [False] * n_plans
        digests.append(tree_digest(out / "model"))
    if digests:
        ctx.check(len(set(digests)) == 1, "model/ digest differs between repeats")
        check_repeat_digest(ctx, "train", digests[0])
    accuracy = json.loads(results[-1][1])["mean_accuracy"] if results[-1][0] == 0 else 0.0
    return {
        "attempted": n_plans * len(results),
        "failed": plan_ok.count(False) * len(results),
        "setup_times": setup_times,
        "unit_times": unit_times,
        "accuracy": accuracy,
        "scratch_accuracy": accuracy,
        "counters": {
            "members_rounds_grown_best": rounds,
            "model_bytes": sum(p.stat().st_size
                               for p in (ctx.work / "unit0" / "model").rglob("*")
                               if p.is_file()),
        },
    }


TRANSFER_INI = f"""\
[data]
n_classes = 8
hold_duration = 1.5
snr_db = -20
class_seed = {CLASS_SEED}
[ensemble]
enabled = false
"""


def workload_transfer(ctx: Context) -> Dict:
    ini = ctx.work / "transfer.ini"
    ini.write_text(TRANSFER_INI)

    def config_for(out: Path, **changes):
        config = pipeline.load_config(ini)
        config.seed = ctx.seed
        config.out_dir = str(out)
        for key, value in changes.items():
            setattr(config, key, value)
        return config

    setup_times, digests = [], []
    for k in range(ctx.setups):
        ctx.phase(f"setup/{k}", True)
        start = time.perf_counter()
        pipeline.run_pipeline(config_for(ctx.work / f"setup{k}"), mode="train")
        setup_times.append(time.perf_counter() - start)
        ctx.phase("", False)
        digests.append(tree_digest(ctx.work / f"setup{k}" / "model"))
    ctx.check(len(set(digests)) == 1, "base model/ differs between set-up repeats")
    check_repeat_digest(ctx, "transfer-base", digests[0])
    base_dir = ctx.work / "setup0" / "model" / "plan_1"

    # Keep the TransferReport that run_pipeline builds, for per-seed checks.
    reports = []
    report_fn = pipeline.transfer_report

    def keep_report(*args, **kwargs):
        reports.append(report_fn(*args, **kwargs))
        return reports[-1]

    pipeline.transfer_report = keep_report
    results = []

    def unit(k: int) -> None:
        config = config_for(ctx.work / f"unit{k}", transfer_base_model=str(base_dir))
        results.append(pipeline.run_pipeline(config, mode="transfer"))

    unit_times = run_units(ctx, unit)
    pipeline.transfer_report = report_fn

    config = config_for(ctx.work)
    n_classes = config.synthetic.n_classes
    attempted = failed = 0
    for k, (result, report) in enumerate(zip(results, reports)):
        rows = read_csv(ctx.work / f"unit{k}" / "transfer_report.csv")
        good = ctx.check(len(rows) == n_classes + 1 and rows[-1][0] == "mean"
                         and float(rows[-1][1]) == result["before_mean"]
                         and float(rows[-1][2]) == result["after_mean"],
                         f"transfer unit {k}: transfer_report.csv does not match the result")
        for s in range(len(report.seeds)):
            attempted += 1
            accs = (report.before_accuracy[s], report.after_accuracy[s])
            seed_ok = good and all(0.0 <= a <= 1.0 for a in accs)
            failed += 0 if ctx.check(seed_ok, f"paired seed {report.seeds[s]} failed") else 1

    base = gbdt_io.load_model(base_dir / "model.json")
    return {
        "attempted": attempted,
        "failed": failed,
        "setup_times": setup_times,
        "unit_times": unit_times,
        "accuracy": results[-1]["after_mean"],
        "scratch_accuracy": results[-1]["before_mean"],
        "counters": {"base_rounds_grown_best": (base.n_rounds, base.best_iteration),
                     "paired_seeds": list(reports[-1].seeds)},
    }


WORKLOADS = {"train": workload_train, "transfer": workload_transfer}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=3)
    parser.add_argument("--work", required=True, help="directory for this run's files")
    parser.add_argument("--result", required=True, help="path of the JSON result")
    args = parser.parse_args()

    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(args, work)
    if ctx.tracer is not None:
        ctx.tracer.install()
    out = WORKLOADS[args.workload](ctx)

    result = {
        "correct": not ctx.problems,
        "problems": ctx.problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "wall_s": statistics.median(out["unit_times"]),
        "setup_s": statistics.median(out["setup_times"]),
        "unit_times": out["unit_times"],
        "setup_times": out["setup_times"],
        "accuracy": out["accuracy"],
        "scratch_accuracy": out["scratch_accuracy"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": out["counters"],
        "provenance": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "semgkit": semgkit.__version__,
            "source_digest": source_digest(),
            "machine": platform.machine(),
            "blas_env": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    if ctx.tracer is not None:
        ctx.tracer.write(str(work / "spans.jsonl"))
        result["layers"] = ctx.tracer.layer_metrics()
        result["timed_top_span_s"] = ctx.tracer.top_level_seconds("timed")
    Path(args.result).write_text(json.dumps(result, indent=1, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
