"""semgkit benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 bench/run.py --workload {train,transfer} --seed N \
        --seconds S --trace {0,1}

The workload runs in a fresh worker process (bench/worker.py), one at a
time, with BLAS threads capped at the CPU count. The metric names, units and
directions come from BENCHMARK.json. With --trace 0 the last line of standard
output is a JSON object holding every end-to-end metric. With --trace 1 the
workload runs twice, untraced and then traced, and the last line holds the
per-layer metrics, including the tracing overhead. The lines before it are a
readable table, the provenance of the run and any failed check. The run's
files go to .bench_runs/ in the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 170.0
# Set-up repeats per untraced run; setup_s is their median.
SETUPS = 3
END_TO_END_KEYS = ("wall_s", "setup_s", "accuracy", "scratch_accuracy", "peak_rss_mb")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def run_worker(args, env, trace: int, setups: int, deadline: float) -> dict:
    tag = f"{args.workload}-s{args.seed}-{'traced' if trace else 'plain'}"
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    result_path = runs / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--setups", str(setups), "--work", str(runs / tag),
           "--result", str(result_path)]
    # the worker's own output goes to stderr so stdout ends with the result
    subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(result_path.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description="semgkit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "semgkit" / "__init__.py").is_file():
        return fail("no semgkit source tree at src/semgkit; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)

    try:
        if args.trace:
            # Set-up time is reported only untraced, so the pair sets up once.
            plain = run_worker(args, env, 0, 1, deadline)
            traced = run_worker(args, env, 1, 1, deadline)
            results = [plain, traced]
            wall = traced["wall_s"]
            values = dict(traced["layers"])
            values["trace.wall_s"] = wall
            values["trace.untraced_wall_s"] = plain["wall_s"]
            values["trace.overhead_frac"] = wall / plain["wall_s"] - 1.0
            values["trace.top_span_frac"] = (
                traced["timed_top_span_s"] / sum(traced["unit_times"])
            )
            wanted = spec["per_layer"]
        else:
            results = [run_worker(args, env, 0, SETUPS, deadline)]
            values = {key: results[0][key] for key in END_TO_END_KEYS}
            wanted = spec["end_to_end"]
    except subprocess.TimeoutExpired:
        return fail(f"workload did not finish within {RUN_LIMIT_S:.0f} s")
    except subprocess.CalledProcessError as exc:
        return fail(f"worker exited with code {exc.returncode}")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not produced: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    provenance = dict(results[-1]["provenance"], nproc=nproc, seed=args.seed,
                      workload=args.workload, seconds=args.seconds, trace=args.trace)
    for m in wanted:
        print(f"{m['name']:34s} {values[m['name']]:>14.6g} {m['unit']:6s} "
              f"{m['better']} is better")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for r in results:
        for problem in r["problems"]:
            print(f"check failed: {problem}")
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    record = ROOT / ".bench_runs" / f"{args.workload}-s{args.seed}-t{args.trace}.result.json"
    record.write_text(json.dumps(dict(summary, provenance=provenance,
                                      counters=results[-1]["counters"]), indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
