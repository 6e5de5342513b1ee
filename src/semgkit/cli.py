"""Command-line entry points for the gesture-recognition pipeline.

Subcommands: synth (write a synthetic recording CSV), train, evaluate,
tune, transfer (pipeline modes), and report (merge per-movement tables
from several runs into one comparison table). Every stochastic path is
pinned by --seed (default 0 or the config value).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from .dataset import generate_synthetic, save_recording
from .gbdt.io import write_table
from .pipeline import (
    PipelineConfig,
    PipelineError,
    _effective,
    default_config,
    load_config,
    run_pipeline,
)


def _load(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    return config


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _load(args)
    recording = generate_synthetic(_effective(config)[0])
    path = os.path.join(config.out_dir, "recording.csv")
    save_recording(recording, path)
    print(f"wrote {path} ({recording.n_samples} samples, "
          f"{recording.n_channels} channels)")
    return 0


def _cmd_pipeline(args: argparse.Namespace, mode: str) -> int:
    config = _load(args)
    result = run_pipeline(config, mode=mode)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _read_per_movement(path: str) -> List[tuple]:
    """(movement, value) rows of a per_movement.csv; a row that is not two
    fields raises a ValueError naming the file and line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("movement,"):
            raise ValueError(f"{path} is not a per-movement table")
        for number, line in enumerate(fh, start=2):
            fields = line.strip().split(",")
            if len(fields) != 2:
                raise ValueError(
                    f"{path}, line {number}: expected 2 fields, got {line.strip()!r}"
                )
            rows.append(tuple(fields))
    return rows


def _cmd_report(args: argparse.Namespace) -> int:
    """Side-by-side per-movement comparison across finished runs."""
    out_dir = args.out or "."
    tables = []
    names = []
    for run_dir in args.runs:
        path = os.path.join(run_dir, "per_movement.csv")
        if not os.path.exists(path):
            print(f"error: no per_movement.csv under {run_dir}", file=sys.stderr)
            return 1
        tables.append(_read_per_movement(path))
        base = os.path.basename(os.path.normpath(run_dir))
        while base in names:
            base += "_"
        names.append(base)
    movements = [name for name, _ in tables[0]]
    for run_name, table in zip(names[1:], tables[1:]):
        if [name for name, _ in table] != movements:
            print(
                f"error: movement rows of {run_name} do not match {names[0]}",
                file=sys.stderr,
            )
            return 1
    path = write_table(
        os.path.join(out_dir, "comparison.csv"),
        ["movement"] + names,
        [[m] + [t[i][1] for t in tables] for i, m in enumerate(movements)],
    )
    print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semgkit",
        description="Gesture recognition from multichannel sEMG recordings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--seed", type=int, help="run seed (overrides config)")
    common.add_argument("--out", help="output directory (overrides config)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", parents=[common], help="write a synthetic recording CSV")
    sub.add_parser("train", parents=[common], help="train and evaluate on the CV plans")
    sub.add_parser("evaluate", parents=[common], help="score saved models, no training")
    sub.add_parser("tune", parents=[common], help="hyperparameter search")
    sub.add_parser("transfer", parents=[common], help="warm-start transfer report")
    report = sub.add_parser(
        "report", parents=[common], help="combine per-movement tables from runs"
    )
    report.add_argument("runs", nargs="+", help="run output directories")
    return parser


def _rewrite_mode_flag(argv: List[str]) -> List[str]:
    """Turn `--mode X ...` into the equivalent `X ...` subcommand call."""
    argv = list(argv)
    for i, token in enumerate(argv):
        if token == "--mode" and i + 1 < len(argv):
            mode = argv[i + 1]
            del argv[i:i + 2]
            return [mode] + argv
        if token.startswith("--mode="):
            mode = token.split("=", 1)[1]
            del argv[i]
            return [mode] + argv
    return argv


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(_rewrite_mode_flag(raw))
    command = args.command
    try:
        if command == "synth":
            return _cmd_synth(args)
        if command == "report":
            return _cmd_report(args)
        return _cmd_pipeline(args, command)
    except (PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
