"""Spans and counters around semgkit's public functions, installed from outside.

Tracer.install() replaces each traced function with a wrapper in every loaded
semgkit module whose namespace holds it, so a caller that imported the name
directly (``from .gbdt.booster import train``) reaches the wrapper too. The
package itself is not edited. Each call records one span (name, start, end,
parent, run id) in memory. Tree.predict_binned runs once per tree for every
prediction, so its calls are aggregated per parent span (count and seconds)
instead of kept one by one. Spans are written to a file only when the run
ends, and the per-layer metrics are computed from them.
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# (span name, defining module, attribute). The span names are the layer
# names the per-layer metrics use.
SPANNED = (
    ("cli.main", "semgkit.cli", "main"),
    ("cli.load_config", "semgkit.pipeline", "load_config"),
    ("pipeline.run_pipeline", "semgkit.pipeline", "run_pipeline"),
    ("dataset.generate_synthetic", "semgkit.dataset", "generate_synthetic"),
    ("dataset.segment", "semgkit.dataset", "segment"),
    ("dsp.filter_channels", "semgkit.dsp", "filter_channels"),
    ("dsp.standardize", "semgkit.dsp", "standardize"),
    ("features.extract_features", "semgkit.features", "extract_features"),
    ("gbdt.binning.bin_features", "semgkit.gbdt.binning", "bin_features"),
    ("gbdt.binning.apply_bins", "semgkit.gbdt.binning", "apply_bins"),
    ("gbdt.objective.grad_hess", "semgkit.gbdt.objective", "grad_hess"),
    ("gbdt.sampling.goss_sample", "semgkit.gbdt.sampling", "goss_sample"),
    ("gbdt.tree.grow_tree", "semgkit.gbdt.tree", "grow_tree"),
    ("gbdt.booster.train", "semgkit.gbdt.booster", "train"),
    ("gbdt.booster.predict_raw", "semgkit.gbdt.booster", "predict_raw"),
    ("gbdt.io.save_model", "semgkit.gbdt.io", "save_model"),
    ("gbdt.io.load_model", "semgkit.gbdt.io", "load_model"),
    ("ensemble.train_bagged", "semgkit.ensemble", "train_bagged"),
    ("ensemble.predict_bagged", "semgkit.ensemble", "predict_bagged"),
    ("transfer.warm_start", "semgkit.transfer", "warm_start"),
    ("transfer.transfer_report", "semgkit.transfer", "transfer_report"),
)
AGGREGATED = "gbdt.tree.predict_binned"

PIPELINE_STAGES = (
    "load", "filter", "segment", "standardize", "features", "train", "save",
    "evaluate", "report", "load_model", "transfer",
)


class Tracer:
    """In-memory span recorder; inactive spans cost one attribute test."""

    def __init__(self) -> None:
        self.active = False
        self.run_id = ""
        # one list per span: [name, start, end, parent index, run id]
        self.spans: List[list] = []
        self._stack: List[int] = []
        # (parent index, name) -> [calls, seconds] for the aggregated leaf
        self.leaf: Dict[tuple, list] = {}
        self.counts: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        self._stack.pop()
        rec[2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hook(self.counts, args, kwargs, out)
            return out

        return traced

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        leaf = self.leaf

        def aggregated(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (self._stack[-1] if self._stack else -1, name)
                cell = leaf.get(key)
                if cell is None:
                    leaf[key] = [1, time.perf_counter() - start]
                else:
                    cell[0] += 1
                    cell[1] += time.perf_counter() - start

        return aggregated

    # --------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every SPANNED function wherever a semgkit module holds it."""
        import semgkit.cli  # noqa: F401  (the CLI is not imported by semgkit)
        from semgkit.gbdt.tree import Tree

        replacements = {}
        for name, module, attr in SPANNED:
            original = getattr(sys.modules[module], attr)
            replacements[id(original)] = self.wrap(name, original, HOOKS.get(name))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "semgkit" or mod_name.startswith("semgkit.")
            ):
                continue
            for key, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, key, wrapper)
        Tree.predict_binned = self.wrap_leaf(AGGREGATED, Tree.predict_binned)

    # ------------------------------------------------------------ reporting

    def write(self, path: str) -> None:
        """Spans and aggregated leaf calls as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run,
                }) + "\n")
            for (parent, name), (calls, seconds) in sorted(self.leaf.items()):
                fh.write(json.dumps({
                    "name": name, "parent": parent, "calls": calls,
                    "seconds": seconds, "aggregated": True,
                }) + "\n")

    def top_level_seconds(self, run_prefix: str) -> float:
        """Summed duration of parentless spans whose run id has the prefix.

        Every span's self time is its duration minus its children's, so
        these durations equal the summed self time of all spans under them.
        """
        return sum(
            end - start for _, start, end, parent, run in self.spans
            if parent == -1 and run.startswith(run_prefix)
        )

    def layer_metrics(self) -> Dict[str, float]:
        total: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        child: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        leaf_s = leaf_calls = 0.0
        for (parent, _), (n, seconds) in self.leaf.items():
            leaf_s += seconds
            leaf_calls += n
            if parent >= 0:
                child[parent] += seconds
        self_s: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]

        c = self.counts
        trees = c["trees"]
        windows = calls["features.extract_features"]
        out = {
            "gbdt.tree.grow_s": total["gbdt.tree.grow_tree"],
            "gbdt.tree.trees": trees,
            "gbdt.tree.leaves_per_tree": c["leaves"] / trees if trees else 0.0,
            "gbdt.tree.predict_s": leaf_s,
            "gbdt.tree.predict_calls": leaf_calls,
            "gbdt.objective.grad_hess_s": total["gbdt.objective.grad_hess"],
            "gbdt.sampling.goss_s": total["gbdt.sampling.goss_sample"],
            "gbdt.sampling.rows_offered": c["goss_offered"],
            "gbdt.sampling.rows_kept": c["goss_kept"],
            "gbdt.sampling.kept_frac": (
                c["goss_kept"] / c["goss_offered"] if c["goss_offered"] else 0.0
            ),
            "gbdt.booster.train_self_s": self_s["gbdt.booster.train"],
            "gbdt.booster.models": c["models"],
            "gbdt.booster.rounds_grown": c["rounds_grown"],
            "gbdt.booster.rounds_best": c["rounds_best"],
            "gbdt.booster.useful_round_frac": (
                c["rounds_best"] / c["rounds_grown"] if c["rounds_grown"] else 0.0
            ),
            "gbdt.booster.predict_raw_s": total["gbdt.booster.predict_raw"],
            "gbdt.binning.bin_s": total["gbdt.binning.bin_features"],
            "gbdt.binning.apply_s": total["gbdt.binning.apply_bins"],
            "gbdt.binning.apply_calls": calls["gbdt.binning.apply_bins"],
            "gbdt.io.save_s": total["gbdt.io.save_model"],
            "gbdt.io.load_s": total["gbdt.io.load_model"],
            "gbdt.io.model_bytes": c["model_bytes"],
            "ensemble.train_bagged_s": total["ensemble.train_bagged"],
            "ensemble.predict_bagged_s": total["ensemble.predict_bagged"],
            "features.extract_s": total["features.extract_features"],
            "features.windows": windows,
            "features.ms_per_window": (
                1e3 * total["features.extract_features"] / windows if windows else 0.0
            ),
            "transfer.warm_start_self_s": self_s["transfer.warm_start"],
            "transfer.report_s": total["transfer.transfer_report"],
            "dsp.filter_s": total["dsp.filter_channels"],
            "dsp.standardize_s": total["dsp.standardize"],
            "dataset.generate_s": total["dataset.generate_synthetic"],
            "dataset.segment_s": total["dataset.segment"],
            "cli.config_s": total["cli.load_config"],
            "trace.spans": float(len(self.spans)),
        }
        for stage in PIPELINE_STAGES:
            out[f"pipeline.{stage}_s"] = c[f"stage.{stage}"]
        return out


# Counters read from arguments and return values at the traced boundaries.

def _on_grow_tree(counts, args, kwargs, tree) -> None:
    counts["trees"] += 1
    counts["leaves"] += tree.n_leaves


def _on_goss(counts, args, kwargs, out) -> None:
    grad = args[0] if args else kwargs["grad"]
    counts["goss_offered"] += len(grad)
    counts["goss_kept"] += len(out[0])


def _on_train(counts, args, kwargs, model) -> None:
    counts["models"] += 1
    counts["rounds_grown"] += model.n_rounds
    counts["rounds_best"] += model.best_iteration


def _on_save_model(counts, args, kwargs, out) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["model_bytes"] += os.path.getsize(path)


def _on_run_pipeline(counts, args, kwargs, result) -> None:
    for stage, seconds in result.get("timings", {}).items():
        counts[f"stage.{stage}"] += seconds


HOOKS = {
    "gbdt.tree.grow_tree": _on_grow_tree,
    "gbdt.sampling.goss_sample": _on_goss,
    "gbdt.booster.train": _on_train,
    "gbdt.io.save_model": _on_save_model,
    "pipeline.run_pipeline": _on_run_pipeline,
}
