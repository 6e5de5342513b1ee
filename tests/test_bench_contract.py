"""The names bench/tracing.py wraps must exist in the package.

Tracer.install() looks up every (module, attribute) in SPANNED and
Tree.predict_binned with getattr, so renaming one of them would make every
traced benchmark run fail. The tracer module is loaded from its file as it
is, without importing the benchmark package.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
