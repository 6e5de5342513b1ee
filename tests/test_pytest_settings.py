"""The repository's pytest settings let a failing test report and the run go on."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 10


def test_after_the_failure():
    assert True
'''


def test_a_failing_hypothesis_test_reports_its_example_and_the_run_goes_on(tmp_path):
    # every warning is an error under these settings; Hypothesis' failure
    # report must not raise one, or pytest stops with an internal error
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_a_failing_property(" in out
    assert "1 failed, 1 passed" in out
