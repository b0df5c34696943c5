"""The warning policy of a test run, set in pyproject.toml: an unexpected
warning fails its test, and a failing Hypothesis test fails alone rather than
stopping the run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_given(x):
    assert x < 0


def test_an_unexpected_warning():
    warnings.warn("unexpected")


def test_a_later_test():
    pass
'''


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="Hypothesis reports a failing example through libcst")
def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # libcst 1.0 imports mypy_extensions.TypedDict, which warns; raised as an error,
    # that warning escapes Hypothesis's report hook and pytest stops with INTERNALERROR
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout[-2000:]
    assert "2 failed, 1 passed" in run.stdout, run.stdout[-2000:]
