"""The suite's own pytest configuration reports failures like any run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@given(st.integers(min_value=0, max_value=10))
@settings(database=None, derandomize=True)
def test_a_property_that_fails(n):
    assert n < 5


def test_a_later_test():
    print("LATER TEST RAN")
'''


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # Hypothesis's failure report imports modules (libcst) that raise a
    # DeprecationWarning; under the suite's filterwarnings that must not
    # turn into an internal error that ends the run.
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-s", "-q", str(test_file)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "LATER TEST RAN" in out
    assert "1 failed, 1 passed" in out
