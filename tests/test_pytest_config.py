"""The repository's pytest configuration, as the tier-1 step runs it: with
warnings as errors, a failing Hypothesis test still reports its falsifying
example."""

import pathlib
import subprocess
import sys

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_ten(n):
    assert n < 10
"""


def test_a_failing_hypothesis_test_prints_its_falsifying_example_under_warnings_as_errors(tmp_path):
    """Hypothesis's report hook touches ``mypy_extensions.TypedDict`` where
    that package is installed, and its DeprecationWarning, raised as an
    error, would end the run in an INTERNALERROR before the falsifying
    example is printed; the configuration ignores that one warning."""
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout
    assert "Falsifying example" in run.stdout, run.stdout
    assert "INTERNALERROR" not in run.stdout, run.stdout
