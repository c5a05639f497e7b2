"""The suite's own pytest settings: every warning is an error, yet a failing test is still reported."""

from pathlib import Path

from test_cli import run_python

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # Hypothesis reports a failure through libcst, whose import warned DeprecationWarning; under
    # filterwarnings = ["error"] that ended the session with INTERNALERROR instead of the report
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    proc = run_python([*argv, str(tmp_path / "test_property.py")], timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1 and "1 failed" in proc.stdout
