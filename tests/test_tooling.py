"""The repository's pytest configuration reports failures, including those of
property tests, without ending the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "Falsifying example" in done.stdout
