"""The suite's own pytest configuration: a failing property test must be
reported as a failed test, its assertion shown, and not abort the session
(hypothesis imports libcst on a failure, whose deprecation warnings
`filterwarnings = ["error"]` would otherwise raise inside a plugin hook)."""

import pathlib
import subprocess
import sys

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

PLANTED = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_planted(x):
    assert x < 0, "planted property failure"


def test_after():
    pass
'''


def test_failing_property_test_reports_its_assertion(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "AssertionError: planted property failure" in out
    assert "1 failed, 1 passed" in out
