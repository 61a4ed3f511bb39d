"""The suite's own pytest settings: a failing property test is reported as
one failure, and the tests after it still run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTY_MODULE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_passing_test():
    pass
"""


def test_a_failing_property_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_MODULE)
    command = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py",
    ]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
