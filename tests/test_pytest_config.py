"""The test settings in ``pyproject.toml`` let a session report every
failure.  Warnings are errors there, but hypothesis's failure report
imports a module that warns about ``mypy_extensions.TypedDict``: unless
that one warning is ignored, the first failing ``@given`` test ends the
session with INTERNALERROR and hides every later failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_given_fails(n):
    assert n != n


def test_plain_fails():
    assert False
"""


def test_failing_property_test_hides_no_later_failure(tmp_path):
    (tmp_path / "test_two.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout, proc.stdout
    assert "2 failed" in proc.stdout, proc.stdout
    assert proc.returncode == 1, proc.stdout
