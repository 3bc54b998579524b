"""The suite's own pytest settings: a failing test fails alone."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_leaves_the_run_going(tmp_path):
    # On a failure Hypothesis imports libcst for its patch hints, and that
    # import warns; under filterwarnings = error the warning aborted the run
    # with an INTERNALERROR (exit 3) before the passing test ran. Where
    # libcst is not installed there is no such import, and the run passes
    # this test without the filter too.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
