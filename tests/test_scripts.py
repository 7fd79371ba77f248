"""The example scripts keep the CLI's exit-code contract: 2 for a usage error,
never 1 (a failed criterion) and never an uncaught traceback."""

import os
import subprocess
import sys

import pytest

import superint
from superint.cli import EXIT_USAGE

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")


@pytest.mark.parametrize("script,argv", [
    ("spectrum_report.py", ["--alpha", "-0.5"]),  # below the coupling floor
    ("spectrum_report.py", ["--Q", "0"]),  # three CLI steps exit 2
    ("closure_portrait.py", ["--energy", "0.1"]),  # no bounded orbit
], ids=["spectrum_alpha", "spectrum_Q", "closure_energy"])
def test_usage_error_exits_usage(tmp_path, script, argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(superint.__file__)))
    result = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *argv, "--out-dir", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert result.returncode == EXIT_USAGE, result.stderr
    assert "Traceback" not in result.stderr
    assert "error:" in result.stderr
