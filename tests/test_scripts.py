"""Smoke runs of the scripts under ``scripts/``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import staircase_tableaux

_ROOT = Path(__file__).resolve().parents[1]
_SRC = Path(staircase_tableaux.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("clt_diagonal.py", ["--sizes", "20", "--draws", "10000"]),
        ("asep_sweep.py", ["--settings", "1", "--n-max", "2"]),
    ],
)
def test_script_runs_to_exit_zero(script, args):
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(_SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
