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
        ("clt_diagonal.py", ["--sizes", "20", "50"]),
        ("asep_sweep.py", ["--settings", "1", "--n-max", "2"]),
    ],
)
def test_script_runs_to_exit_zero(script, args, tmp_path):
    out = tmp_path / "out.csv"
    if script == "clt_diagonal.py":
        args = [*args, "--out", str(out)]
    proc = _run(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if script == "clt_diagonal.py":
        lines = out.read_text().splitlines()
        assert lines[0] == "n,mean,sd,ks_statistic,n_ks"
        assert [line.split(",")[0] for line in lines[1:]] == ["20", "50"]


@pytest.mark.parametrize(
    "script, args",
    [
        ("clt_diagonal.py", ["--sizes", "0"]),
        ("clt_diagonal.py", ["--sizes", "20", "-4"]),
        ("clt_diagonal.py", ["--sizes", "20", "--draws", "5"]),
        ("asep_sweep.py", ["--tol", "nan"]),
        ("asep_sweep.py", ["--tol", "-1"]),
        ("asep_sweep.py", ["--tol", "inf"]),
        ("asep_sweep.py", ["--settings", "-1"]),
        ("clt_diagonal.py", ["--sizes", "5", "--out", "{tmp}/missing/x.csv"]),
        ("asep_sweep.py", ["--seed", "-1"]),
        ("clt_diagonal.py", ["--sizes", "20", "4001"]),
    ],
)
def test_script_refuses_bad_inputs_before_any_work(script, args, tmp_path):
    proc = _run(script, [a.replace("{tmp}", str(tmp_path)) for a in args])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def _run(script: str, args: list[str]) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(_SRC)},
    )
