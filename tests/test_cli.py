"""End-to-end command invocations via main(argv)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import staircase_tableaux
from staircase_tableaux.checks import CHECK_NAMES, verify_suite
from staircase_tableaux.cli import main
from staircase_tableaux.core import from_text, validate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ------------------------------------------------------------------ basics


def test_count_prints_the_plain_total(capsys):
    code, out = run(capsys, "count", "--n", "5")
    assert code == 0
    assert out == "122880\n"


def test_count_table_csv_lists_completion_counts(capsys):
    code, out = run(
        capsys, "count", "--n", "2", "--table", "--format", "csv",
        "--no-timestamp",
    )
    assert code == 0
    lines = out.splitlines()
    assert "k,r,count" in lines
    assert lines[-1] == "2,0,32"


def test_dist_csv_documented_example(capsys):
    code, out = run(
        capsys, "dist", "--stat", "a", "--n", "3", "--format", "csv",
        "--no-timestamp",
    )
    assert code == 0
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert data == [
        "value,numerator,denominator",
        "0,1,48",
        "1,23,48",
        "2,23,48",
        "3,1,48",
    ]


def test_dist_json_serializes_rationals_as_string_pairs(capsys):
    code, out = run(
        capsys, "dist", "--stat", "r", "--n", "2", "--format", "json",
        "--no-timestamp",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["schema"] == "staircase-tableaux/1"
    assert doc["pmf"][0] == {"value": 0, "p": ["3", "8"]}


def test_moments_text_output(capsys):
    code, out = run(capsys, "moments", "--stat", "r", "--n", "3")
    assert code == 0
    assert out == "mean = 11/12\nvariance = 83/144\n"


def test_enumerate_streams_parseable_tableaux(capsys):
    code, out = run(capsys, "enumerate", "--n", "2")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 32
    assert all(validate(from_text(line)) == [] for line in lines)


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("n", ["7", "0"])
def test_enumerate_rejects_sizes_outside_the_cap(capsys, n, fmt):
    code = main(["enumerate", "--n", n, "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: need 1 <= n <= 6, got {n}\n"


def test_sample_draws_parse_and_repeat(capsys):
    code, first = run(capsys, "sample", "--n", "4", "--count", "5", "--seed", "9")
    assert code == 0
    assert len(first.splitlines()) == 5
    assert all(validate(from_text(l)) == [] for l in first.splitlines())
    _, second = run(capsys, "sample", "--n", "4", "--count", "5", "--seed", "9")
    assert second == first


def test_sample_json_summarizes_histograms(capsys):
    code, out = run(
        capsys, "sample", "--n", "3", "--count", "40", "--seed", "1",
        "--format", "json", "--no-timestamp",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["seed"] == 1 and doc["seed_source"] == "flag"
    assert doc["rng"] == "python-random-mt19937"
    assert sum(doc["r_histogram"].values()) == 40
    assert sum(doc["a_diag_histogram"].values()) == 40


@pytest.mark.parametrize("count", ["0", "-2"])
def test_sample_rejects_count_below_one(capsys, count):
    code = main(["sample", "--n", "3", "--count", count])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --count must be at least 1, got {count}\n"


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("stat", ["r", "delta", "gamma", "a", "b"])
@pytest.mark.parametrize("command", ["dist", "moments"])
def test_statistic_laws_reject_n_below_one(capsys, command, stat, n):
    code = main([command, "--stat", stat, "--n", n])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: need n >= 1, got {n}\n"


def test_triangles_csv_has_the_whitney_row(capsys):
    code, out = run(
        capsys, "triangles", "--which", "W", "--n-max", "4", "--no-timestamp"
    )
    assert code == 0
    assert "4,2,58" in out.splitlines()


def test_series_check_passes(capsys):
    code, out = run(
        capsys, "series-check", "--z-order", "6", "--format", "json",
        "--no-timestamp",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["ok"] is True
    assert doc["pole_constants"] == [["1", "1"], ["-1", "2"], ["1", "6"]]


def test_series_check_rejects_negative_z_order(capsys):
    code = main(["series-check", "--z-order", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: need z-order >= 0, got -1\n"
    code, out = run(capsys, "series-check", "--z-order", "0")
    assert code == 0
    assert out.startswith("ok: True\norders checked: 0\n")


# -------------------------------------------------------------------- asep


_PARAMS = ["--alpha", "1/2", "--beta", "1/2", "--gamma", "1/4",
           "--delta", "1/4", "--q", "1/5", "--u", "3/5"]


def test_asep_verify_round_trip(capsys):
    code, out = run(capsys, "asep", "--n", "2", *_PARAMS, "--no-timestamp")
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert doc["max_deviation"] < 1e-10


def test_asep_partition_mode_lists_types(capsys):
    code, out = run(
        capsys, "asep", "--n", "2", *_PARAMS, "--mode", "partition",
        "--no-timestamp",
    )
    doc = json.loads(out)
    assert code == 0
    assert [e["type"] for e in doc["by_type"]] == ["00", "01", "10", "11"]


@pytest.mark.parametrize("mode", ["verify", "partition", "stationary"])
def test_asep_runs_at_the_cap(capsys, mode):
    code, out = run(
        capsys, "asep", "--n", "8", *_PARAMS, "--mode", mode, "--no-timestamp",
    )
    doc = json.loads(out)
    assert code == 0
    if mode == "verify":
        assert doc["passed"] is True and doc["residual"] < 1e-12
    elif mode == "partition":
        assert len(doc["by_type"]) == 256
    else:
        assert len(doc["pi"]) == 256


@pytest.mark.parametrize("mode", ["verify", "partition", "stationary"])
def test_asep_beyond_the_cap_is_a_one_line_error(capsys, mode):
    code = main(["asep", "--n", "9", *_PARAMS, "--mode", mode])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: need 1 <= n <= 8, got 9")
    assert captured.err.count("\n") == 1


def test_asep_exact_verify_prints_a_rational_residual(capsys):
    code, out = run(
        capsys, "asep", "--n", "2", *_PARAMS, "--exact", "--no-timestamp",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["residual"] == ["0", "1"]


def test_asep_rejects_malformed_rate(capsys):
    code = main(["asep", "--n", "2", "--alpha", "abc", *_PARAMS[2:]])
    assert code == 2


def test_asep_rejects_rate_above_one(capsys):
    code = main(["asep", "--n", "2", "--alpha", "3/2", *_PARAMS[2:]])
    assert code == 2


# ------------------------------------------------------------------ verify


def test_verify_single_check_exit_zero(capsys):
    code, out = run(
        capsys, "verify", "--suite", "cardinality", "--n-max", "2",
        "--no-timestamp",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert doc["checks"][0]["name"] == "cardinality"
    assert doc["checks"][0]["measured"]["counts"] == {"1": 4, "2": 32}
    assert doc["checks"][0]["elapsed_s"] >= 0


def test_verify_passes_under_optimize_flag():
    src = Path(staircase_tableaux.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "staircase_tableaux", "verify",
         "--suite", "cardinality", "--n-max", "2"],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_verify_suite_function_runs_every_named_check():
    results = verify_suite(1)
    assert [r.name for r in results] == list(CHECK_NAMES)
    assert all(r.passed for r in results)


def test_verify_suite_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_suite(7)
    with pytest.raises(ValueError):
        verify_suite(2, names=["no-such-check"])


# ------------------------------------------------------------ output paths


def test_out_flag_writes_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        code = main([
            "sample", "--n", "5", "--count", "10", "--seed", "3",
            "--format", "csv", "--no-timestamp", "--out", str(target),
        ])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"# schema=staircase-tableaux/1\n")


def test_env_variable_provides_the_default_seed(capsys, monkeypatch):
    monkeypatch.setenv("STAIRCASE_TABLEAUX_SEED", "77")
    _, out = run(
        capsys, "sample", "--n", "2", "--count", "1", "--format", "json",
        "--no-timestamp",
    )
    doc = json.loads(out)
    assert doc["seed"] == 77
    assert doc["seed_source"] == "env"


def test_seed_flag_overrides_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("STAIRCASE_TABLEAUX_SEED", "77")
    _, out = run(
        capsys, "sample", "--n", "2", "--count", "1", "--seed", "5",
        "--format", "json", "--no-timestamp",
    )
    doc = json.loads(out)
    assert doc["seed"] == 5
    assert doc["seed_source"] == "flag"


def test_unparseable_env_seed_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("STAIRCASE_TABLEAUX_SEED", "not-a-number")
    assert main(["sample", "--n", "2", "--count", "1"]) == 2


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
