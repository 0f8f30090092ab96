"""End-to-end command invocations via main(argv)."""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import staircase_tableaux
from staircase_tableaux import checks, cli, counting
from staircase_tableaux.checks import CHECK_NAMES, verify_suite
from staircase_tableaux.cli import (
    SEED_ENV,
    _TRIPLE_ROW,
    _count_table,
    _pmf_rows,
    _write_json,
    build_parser,
    main,
)
from staircase_tableaux.core import StatVector, from_text, statistics, validate
from staircase_tableaux.stats import STATISTICS, ExactPMF


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


# sha256 of `enumerate --n N --format F --no-timestamp` stdout, keyed "[N ]F"
# with N = 4 when omitted.  The n = 4 digests are the bytes the walk printed
# when every statistic was read off the cells, and the n = 5 one those it
# printed before its last column was written straight into each leaf; the
# current walk must print the same bytes.
_ENUMERATE_PINNED = {
    "csv": "30a9c7488c90404778b760c473fde71762b1d6eda7572867466d04ad6c5f4bc7",
    "text": "7c04c833e5afc7f7983c7c629148378136062885802520dd787a40ff6a99ac25",
    "5 csv": "08007ba56dab2efcc6b41cca01903b5497f592376a23ca3572867250f1bb81bc",
}


@pytest.mark.parametrize("case", sorted(_ENUMERATE_PINNED))
def test_enumerate_outputs_are_pinned(capsys, case):
    n, fmt = case.split() if " " in case else ("4", case)
    code, out = run(
        capsys, "enumerate", "--n", n, "--format", fmt, "--no-timestamp"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _ENUMERATE_PINNED[case]


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


def test_sample_statistics_formats_describe_the_text_draws(capsys):
    argv = ("sample", "--n", "6", "--count", "30", "--seed", "11")
    _, text = run(capsys, *argv)
    stats = [statistics(from_text(line)) for line in text.splitlines()]
    _, csv_out = run(capsys, *argv, "--format", "csv", "--no-timestamp")
    rows = [line for line in csv_out.splitlines() if not line.startswith("#")]
    assert rows == ["n,r,delta,gamma,a_diag,b_diag"] + [
        f"6,{s.r},{s.delta},{s.gamma},{s.a_diag},{s.b_diag}" for s in stats
    ]
    _, json_out = run(capsys, *argv, "--format", "json", "--no-timestamp")
    doc = json.loads(json_out)
    for key, field in (("r_histogram", "r"), ("a_diag_histogram", "a_diag")):
        hist = Counter(getattr(s, field) for s in stats)
        assert doc[key] == {str(v): c for v, c in hist.items()}


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


def test_statistic_choices_come_from_the_one_table():
    # A statistic added to `stats.STATISTICS` reaches both subcommands, and
    # the table and `StatVector` name the same fields.
    fields = tuple(f.name for f in dataclasses.fields(StatVector))
    assert {s.field for s in STATISTICS.values()} == set(fields)
    # The enumerate/sample CSV columns follow the same fields, in order.
    assert cli._STAT_HEADER == ("n", *fields)
    subcommands = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ).choices
    for command in ("dist", "moments"):
        (stat,) = [
            a for a in subcommands[command]._actions if a.dest == "stat"
        ]
        assert list(stat.choices) == sorted(STATISTICS)


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


def test_series_check_json_reports_a_mismatch_as_integer_rows(capsys, monkeypatch):
    from staircase_tableaux import polyengine

    real = polyengine.build_V

    def off_by_one(n):
        rows = [list(row) for row in real(n)]
        rows[4][1] += 1
        return tuple(map(tuple, rows))

    monkeypatch.setattr(polyengine, "build_V", off_by_one)
    code, out = run(
        capsys, "series-check", "--z-order", "6", "--format", "json",
        "--no-timestamp",
    )
    doc = json.loads(out)
    assert code == 1
    assert doc["ok"] is False and doc["orders_checked"] == 4
    assert doc["first_mismatch"] == [
        4,
        ["1", "76", "230", "76", "1", "0", "0"],
        ["1", "77", "230", "76", "1", "0", "0"],
    ]


def test_series_check_rejects_negative_z_order(capsys):
    code = main(["series-check", "--z-order", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: need z-order >= 0, got -1\n"
    code, out = run(capsys, "series-check", "--z-order", "0")
    assert code == 0
    assert out.startswith("ok: True\norders checked: 0\n")


# ------------------------------------------------ exact-law output pins

# sha256 of the stdout of `<argv> --no-timestamp` as the Fraction routes
# printed it; the integer routes for the completion table, the c(1) rows, the
# half-row V and the scaled series must print the same bytes.  The count,
# sample, moments and dist cases pin the metadata paths (table, seed, every
# format) as the front end printed them before its handlers read the parsed
# arguments directly.
_PINNED = {
    "count --n 40 --table --format text":
        "b4b8c90733533de01797dfddb4d47a64ce914306e5f1e848e898afe44d2ab2e4",
    "count --n 40 --table --format csv":
        "2fc419abaa9c64c45c161111f12bfd922e7bc6dfe632002e6e8c747ea5d64b87",
    "count --n 40 --table --format json":
        "b357176ef6c9469feea56fd7be94986acce7d6b60768878e914c44b755343a97",
    "triangles --which c1 --n-max 25 --format text":
        "301d6c4ff41922e244e9dfe9a7ea3a4923047ac7956bba27f68769ce54b8fe73",
    "triangles --which c1 --n-max 25 --format csv":
        "344930bb5b9f196798ed5fbb54293cb981d90df8aea5b085d3e4e0a6ef120c54",
    "triangles --which c1 --n-max 25 --format json":
        "b0eb429cb361a52a745bddaf766dc4214cd8b95d37c8d138aa4c42e400657968",
    "triangles --which V --n-max 25 --format text":
        "9e949c6bb3f9efc8a933e05a9f2ed1fce16c576c537715a40df714746c8281da",
    "triangles --which V --n-max 25 --format csv":
        "a018a33468605f1e0cf6d20aec3a4db1f0e7aa1eb63ff27204a844826563ae21",
    "triangles --which V --n-max 25 --format json":
        "7336ed74d5b68dbde4f14917eebc3a90c9408584a1a27b883e1d605d165f4c60",
    "triangles --which W --n-max 25 --format text":
        "97189c24ad95e10e09558f695d10241e0016963cb568d7eb71ad272182a0f80f",
    "triangles --which W --n-max 25 --format csv":
        "1fea70701ee632b75a2356e18111875391683676d3f5ce6dbd9fb01746a2fca3",
    "triangles --which W --n-max 25 --format json":
        "b52768184550336a9cffe6f6ca4cbd012d5647ea5b2afba0233e8136b9b61f88",
    "dist --stat a --n 300 --format text":
        "a6594a210bd7fe9e6589277a35b2ca504924ddcfb5954688d8bec33eae012ed1",
    "dist --stat a --n 300 --format csv":
        "6bb159da454ef9a5fe3849f14836c20fe9a9340d27edadf5f02f0674f6444273",
    "dist --stat a --n 300 --format json":
        "363ce62ac46f4475039b94d603b769533896d875fcc1c4d4d5d404bc97284673",
    "dist --stat a --n 301 --format text":
        "00ca6894d757968e61c7fa7f727b55cb42d10fe5fa38c9d4788037e645c7737f",
    "dist --stat a --n 301 --format csv":
        "33af251cee10dca06695768eb9327533b626cd937330d887d560fd51bab925f3",
    "dist --stat a --n 301 --format json":
        "8e5313851346a8cf236689718c19183adee4b4c3b45edc440878f462f77fa9b2",
    "series-check --z-order 12 --format text":
        "23794bc9c569c70fe88d09292bb442720308b2acd0ea6e2f383841665b14057c",
    "series-check --z-order 12 --format json":
        "443c53377f11e66f2e9e1e6c30522db044cf9e4e3993ce7e8a6b3f2884d95fec",
    "count --n 5 --format csv":
        "4e1ae81eac6dc4ab78adcf147f0ef3f9315d8517c19198800b882c2a1704b012",
    "count --n 5 --format json":
        "8762a398eb7d5c7db7f6bef71de0d2792653362025b96920a4df12c15f6bb880",
    "sample --n 5 --count 4 --seed 3 --format csv":
        "b14d32c577db84db218e9e7864c8f8589407b84acc26c9b01f620e0654c7c8ad",
    "sample --n 5 --count 4 --seed 3 --format json":
        "4e77f9e29c5778d009927f393c9f0868b14accde96c13036dbbb657c94e6efb8",
    "moments --stat r --n 9 --format text":
        "60e5ceb98efd3e16908776aebb23eae367c5e79f8abd71dd43dcec46d38ab95c",
    "moments --stat r --n 9 --format csv":
        "0f8d3695ecb8e819199deddfe165252ba93a969b782563de77bbd55f340c8628",
    "moments --stat r --n 9 --format json":
        "1f0e8b9365d382760ca718c5366ff3ab97cc49c61838410c48b95edc6907e051",
    "moments --stat a --n 9 --format text":
        "fad28d101ffc7c0953c2240a5b70b925c9c8149fd75df497365b0e4a158e0137",
    "moments --stat a --n 9 --format csv":
        "9d562523db308d2a310793087e8d357f77c381e22618a65b15788cc848a4b9b1",
    "moments --stat a --n 9 --format json":
        "80c349ed09616cd33ffe36020faab2265ce8a3d5a862c62cd46fec6a4a4e4675",
    "dist --stat r --n 7 --format json":
        "92e9a856ee4593d3f63bb0ecd2188f31a57de7ea9bc6796d68b656dd44001ab3",
    "dist --stat delta --n 7 --format json":
        "b11bc1521f60e2e39dca94bf431660b0b484333e067109e6687ec4a66a3e95b1",
    "dist --stat gamma --n 7 --format json":
        "76b815f41afdf555337f3243c430acaeed4d999aebc49ad5c2b243653ceb21a2",
    "dist --stat b --n 7 --format json":
        "c00b9c0880ef2ed2436ce5f0fbfdc300189764650ba3356f1e55429d93664fae",
    "dist --stat r --n 300 --format text":
        "0235da8e4c9d4846e42991d5603925ad2f54603dd8cae0257c59f6bb25297189",
    "dist --stat r --n 300 --format csv":
        "52edf0e8d81852afd0faa5c4f5909856c5b11b59cc1c5055a8916112a3de7573",
    "dist --stat r --n 300 --format json":
        "aa60c7e38b7a57a146b6b9b779ce97486aad925aa8d3b9fc152c479215dfc7da",
    "dist --stat a --n 800 --format json":
        "feba8df4d9af459f5b5b6998e30256e446d2d9eeb615610240dee91ea73233aa",
    "dist --stat delta --n 64 --format csv":
        "09e2d65efbb3018d8cf5f0a6e6046e4a7800a897c7091e579f6dcbf404f97791",
    "dist --stat b --n 65 --format text":
        "2ce8e11a5969d0bb82f00e9d12b44230201e15feefad87f686a429b8cefc7b48",
    # The remaining bench requests and the smallest row payloads, as
    # `json.dump(..., indent=2)` printed them before rows were streamed.
    "count --n 120 --table --format json":
        "02b08cca9caaa58310be596bab21c57c2d451f1021c029d80ec5f9de5b373438",
    # The bench-sized table in the other formats, as the per-row writers
    # (`csv.writer` and one f-string per row) printed it.
    "count --n 120 --table --format csv":
        "efc27c4f8ab3e248f7c7afab24d10b8a7aa5c13874fb4c216ec6de38fc535591",
    "count --n 120 --table --format text":
        "6f619f8536b33f694b630b3630813cde8ad9a853251db338828428fedacfb7fe",
    "triangles --which c1 --n-max 20 --format json":
        "13a2c683da9effd48d0b3610edd7df29399abc07120ac452f5ac85f027f1984d",
    "count --n 0 --table --format json":
        "f9389ebfd0d6d4b9330f97fd8ee3f0f13b29b7e989144b4e5cd2faafbc9a17af",
    "triangles --which V --n-max 0 --format json":
        "7dbd39bb1d04f5cb880e3a5be918b568ba2a48b50ceab46c38d726c9209d6912",
    "dist --stat a --n 1 --format json":
        "61db602c8869439ec22abb97f8b3f486363507058fe0e5b98e4bf009d6a46541",
    # The completion table at its size cap, as the recurrence printed it.
    "count --n 200 --table --format json":
        "04fa1cbe16acad11bbe8068a47f7d59524a4c71c360aeab87cac705622d47011",
    "count --n 200 --table --format csv":
        "ea274eebedb921703cc477ab2490fdd3377f07045a176a7ba53d040d67962cb2",
    "count --n 200 --table --format text":
        "c5599b0cecad893cc945d4719c7e524fde917c923c90808644edce0bd41563d0",
}


@pytest.mark.parametrize("argv", sorted(_PINNED))
def test_exact_law_outputs_are_pinned(capsys, argv):
    code, out = run(capsys, *argv.split(), "--no-timestamp")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[argv]


@pytest.mark.parametrize("n", [0, 1, 2, 9, 40, 120])
def test_count_table_prints_what_the_recurrence_gives(capsys, n):
    # The CLI prints the closed form; the recurrence is its oracle.
    code, out = run(
        capsys, "count", "--n", str(n), "--table", "--format", "json",
        "--no-timestamp",
    )
    assert code == 0
    expected = [
        [k, r, str(count)]
        for k, row in enumerate(counting.completions(n))
        for r, count in enumerate(row)
    ]
    assert json.loads(out)["table"] == expected


def test_count_table_never_runs_the_recurrence(capsys, request, monkeypatch):
    # A cached table would answer without reaching the patched functions.
    _count_table.cache_clear()
    request.addfinalizer(_count_table.cache_clear)

    def refuse(*args):
        raise AssertionError("count --table ran the O(n**3) recurrence")

    monkeypatch.setattr(counting, "multiplicity", refuse)
    monkeypatch.setattr(counting, "_completion_rows", refuse)
    argv = "count --n 120 --table --format json"
    code, out = run(capsys, *argv.split(), "--no-timestamp")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[argv]


def test_count_table_repeats_print_the_first_bytes(capsys, request):
    # The one-entry cache is keyed by (n, format): a repeat is a hit, and an
    # interleaved request evicts, yet every call prints its pinned bytes.
    _count_table.cache_clear()
    request.addfinalizer(_count_table.cache_clear)
    first = {}
    for n, fmt in [(120, "json"), (120, "json"), (120, "csv"), (120, "json"),
                   (40, "text"), (120, "text"), (40, "text"), (40, "text")]:
        argv = f"count --n {n} --table --format {fmt}"
        code, out = run(capsys, *argv.split(), "--no-timestamp")
        assert code == 0
        assert out == first.setdefault(argv, out), argv
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[argv]
        assert _count_table.cache_info().currsize <= 1
    assert _count_table.cache_info().hits == 2


def test_count_table_answers_a_repeat_from_the_cache(request, monkeypatch):
    # A hit does no arithmetic; another format is rendered afresh.
    _count_table.cache_clear()
    request.addfinalizer(_count_table.cache_clear)
    text = _count_table(120, "csv")

    def refuse(n):
        raise AssertionError("total_count ran")

    monkeypatch.setattr(cli, "total_count", refuse)
    assert _count_table(120, "csv") is text
    with pytest.raises(AssertionError, match="total_count ran"):
        _count_table(120, "text")
    assert _count_table.cache_info().currsize <= 1


def test_count_table_json_is_pinned_under_optimize_flag():
    # The streamed row writer must not depend on `assert`.
    src = Path(staircase_tableaux.__file__).resolve().parents[1]
    argv = "count --n 40 --table --format json"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "staircase_tableaux", *argv.split(),
         "--no-timestamp"],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == _PINNED[argv]


def test_dist_json_is_pinned_under_optimize_flag():
    # The exactness guards of the reduction must not depend on `assert`.
    src = Path(staircase_tableaux.__file__).resolve().parents[1]
    argv = "dist --stat a --n 300 --format json"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "staircase_tableaux", *argv.split(),
         "--no-timestamp"],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == _PINNED[argv]


# Every request whose JSON payload goes through the streamed row writer, at
# the smallest sizes and a few larger ones.
_ROW_WRITER_REQUESTS = [
    *(f"count --n {n} --table" for n in (0, 1, 2, 9)),
    *(f"dist --stat {stat} --n {n}"
      for stat in ("r", "delta", "gamma", "a", "b") for n in (1, 2, 9)),
    *(f"triangles --which {which} --n-max {n}"
      for which in ("V", "W", "c1") for n in (0, 1, 6)),
]


@pytest.mark.parametrize("argv", _ROW_WRITER_REQUESTS)
def test_row_writer_prints_what_json_dump_prints(capsys, tmp_path, argv):
    args = [*argv.split(), "--format", "json", "--no-timestamp"]
    code, out = run(capsys, *args)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    target = tmp_path / "out.json"
    assert main([*args, "--out", str(target)]) == 0
    assert target.read_bytes() == out.encode()


def test_row_writer_prints_an_empty_row_list_as_json_does():
    buf = io.StringIO()
    _write_json(buf, {"schema": "s"}, {"total": "0"}, ("rows", _TRIPLE_ROW, []))
    doc = {"schema": "s", "total": "0", "rows": []}
    assert buf.getvalue() == json.dumps(doc, indent=2) + "\n"


def _fresh_process(argv):
    """(exit status, stdout, stderr) of `python -m staircase_tableaux argv`
    in a new interpreter with the current environment."""
    src = Path(staircase_tableaux.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "staircase_tableaux", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    # The parser is built once per process; each call in this sequence must
    # answer exactly as a fresh interpreter does.
    monkeypatch.delenv(SEED_ENV, raising=False)
    sample = ["sample", "--n", "5", "--count", "4", "--format", "json",
              "--no-timestamp"]
    dist = ["dist", "--n", "30", "--stat"]
    calls = [
        (None, ["dist", "--stat", "a", "--n", "1001"]),
        # Each law's row is cached for its last n: a repeat, a statistic
        # sharing the row, and a row evicted and built again.
        (None, [*dist, "a"]),
        (None, [*dist, "a"]),
        (None, [*dist, "b"]),
        (None, [*dist, "r"]),
        (None, [*dist, "delta"]),
        (None, ["dist", "--n", "31", "--stat", "a"]),
        (None, ["dist", "--n", "31", "--stat", "r"]),
        (None, [*dist, "a"]),
        (None, [*dist, "r"]),
        # The last two renderings are cached by law: a repeat, the same law
        # in every format, and a three-law rotation that evicts.
        (None, [*dist, "a"]),
        (None, [*dist, "a"]),
        (None, [*dist, "a", "--format", "json", "--no-timestamp"]),
        (None, [*dist, "a", "--format", "csv", "--no-timestamp"]),
        (None, [*dist, "a", "--format", "text"]),
        (None, [*dist, "r"]),
        (None, [*dist, "delta"]),
        (None, [*dist, "a"]),
        (None, [*dist, "r"]),
        (None, [*dist, "delta"]),
        (None, [*sample, "--seed", "3"]),
        ("12", sample),
        (None, ["--version"]),
        (None, ["--version"]),
    ]
    for env_seed, argv in calls:
        if env_seed is not None:
            monkeypatch.setenv(SEED_ENV, env_seed)
        try:
            code = main(argv)
        except SystemExit as exc:  # --version exits through argparse
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_process(argv), argv
    assert build_parser() is build_parser()


def test_text_draws_are_written_as_they_are_drawn(tmp_path, monkeypatch):
    # sha256 of the file as the front end wrote it when it drew the whole
    # list first; the stream holds one tableau at a time instead of 10**4.
    monkeypatch.delenv(SEED_ENV, raising=False)
    target = tmp_path / "draws.txt"
    tracemalloc.start()
    try:
        code = main(["sample", "--n", "5", "--count", "10000", "--format",
                     "text", "--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**20
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "c6a25cdb5477c4b663da2b7a5e9a18a156925e6bab21e6c8a71019ec3c3bc5e1"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        ("count --n 1001", "need 0 <= n <= 1000, got 1001"),
        ("count --n -1", "need 0 <= n <= 1000, got -1"),
        ("count --n 201 --table --format csv",
         "need 0 <= n <= 200 with --table, got 201"),
        ("dist --stat r --n 1500 --format csv", "need 1 <= n <= 1000, got 1500"),
        ("dist --stat a --n 1001", "need 1 <= n <= 1000, got 1001"),
        ("sample --n 10001 --count 1", "need 1 <= n <= 10000, got 10001"),
        ("sample --n 0 --format json", "need 1 <= n <= 10000, got 0"),
        ("sample --n 3 --count 100000000000 --format json",
         "need count <= 1000000, got 100000000000"),
        ("sample --n 10000 --count 1000000",
         "need n * count <= 10000000 columns, got 10000000000"),
        ("sample --n 11 --count 1000000 --format csv",
         "need n * count <= 10000000 columns, got 11000000"),
        ("triangles --which c1 --n-max 201", "need 0 <= n-max <= 200, got 201"),
        ("triangles --which V --n-max -1 --format json",
         "need 0 <= n-max <= 200, got -1"),
        ("moments --stat r --n 10000", "need 1 <= n <= 1000, got 10000"),
        ("moments --stat gamma --n 1001 --format json",
         "need 1 <= n <= 1000, got 1001"),
        ("moments --stat a --n 100000000000 --format csv",
         "need 1 <= n <= 1000, got 100000000000"),
        ("series-check --z-order 101", "need 0 <= z-order <= 100, got 101"),
        ("series-check --z-order 1000 --format json",
         "need 0 <= z-order <= 100, got 1000"),
        ("asep --n 3 --alpha 1e-5000 --beta 1/3 --gamma 1/4 --delta 1/5 "
         "--q 1/2 --u 1/3 --mode partition",
         "alpha=1e-5000 has a denominator above 1000000000"),
    ],
)
def test_size_caps_refuse_before_any_output(capsys, argv, message):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_count_answers_at_its_cap(capsys):
    code, out = run(capsys, "count", "--n", "1000")
    assert code == 0
    assert int(out) == 4**1000 * factorial(1000)


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


@pytest.mark.parametrize(
    "mode",
    ["verify", "partition", "stationary", "verify --exact", "stationary --exact"],
)
def test_asep_runs_at_the_cap(capsys, mode):
    code, out = run(
        capsys, "asep", "--n", "8", *_PARAMS, "--mode", *mode.split(),
        "--no-timestamp",
    )
    doc = json.loads(out)
    assert code == 0
    if mode == "verify":
        assert doc["passed"] is True and doc["residual"] < 1e-12
    elif mode == "verify --exact":
        assert doc["passed"] is True and doc["residual"] == ["0", "1"]
    elif mode == "partition":
        assert len(doc["by_type"]) == 256
    else:
        assert len(doc["pi"]) == 256
        if mode == "stationary --exact":
            assert sum(Fraction(*map(int, e["p"])) for e in doc["pi"]) == 1


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


# sha256 of the stdout of `asep --n N <_PARAMS> --mode M [--exact]
# --no-timestamp` as the dense Fraction matrix and its Gaussian elimination
# printed it; the move-list chain and the certified exact law must print the
# same bytes.
_ASEP_PINNED = {
    "1 verify":
        "9630edd55c5427944b49afccb07d8f93a9f104bfb65225425b96e475b95a3bcb",
    "1 stationary":
        "89bad04ac986d1b3f9b9ebc5dac3a689f2867d3a4ed9d49b86c88e3f8cacc872",
    "1 partition":
        "43553d5705aed973c713177e4f6d16756c678bc01b10a5f3a71bcb1aeb1bfcb0",
    "3 verify":
        "884a73d12e5af94e16a9d395bcd97d3ef9ff12ffa46829f4de950716e29e3b2e",
    "3 stationary":
        "b2eb2ef7536628fb14065de0c672d02992bddbcd7f485bf14eaff316774bed7f",
    "3 partition":
        "c15001d285013390a0f5426305c2bb99b95178a28b7cf57beb4a375dde9b0a50",
    "8 verify":
        "3adeba03f237c9796282355c8346b11ec7e82880e8eec2630e73a032632a54c4",
    "8 stationary":
        "f20c9044b9dd9c09dd3eb6d5a25d9aa685f4bb4076b38a4292e1c1fd3d78eb25",
    "8 partition":
        "853d075d2bed93abb0b0cb2176f9e18215f797826028dc5de25957b32d8fba42",
    "1 stationary --exact":
        "804c1cfc3da222bbb3a3211575f3f9f02279cde8d8d88abca2c89f211e960f0d",
    "2 stationary --exact":
        "35035fae8abacd870a894b321622db2b47198486c6c5736a56343cb56e436973",
    "3 stationary --exact":
        "e4d5765a354f114a5488c244690f93d95e85ad3e38e54cc8cd45a815ae4a833e",
    "4 stationary --exact":
        "062552a8acb3085cbae4bd6e3b8cfd86271f279ec82794cf401715c266cd43b2",
    "5 stationary --exact":
        "f48b15d1e8148fb6e5f944fc8e04c483dd33a170944a271b01a848bf089ca0bb",
    "6 stationary --exact":
        "391ff97e29b71c9a327ce4de5a935169ed73f3cbe6817fd281462b1f4a85498e",
    "7 stationary --exact":
        "5731b1e4f769b928696d253d9bd56e3f423e6179bbbfbeb2fd43e21279928b9c",
    "8 stationary --exact":
        "2531b04e98eaeae9bf3a28a21b4c36c6501eb8612ede33543f4166732d396418",
    "1 verify --exact":
        "e8dcbb8281ddfbf99d413f5d4ae71739f238b721606c30f06173ea650c2b079c",
    "2 verify --exact":
        "154a8dcfe0b742058aa54416be3acc265eafd3ffb10622d65d895f2dc52f3895",
    "3 verify --exact":
        "a8ee1d2ae3d3996e6d16f038c4686eb02371737e1f053fc43da6c5f33783a2a8",
    "4 verify --exact":
        "fa283a0c4cffcb7b364000fb7be1548fa5c4638175465a808f50a7ef9bb8fcc1",
    "5 verify --exact":
        "4cac5afcd981e7acc1f1cc429c12453d600d55acd39872fe1d37987726d7cd40",
    "6 verify --exact":
        "f1464988ac667d32071cc0b229c1486f72ba3cb2b474d52624deca49a8803f25",
    "7 verify --exact":
        "4c4df33ddf9baf0d6bae8619d6850adc7c32779926a75cfe56a61ba7e30f875f",
    "8 verify --exact":
        "d27dcf02388d05e4181c8e509df6b70d197328a16c66aa7e48dffe689a5ce863",
}


@pytest.mark.parametrize("case", list(_ASEP_PINNED))
def test_asep_outputs_are_pinned(capsys, case):
    n, mode, *exact = case.split()
    code, out = run(
        capsys, "asep", "--n", n, *_PARAMS, "--mode", mode, *exact,
        "--no-timestamp",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _ASEP_PINNED[case]


def test_asep_rejects_malformed_rate(capsys):
    code = main(["asep", "--n", "2", "--alpha", "abc", *_PARAMS[2:]])
    assert code == 2


def test_asep_rejects_rate_above_one(capsys):
    code = main(["asep", "--n", "2", "--alpha", "3/2", *_PARAMS[2:]])
    assert code == 2


def test_asep_zero_denominator_rate_is_a_one_line_error(capsys):
    code = main(["asep", "--n", "2", "--alpha", "1/0", *_PARAMS[2:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: alpha=1/0 has a zero denominator\n"


@pytest.mark.parametrize(
    "rate, message",
    [
        ("0e3000000", "alpha=0e3000000 has a decimal exponent above 110"),
        ("1e-3000000", "alpha=1e-3000000 has a denominator above 1000000000"),
        ("1/" + "7" * 5000, "alpha is 5002 characters long, above 100"),
        ("abc", "alpha=abc is not a rational number"),
    ],
    ids=["zero-huge-exponent", "tiny-exponent", "5000-digits", "not-a-number"],
)
def test_asep_runaway_rate_text_is_refused_unparsed(capsys, rate, message):
    # Parsing 0e3000000 or 1e-3000000 took over a second, and a 5000-digit
    # literal hit Python's integer-string limit without naming the rate.
    start = time.perf_counter()
    code = main(["asep", "--n", "2", "--alpha", rate, *_PARAMS[2:]])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert elapsed < 0.5


@pytest.mark.parametrize("mode", ["stationary", "partition", "verify"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_asep_tol_must_be_finite_and_positive(capsys, mode, tol):
    code = main(
        ["asep", "--n", "2", *_PARAMS, "--mode", mode, "--tol", tol]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: --tol must be a finite positive number, got {float(tol)}\n"
    )


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


def test_verify_document_is_pinned(capsys):
    # The whole report of one seeded check as the front end printed it before
    # its handlers read the parsed arguments directly; only the timings vary.
    code, out = run(
        capsys, "verify", "--suite", "cardinality", "--n-max", "2",
        "--seed", "4", "--no-timestamp",
    )
    doc = json.loads(out)
    for check in doc["checks"]:
        del check["elapsed_s"]
    assert code == 0
    assert doc == {
        "schema": "staircase-tableaux/1",
        "version": staircase_tableaux.__version__,
        "command": "verify",
        "config": {"n_max": 2, "suite": "cardinality", "format": "json"},
        "seed": 4,
        "seed_source": "flag",
        "rng": "python-random-mt19937",
        "checks": [
            {
                "name": "cardinality",
                "passed": True,
                "measured": {"counts": {"1": 4, "2": 32}},
            }
        ],
        "passed": True,
    }
    assert list(doc) == [
        "schema", "version", "command", "config", "seed", "seed_source",
        "rng", "checks", "passed",
    ]


@pytest.mark.parametrize(
    "suite, n_max",
    [("cardinality", 2), ("sampler-exactness", 3), ("sampler-chi-square", 4)],
)
def test_verify_passes_under_optimize_flag(suite, n_max):
    # No gate may depend on `assert`.
    src = Path(staircase_tableaux.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "staircase_tableaux", "verify",
         "--suite", suite, "--n-max", str(n_max)],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_asep_exact_passes_under_optimize_flag():
    # The balance certificate behind the exact law must not rely on `assert`.
    src = Path(staircase_tableaux.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "staircase_tableaux", "asep", "--n", "3",
         *_PARAMS, "--exact", "--no-timestamp"],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True and doc["residual"] == ["0", "1"]


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy serves only `ASEPChain.to_numpy`, so it is imported on use.
    src = Path(staircase_tableaux.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, staircase_tableaux.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_asep_and_its_check_run_with_numpy_blocked():
    # A None entry in sys.modules makes any import of numpy fail: numpy is a
    # test extra, and no `asep` mode nor the asep-grid check reaches for it.
    src = Path(staircase_tableaux.__file__).resolve().parents[1]
    runs = [
        ["asep", "--n", "8", *_PARAMS, "--mode", mode, *exact]
        for mode in ("stationary", "partition", "verify")
        for exact in ([], ["--exact"])
    ]
    runs.append(["verify", "--n-max", "6", "--suite", "asep-grid"])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['numpy'] = None\n"
         "from staircase_tableaux.cli import main\n"
         f"print([main(argv) for argv in {runs!r}], file=sys.stderr)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{[0] * len(runs)}\n"


def test_verify_suite_function_runs_every_named_check():
    results = verify_suite(1)
    assert [r.name for r in results] == list(CHECK_NAMES)
    assert all(r.passed for r in results)


def test_verify_suite_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_suite(7)
    with pytest.raises(ValueError):
        verify_suite(2, names=["no-such-check"])


def test_verify_suite_refuses_a_negative_seed_before_any_check(monkeypatch):
    # `random.Random` seeds with |seed|, so -5 would run the checks of 5.
    monkeypatch.setattr(checks, "_REGISTRY", {
        name: lambda rg, seed: pytest.fail("a check ran") for name in CHECK_NAMES
    })
    with pytest.raises(ValueError, match=r"^need seed >= 0, got -5$"):
        verify_suite(2, seed=-5)


@pytest.mark.parametrize("suite", ["sampler-exactness", "sampler-chi-square"])
def test_verify_chi_square_checks_run_without_scipy(suite, capsys, monkeypatch):
    # A None entry in sys.modules makes any import of scipy fail, so a pass
    # shows that no code path of these checks reaches for it.
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.stats", None)
    code = main(["verify", "--suite", suite, "--n-max", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


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


def _assert_one_line_error(capsys, code):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "sample --n 3 --count 0",
        "asep --n 3 --alpha 0 --beta 1 --gamma 1 --delta 1 --q 1 --u 1 "
        "--mode stationary",
    ],
)
def test_refused_request_leaves_the_out_path_untouched(capsys, tmp_path, argv):
    existing, fresh = tmp_path / "existing.txt", tmp_path / "fresh.txt"
    existing.write_bytes(b"previous\n")
    for target in (existing, fresh):
        _assert_one_line_error(capsys, main([*argv.split(), "--out", str(target)]))
    assert existing.read_bytes() == b"previous\n"
    assert not fresh.exists()


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "argv", ["dist --stat a --n 300", "count --n 40 --table", "triangles --which c1"]
)
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv, fmt):
    # The file is written through a 64 KiB buffer; the dist payload is
    # larger than that, so the buffer is flushed before the file is closed.
    args = [*argv.split(), "--format", fmt, "--no-timestamp"]
    code, out = run(capsys, *args)
    assert code == 0
    target = tmp_path / "out"
    assert main([*args, "--out", str(target)]) == 0
    assert target.read_bytes() == out.encode()


def test_out_into_a_missing_directory_is_a_one_line_error(capsys, tmp_path):
    target = tmp_path / "missing" / "out.txt"
    _assert_one_line_error(capsys, main(["count", "--n", "3", "--out", str(target)]))
    assert not target.parent.exists()


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


def test_unparseable_env_seed_is_ignored_without_a_seed_flag(capsys, monkeypatch):
    # Only `sample` and `verify` take a seed, so only they read the variable.
    monkeypatch.setenv("STAIRCASE_TABLEAUX_SEED", "abc")
    code, out = run(capsys, "count", "--n", "3")
    assert code == 0
    assert out == "384\n"


@pytest.mark.parametrize(
    "argv",
    [
        "sample --n 3 --count 2",
        "sample --n 3 --count 2 --format csv",
        "verify --suite cardinality --n-max 2",
    ],
)
def test_negative_seed_flag_is_refused_before_any_output(capsys, monkeypatch, argv):
    # `random.Random(-5)` draws the stream of `random.Random(5)`.
    monkeypatch.delenv(SEED_ENV, raising=False)
    code = main([*argv.split(), "--seed", "-5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: --seed must be non-negative, got -5\n"


@pytest.mark.parametrize(
    "argv", ["sample --n 3 --count 2", "verify --suite cardinality --n-max 2"]
)
def test_negative_env_seed_is_refused_before_any_output(capsys, monkeypatch, argv):
    monkeypatch.setenv(SEED_ENV, "-5")
    code = main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {SEED_ENV} must be non-negative, got -5\n"


def test_seed_zero_is_still_accepted(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "0")
    code, out = run(capsys, "sample", "--n", "2", "--count", "1", "--format",
                    "json", "--no-timestamp")
    doc = json.loads(out)
    assert (code, doc["seed"], doc["seed_source"]) == (0, 0, "env")


def test_pmf_rows_print_a_zero_weight_as_zero_over_one():
    rows = _pmf_rows(ExactPMF(0, (0, 3, 1), 4), 2)
    assert rows == ((0, "0", "1"), (1, "3", "4"), (2, "1", "4"))


@pytest.mark.parametrize("name", sorted(STATISTICS))
def test_pmf_rows_reduce_each_law_as_fraction_does(name):
    # From n = 1, where the law is over 2 and no odd prime is <= n.
    for n in range(1, 41):
        law = STATISTICS[name].law(n)
        want = tuple(
            (v, str(p.numerator), str(p.denominator))
            for v, p in zip(law.support(), law.probs)
        )
        assert _pmf_rows(law, n) == want, n


def test_pmf_rows_strip_a_factor_the_weight_holds_to_a_higher_power():
    # 27 = 3**3 against 48 = 2**4 * 3: only one factor 3 is common.
    rows = _pmf_rows(ExactPMF(0, (27, 21), 48), 3)
    assert rows == ((0, "9", "16"), (1, "7", "16"))


def test_pmf_rows_raise_when_a_common_factor_does_not_divide(
    request, monkeypatch
):
    # A cap that returns three times the true gcd leaves 48 / 9, which the
    # denominator's Decimal context refuses instead of rounding.  The law's
    # clean rendering may be cached, and must not answer for the defect.
    _pmf_rows.cache_clear()
    request.addfinalizer(_pmf_rows.cache_clear)
    real = cli.gcd
    monkeypatch.setattr(
        cli, "gcd", lambda a, b: real(a, b) * (3 if a == 48 else 1)
    )
    with pytest.raises(decimal.Inexact):
        _pmf_rows(ExactPMF(0, (27, 21), 48), 3)


def test_pmf_rows_answer_an_equal_law_from_the_cache(request, monkeypatch):
    # A hit is keyed by the law's value and does no arithmetic; a law with
    # other weights over the same denominator and size is rendered afresh.
    _pmf_rows.cache_clear()
    request.addfinalizer(_pmf_rows.cache_clear)
    rows = _pmf_rows(ExactPMF(0, (27, 21), 48), 3)

    def refuse(a, b):
        raise AssertionError("gcd ran")

    monkeypatch.setattr(cli, "gcd", refuse)
    assert _pmf_rows(ExactPMF(0, (27, 21), 48), 3) is rows
    with pytest.raises(AssertionError, match="gcd ran"):
        _pmf_rows(ExactPMF(0, (21, 27), 48), 3)


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
