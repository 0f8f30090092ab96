"""Self-tests of the benchmark: span arithmetic, gates, determinism and the
agreement of BENCHMARK.json with the code.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from layers import PER_LAYER_METRICS, Layer
from staircase_tableaux import cli
from tracing import Tracer, installed, layer_values

ROOT = Path(__file__).resolve().parent.parent


def scripted_clock(*ticks: float):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_child_spans():
    # origin 0; outer 0..10 holds inner 1..4 and a hot leaf 5..6.
    tracer = Tracer(clock=scripted_clock(0, 0, 1, 4, 5, 6, 10))
    inner = tracer.wrap("inner", lambda: None)
    leaf = tracer.wrap("leaf", lambda: None, keep_span=False)

    def body():
        inner()
        leaf()

    tracer.wrap("outer", body)()
    assert tracer.self_s == {"inner": 3, "leaf": 1, "outer": 6}
    assert tracer.calls == {"inner": 1, "leaf": 1, "outer": 1}
    inner_span, outer_span = tracer.spans
    assert inner_span["parent"] == outer_span["id"]
    assert outer_span["parent"] is None
    assert (outer_span["start"], outer_span["end"]) == (0, 10)
    assert outer_span["folded"] == {"leaf": [1, 1]}


def test_installed_wraps_calling_namespace_and_restores(tmp_path):
    from staircase_tableaux import enumerator, sampler

    original = sampler.multiplicity
    layers = (
        Layer("counting.multiplicity", "hot",
              ("staircase_tableaux.sampler:multiplicity",), (), ()),
        Layer("enumerator.enumerate_all", "span",
              ("staircase_tableaux.enumerator:enumerate_all",), (), (),
              result_count="enumerator.leaves"),
        Layer("stats.dist_r", "span",
              ("staircase_tableaux.cli:_DIST_FNS[r]",), (), ()),
    )
    tracer = Tracer()
    with installed(tracer, layers):
        sampler.sample_many(6, 1, 0)
        enumerator.enumerate_all(2)
        cli.main(["dist", "--stat", "r", "--n", "3", "--format", "json",
                  "--out", str(tmp_path / "d.json")])
    assert sampler.multiplicity is original
    assert cli._DIST_FNS["r"].__name__ == "dist_r"
    values = layer_values(tracer, layers)
    assert values["counting.multiplicity.calls"] > 0
    assert values["enumerator.enumerate_all.calls"] == 1
    assert tracer.counts["enumerator.leaves"] == 4**2 * 2
    assert values["stats.dist_r.calls"] == 1


def _dist_doc(tmp_path: Path, stat: str, n: int) -> dict:
    path = tmp_path / "dist.json"
    assert cli.main(["dist", "--stat", stat, "--n", str(n), "--format", "json",
                     "--no-timestamp", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def test_dist_gate_accepts_true_law_and_rejects_wrong_pmfs(tmp_path):
    doc = _dist_doc(tmp_path, "r", 4)
    assert workloads.check_dist(doc, "r", 4) is None
    assert workloads.check_dist(_dist_doc(tmp_path, "a", 5), "a", 5) is None

    # Swap two masses: still sums to one, but the mean is wrong.
    swapped = json.loads(json.dumps(doc))
    pmf = swapped["pmf"]
    pmf[0]["p"], pmf[1]["p"] = pmf[1]["p"], pmf[0]["p"]
    assert "mean" in workloads.check_dist(swapped, "r", 4)

    # Double one mass: no longer sums to one.
    heavy = json.loads(json.dumps(doc))
    num, den = heavy["pmf"][2]["p"]
    heavy["pmf"][2]["p"] = [str(2 * int(num)), den]
    assert "mass" in workloads.check_dist(heavy, "r", 4)


def test_other_exact_law_gates_reject_a_changed_entry(tmp_path):
    path = tmp_path / "out.json"
    cli.main(["count", "--n", "6", "--table", "--format", "json",
              "--no-timestamp", "--out", str(path)])
    doc = json.loads(path.read_text())
    assert workloads.check_count(doc, 6) is None
    doc["table"][5][2] = str(int(doc["table"][5][2]) + 1)
    assert workloads.check_count(doc, 6) is not None

    cli.main(["triangles", "--which", "c1", "--n-max", "6", "--format", "json",
              "--no-timestamp", "--out", str(path)])
    doc = json.loads(path.read_text())
    assert workloads.check_c1(doc, 6) is None
    doc["rows"][-2][2] = "0"
    assert workloads.check_c1(doc, 6) is not None


def test_census_gates_reject_wrong_histograms():
    from collections import Counter

    n = 2
    r_hist = Counter({0: 8, 1: 16, 2: 8})
    a_hist = Counter({0: 4, 1: 24, 2: 4})
    # At n = 2: r has law (3/8, 1/2, 1/8); a_diag has V(2, .) = (1, 6, 1)/8.
    good_r = Counter({0: 12, 1: 16, 2: 4})
    assert workloads.check_histograms(n, 32, good_r, a_hist) is None
    assert "r histogram" in workloads.check_histograms(n, 32, r_hist, a_hist)
    assert "leaves" in workloads.check_histograms(n, 31, good_r, a_hist)


class _SmallSampling(workloads.Sampling):
    LARGE = (40, 2)
    SMALL = (5, 40)


class _SmallExactLaws(workloads.ExactLaws):
    REQUESTS = (
        ("dist_r", ("dist", "--stat", "r", "--n", "20"),
         lambda doc: workloads.check_dist(doc, "r", 20)),
        ("count_table", ("count", "--n", "10", "--table"),
         lambda doc: workloads.check_count(doc, 10)),
    )


class _SmallCensus(workloads.Census):
    COUNT_N = 4
    VISIT_N = 3
    ASEP_N = 2


def _small(name: str, out_dir: str):
    if name == "sampling":
        return _SmallSampling()
    if name == "exact-laws":
        return _SmallExactLaws(out_dir)
    return _SmallCensus()


def _exact_counts(values: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in values.items() if not k.endswith("_s")}


def test_one_seed_gives_identical_inputs_and_exact_counts(tmp_path):
    for name in run.WORKLOADS:
        first = workloads.make(name, str(tmp_path))
        second = workloads.make(name, str(tmp_path))
        for pass_index in range(3):
            assert first.requests(7, pass_index) == second.requests(7, pass_index)

        counts = []
        for _ in range(2):
            r = run.Run(_small(name, str(tmp_path)))
            values = run.trace_pass(r, 7, tmp_path, {"workload": name})
            assert r.failed == 0 and r.attempted > 0
            counts.append(_exact_counts(values))
        assert counts[0] == counts[1]
        assert any(counts[0].values())
    seeded = workloads.Sampling()
    assert seeded.requests(7, 0) != seeded.requests(8, 0)


def test_failed_request_counts_against_error_rate():
    class Broken(_SmallSampling):
        def execute(self, req):
            if req.key == "sample_small":
                raise ValueError("boom")
            return super().execute(req)

    r = run.Run(Broken())
    run.measure(r, seed=1, seconds=0.0)
    assert r.attempted == 2 and r.failed == 1
    assert r.failures == ["sample_small: ValueError: boom"]
    assert math.isnan(run.report_metrics(r)["sample_small.draws_per_s"]["value"])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == list(PER_LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    r = run.Run(_SmallSampling())
    run.measure(r, seed=1, seconds=0.0)
    e2e = run.end_to_end(r, [0.1])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in e2e.values()]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sampling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
