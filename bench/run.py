#!/usr/bin/env python3
"""Benchmark for staircase_tableaux: three workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload sampling --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 1
    python3 -m pytest bench -q          # the benchmark's own self-tests

Workloads (sizes are part of each definition; see ``workloads.py``):
``sampling``, ``exact-laws`` and ``census``.  Everything runs in this one
process with no extra threads; the only child processes are the set-up
probes, started one at a time and waited for before the timed loop.

``--trace 0`` measures for ``--seconds`` of timed calls and reports the
end-to-end metrics: ``setup_s`` (median of fresh processes timed from start to
``staircase_tableaux.cli`` imported with the ``legal_fills`` cache filled),
``wall_s`` (one pass of the workload's requests: the sum over its requests
of their mean time in the run) and ``peak_rss_mib``.  ``wall_s`` takes means,
not medians: on a shared host the time of one request jumps between a fast
and a slow level as other tenants come and go, and the median of such a
bimodal sample jumps with it, while the mean moves only with the share of
time spent slow.  The workload's own metrics (draws or leaves per second,
per-request medians with their tail percentile) and ``error_rate`` are
printed by name and unit on ``#`` lines before the result.

``--trace 1`` makes one untraced and one traced pass over the same inputs
(``--seconds`` does not apply) and reports the per-layer metrics of
``layers.py`` for the traced pass, plus the tracing overhead.  Its spans are
written to ``bench/out/``.

Every output is checked by the workload's gates after the timed calls; a
failed call or a wrong output counts as a failed request.  Every result is
stamped with the commit (when the checkout is a git repository), a digest of
the package source, the seed, the Python and numpy versions and the number of
usable cores.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Any

from warm import set_up

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5
WORKLOADS = ("sampling", "exact-laws", "census")


def probe_setup() -> float:
    """Wall time of one fresh process from start to ``warm.set_up()`` done."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "warm.py"), str(SRC)],
        cwd=ROOT, check=True, timeout=120,
    )
    return time.perf_counter() - start


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` without running git, or None."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, refname = line.partition(" ")
            if refname == name:
                return sha
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def make_stamp(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def tail(samples: list[float]) -> dict[str, Any] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return {
        "percentile": math.floor(100 * (n - 10) / n),
        "value": sorted(samples)[n - 11],
        "beyond": 10,
    }


class Run:
    """Timings, work and verdicts of the requests one run made."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.times: dict[str, list[float]] = defaultdict(list)
        self.key_times: dict[str, list[float]] = defaultdict(list)
        self.key_work: dict[str, list[int]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []
        self.timed_s = 0.0

    def call(self, req: Any, execute: Any) -> tuple[Any, str | None]:
        """One timed request; exceptions count as failures, never escape."""
        start = time.perf_counter()
        try:
            out, error = execute(req), None
        except Exception as exc:  # a failed request is data, not a crash
            traceback.print_exc(file=sys.stderr)
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.timed_s += elapsed
        self.times[req.label].append(elapsed)
        self.key_times[req.key].append(elapsed)
        return out, error

    def gate(self, done: list[tuple[Any, Any, str | None]]) -> list[int]:
        """Check the outputs of finished requests; returns their work units."""
        work = []
        for req, out, error in done:
            self.attempted += 1
            failure = error
            if failure is None:
                try:
                    failure = self.workload.check(req, out)
                except Exception as exc:  # a malformed output fails its gate
                    failure = f"gate raised {type(exc).__name__}: {exc}"
            units = 0
            if failure is None:
                units = self.workload.work(req, out)
                self.key_work[req.key].append(units)
            else:
                self.failures.append(f"{req.label}: {failure}")
            work.append(units)
        return work

    @property
    def failed(self) -> int:
        return len(self.failures)


def measure(run: Run, seed: int, seconds: float) -> None:
    """Closed loop of passes until ``seconds`` of timed calls are used.

    After the first full pass, a request is not started when its previous
    duration would take the timed total past ``seconds``.
    """
    pass_index = 0
    while True:
        done = []
        stop = False
        for req in run.workload.requests(seed, pass_index):
            previous = run.times[req.label][-1] if req.label in run.times else 0.0
            if pass_index and run.timed_s + previous > seconds:
                stop = True
                break
            out, error = run.call(req, run.workload.execute)
            done.append((req, out, error))
        run.gate(done)
        if stop or run.timed_s >= seconds:
            return
        pass_index += 1


def end_to_end(run: Run, setup_samples: list[float]) -> dict[str, tuple[float, str]]:
    """The gated metrics of ``BENCHMARK.json``, in its order."""
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (sum(statistics.fmean(t) for t in run.times.values()), "s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
    }


def report_metrics(run: Run) -> dict[str, dict[str, Any]]:
    """The workload's own metrics, each with its sample count and tail."""
    out: dict[str, dict[str, Any]] = {}
    for name, (key, kind, unit) in run.workload.REPORT.items():
        times = run.key_times[key]
        p50 = statistics.median(times)
        value = p50
        if kind == "rate":
            work = run.key_work[key]  # empty when every request failed
            value = statistics.median(work) / p50 if work else math.nan
        out[name] = {
            "value": value, "unit": unit, "n": len(times),
            "p50_s": p50, "tail_s": tail(times),
        }
    return out


def trace_pass(run: Run, seed: int, out_dir: Path, stamp: dict) -> dict[str, float]:
    """One untraced and one traced pass over the same requests."""
    from layers import LAYERS, OVERHEAD_METRIC
    from tracing import Tracer, installed, layer_values

    reqs = run.workload.requests(seed, 0)
    untraced = [(req, *run.call(req, run.workload.execute)) for req in reqs]
    untraced_s = run.timed_s
    run.gate(untraced)

    tracer = Tracer()
    traced_execute = tracer.wrap("request", run.workload.execute)
    done = []
    with installed(tracer, LAYERS):
        for req in reqs:
            tracer.request = req.label
            done.append((req, *run.call(req, traced_execute)))
    traced_s = run.timed_s - untraced_s
    work = run.gate(done)
    if run.workload.work_counter:
        tracer.counts[run.workload.work_counter] += sum(work)

    values = layer_values(tracer, LAYERS)
    values[OVERHEAD_METRIC] = traced_s - untraced_s
    spans_path = out_dir / f"spans-{stamp['workload']}-seed{seed}.json"
    spans_path.write_text(json.dumps(
        {"stamp": stamp, "layers": values, "spans": tracer.spans}
    ))
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "staircase_tableaux" / "__init__.py").is_file():
        print("error: package source src/staircase_tableaux not found next to "
              "bench/", file=sys.stderr)
        return 2
    set_up(str(SRC))
    import workloads
    from layers import PER_LAYER_METRICS

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    stamp = make_stamp(args.workload, args.seed, args.seconds, args.trace)
    run = Run(workloads.make(args.workload, str(scratch)))
    try:
        if args.trace:
            values = trace_pass(run, args.seed, OUT, stamp)
            units = {m["name"]: m["unit"] for m in PER_LAYER_METRICS}
            metrics = {name: (values[name], units[name]) for name in units}
            report: dict[str, dict[str, Any]] = {}
        else:
            setup_samples = [probe_setup() for _ in range(SETUP_PROBES)]
            measure(run, args.seed, args.seconds)
            metrics = end_to_end(run, setup_samples)
            report = report_metrics(run)
    finally:
        for path in scratch.iterdir():
            path.unlink()
        scratch.rmdir()

    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print("# stamp " + json.dumps(stamp))
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    for name, m in report.items():
        t = m["tail_s"]
        extra = (f"p{t['percentile']} {t['value']:.6g} s, {t['beyond']} beyond"
                 if t else "no percentile has 10 samples beyond it")
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']} "
              f"(per request: p50 {m['p50_s']:.6g} s, {extra}; n = {m['n']})")
    print(f"# {args.workload} error_rate = {error_rate:.6g} "
          f"({run.failed} failed of {run.attempted} attempted)")
    for failure in run.failures[:10]:
        print(f"# failed: {failure}")

    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": stamp, "result": result, "report": report,
                    "error_rate": error_rate, "failures": run.failures,
                    "request_times_s": run.times}, indent=2)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
