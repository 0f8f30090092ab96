"""The benchmark's three workloads and their output-correctness gates.

Each workload is a closed loop with one client: the runner issues the
requests of one pass in order, each only after the previous one returned, and
repeats passes until its measuring window is used up.  A request names a
report metric family (``key``), a label that is unique within a pass (timings
are kept per label) and its arguments, which are plain data made from the
workload seed alone.

Requests call the package through module attributes (``sampler.sample_many``,
``cli.main``, ...), looked up at call time, so the traced run sees every call
once it has wrapped those attributes.

The gates run after the timed calls and outside the traced region.  They
return ``None`` for a correct output or a one-line reason for a wrong one.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from math import factorial, lcm
from typing import Any

import numpy as np

from staircase_tableaux import asep, cli, core, enumerator, sampler
from staircase_tableaux.counting import completion_count
from staircase_tableaux.stats import dist_A, dist_r, moments_A, moments_r


@dataclass(frozen=True)
class Request:
    key: str
    label: str
    args: tuple


def tableau_count(n: int) -> int:
    """4**n n!, written out here rather than taken from the package."""
    return 4**n * factorial(n)


class Sampling:
    """Exact-uniform draws, one large size and one small size.

    At n = 500 the time goes to big-int class weights (``multiplicity`` ->
    ``comb``); at n = 5 it goes to per-draw object construction and the
    validation inside ``core.statistics``.  One layer used two ways, so a gain
    for one use that costs the other shows up.  Never calls ``stats``,
    ``polyengine`` or ``asep``.
    """

    name = "sampling"
    LARGE = (500, 2)
    SMALL = (5, 3000)
    #: report metric -> (request key, "rate" or "p50", unit)
    REPORT = {
        "sample_large.draws_per_s": ("sample_large", "rate", "1/s"),
        "sample_small.draws_per_s": ("sample_small", "rate", "1/s"),
    }
    work_counter = None

    def requests(self, seed: int, pass_index: int) -> list[Request]:
        rng = random.Random(f"{self.name}:{seed}:{pass_index}")
        return [
            Request("sample_large", "sample_large",
                    (*self.LARGE, rng.randrange(2**32))),
            Request("sample_small", "sample_small",
                    (*self.SMALL, rng.randrange(2**32))),
        ]

    def execute(self, req: Request) -> Any:
        if req.key == "sample_large":
            return sampler.sample_many(*req.args)
        return sampler.sample_statistics(*req.args)

    def work(self, req: Request, out: Any) -> int:
        return len(out)

    def check(self, req: Request, out: Any) -> str | None:
        n, count, _ = req.args
        if len(out) != count:
            return f"{len(out)} draws, expected {count}"
        if req.key == "sample_large":
            for t in out:
                if t.n != n or not core.is_valid(t):
                    return f"draw of size {t.n} is not a valid size-{n} tableau"
                s = core.statistics(t)
                if s.r + s.delta != n:
                    return f"r + delta = {s.r + s.delta}, expected {n}"
            return None
        for s in out:
            if s.r + s.delta != n or s.a_diag + s.b_diag != n:
                return f"statistics {s} break r + delta = a + b = {n}"
        return None


def check_dist(doc: dict[str, Any], stat: str, n: int) -> str | None:
    """The pmf covers 0..n, sums to one, and its mean and variance equal the
    closed-form moments."""
    entries = doc["pmf"]
    if [e["value"] for e in entries] != list(range(n + 1)):
        return f"support is not 0..{n}"
    nums = [int(e["p"][0]) for e in entries]
    dens = [int(e["p"][1]) for e in entries]
    if any(p < 0 for p in nums) or any(d <= 0 for d in dens):
        return "negative probability"
    common = lcm(*dens)
    scaled = [p * (common // d) for p, d in zip(nums, dens)]
    if sum(scaled) != common:
        return f"mass {Fraction(sum(scaled), common)} != 1"
    mean = Fraction(sum(v * w for v, w in enumerate(scaled)), common)
    second = Fraction(sum(v * v * w for v, w in enumerate(scaled)), common)
    want_mean, want_var = (moments_r if stat == "r" else moments_A)(n)
    if mean != want_mean or second - mean * mean != want_var:
        return "mean or variance differs from the closed form"
    return None


def check_c1(doc: dict[str, Any], n_max: int) -> str | None:
    """Rows of c[m][l](1), recomputed from the c recurrence at z = 1:
    c[m][l] = (2l + 1) c[m-1][l] + 2l c[m-1][l-1]."""
    want = []
    row = [1]
    for m in range(n_max + 1):
        if m:
            row = [
                (2 * l + 1) * (row[l] if l < m else 0)
                + 2 * l * (row[l - 1] if l else 0)
                for l in range(m + 1)
            ]
        want += [[m, l, str(v)] for l, v in enumerate(row)]
    return None if doc["rows"] == want else "c1 rows differ from the recurrence"


def check_series(doc: dict[str, Any], z_order: int) -> str | None:
    poles = [["1", "1"], ["-1", "2"], ["1", "6"]]
    if doc["ok"] is not True or doc["first_mismatch"] is not None:
        return "series check reported a mismatch"
    if doc["orders_checked"] != z_order or doc["pole_constants"] != poles:
        return "series check covered the wrong range or pole constants"
    return None


def check_count(doc: dict[str, Any], n: int) -> str | None:
    """Total 4**n n!, and every N(k, r) equal to the closed form."""
    if doc["total"] != str(tableau_count(n)):
        return "total differs from 4**n n!"
    want = [
        [k, r, str(completion_count(k, r))]
        for k in range(n + 1)
        for r in range(n - k + 1)
    ]
    return None if doc["table"] == want else "N(k, r) table differs"


class ExactLaws:
    """In-process CLI requests for exact laws, triangles, the series check and
    the completion table.

    ``stats``, ``polyengine`` and ``cli`` formatting do the work: ``dist r``
    runs the Fraction convolution, ``dist a`` the integer V row, and
    ``count --table`` calls ``counting.multiplicity`` O(n^3) times outside the
    sampler.  Never touches ``enumerator``, ``sampler`` or ``core``.  The seed
    does not enter: every pass issues the same five requests.
    """

    name = "exact-laws"
    #: (key, argv, gate for the parsed JSON payload)
    REQUESTS = (
        ("dist_r", ("dist", "--stat", "r", "--n", "300"),
         partial(check_dist, stat="r", n=300)),
        ("dist_a", ("dist", "--stat", "a", "--n", "800"),
         partial(check_dist, stat="a", n=800)),
        ("triangles", ("triangles", "--which", "c1", "--n-max", "20"),
         partial(check_c1, n_max=20)),
        ("series", ("series-check", "--z-order", "12"),
         partial(check_series, z_order=12)),
        ("count_table", ("count", "--n", "120", "--table"),
         partial(check_count, n=120)),
    )
    REPORT = {f"{key}.p50_s": (key, "p50", "s") for key, _, _ in REQUESTS}
    work_counter = "cli.output_bytes"

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._verdicts: dict[tuple[str, bytes], str | None] = {}

    def requests(self, seed: int, pass_index: int) -> list[Request]:
        common = ("--format", "json", "--no-timestamp", "--out")
        return [
            Request(key, key,
                    argv + common + (os.path.join(self.out_dir, key + ".json"),))
            for key, argv, _ in self.REQUESTS
        ]

    def execute(self, req: Request) -> Any:
        try:
            return cli.main(list(req.args))
        except SystemExit as exc:  # argparse rejects bad flags this way
            return exc.code

    def work(self, req: Request, out: Any) -> int:
        return os.path.getsize(req.args[-1])

    def check(self, req: Request, out: Any) -> str | None:
        if out != 0:
            return f"exit status {out}"
        with open(req.args[-1], "rb") as handle:
            raw = handle.read()
        # Identical bytes get the verdict already reached for them.
        memo = (req.key, hashlib.sha256(raw).digest())
        if memo not in self._verdicts:
            gate = next(g for key, _, g in self.REQUESTS if key == req.key)
            self._verdicts[memo] = gate(json.loads(raw))
        return self._verdicts[memo]


class Census:
    """Exhaustive walks: a count-only walk, a visitor walk and the ASEP check.

    The count-only walk never builds a Tableau, so it bypasses ``core``.  The
    visitor walk is dominated by ``core`` re-validation.  ``verify_steady_state``
    is dominated by the enumeration-backed ``partition_functions``; a Z
    dynamic programme would bypass the walk there but leave ``enum_count``
    as it is.
    """

    name = "census"
    COUNT_N = 6
    VISIT_N = 5
    ASEP_N = 4
    SEEDED_SETTINGS = 2
    REPORT = {
        "enum_count.leaves_per_s": ("enum_count", "rate", "1/s"),
        "enum_visit.leaves_per_s": ("enum_visit", "rate", "1/s"),
        "asep_verify.p50_s": ("asep_verify", "p50", "s"),
    }
    work_counter = None

    def __init__(self) -> None:
        self._verdicts: dict[asep.ASEPParams, str | None] = {}

    def settings(self, seed: int) -> list[tuple[str, asep.ASEPParams]]:
        """``PARAMETER_GRID`` plus settings drawn from the seed; every rate is
        a rational in (0, 1], so every chain is irreducible."""
        out = [(f"grid{i}", p) for i, p in enumerate(asep.PARAMETER_GRID)]
        rng = random.Random(f"{self.name}:{seed}")
        for i in range(self.SEEDED_SETTINGS):
            rates = []
            for _ in range(6):
                den = rng.randint(2, 12)
                rates.append(Fraction(rng.randint(1, den), den))
            out.append((f"seed{i}", asep.ASEPParams(*rates)))
        return out

    def requests(self, seed: int, pass_index: int) -> list[Request]:
        reqs = [
            Request("enum_count", "enum_count", (self.COUNT_N,)),
            Request("enum_visit", "enum_visit", (self.VISIT_N,)),
        ]
        reqs += [
            Request("asep_verify", f"asep_verify[{label}]", (self.ASEP_N, params))
            for label, params in self.settings(seed)
        ]
        return reqs

    def execute(self, req: Request) -> Any:
        if req.key == "enum_count":
            return enumerator.enumerate_all(*req.args)
        if req.key == "enum_visit":
            stat = core.statistics
            r_hist: Counter[int] = Counter()
            a_hist: Counter[int] = Counter()

            def visit(t: core.Tableau) -> None:
                s = stat(t)
                r_hist[s.r] += 1
                a_hist[s.a_diag] += 1

            return enumerator.enumerate_all(*req.args, visit), r_hist, a_hist
        return asep.verify_steady_state(*req.args)

    def work(self, req: Request, out: Any) -> int:
        if req.key == "enum_count":
            return out
        if req.key == "enum_visit":
            return out[0]
        return 1

    def check(self, req: Request, out: Any) -> str | None:
        if req.key == "enum_count":
            n = req.args[0]
            return None if out == tableau_count(n) else f"{out} leaves at n={n}"
        if req.key == "enum_visit":
            return check_histograms(req.args[0], *out)
        if not out.passed:
            return f"steady state off by {out.max_deviation}"
        n, params = req.args
        if params not in self._verdicts:
            self._verdicts[params] = check_chain(n, params, out.tol)
        return self._verdicts[params]


def check_histograms(
    n: int, count: int, r_hist: Counter[int], a_hist: Counter[int]
) -> str | None:
    """Leaf count 4**n n!, r-histogram count x dist_r, a_diag-histogram
    count x dist_A."""
    if count != tableau_count(n):
        return f"{count} leaves at n={n}"
    for name, hist, law in (("r", r_hist, dist_r(n)), ("a_diag", a_hist, dist_A(n))):
        if sum(hist.values()) != count or any(
            hist.get(v, 0) != count * law.p(v) for v in law.support()
        ):
            return f"{name} histogram differs from count x its exact law"
    return None


def check_chain(n: int, params: asep.ASEPParams, tol: float) -> str | None:
    """The solved stationary law satisfies pi P = pi to within ``tol`` (the
    residual is computed here with numpy), and at the all-ones setting Z_n
    collapses to the tableau count 4**n n!."""
    chain = asep.build_chain(n, params)
    pi = np.asarray(asep.stationary(chain), dtype=float)
    residual = float(np.max(np.abs(pi @ chain.to_numpy() - pi)))
    if not residual < tol:
        return f"residual |pi P - pi| = {residual} at {params}"
    if all(getattr(params, k) == 1 for k in ("alpha", "beta", "gamma", "delta", "q", "u")):
        total, _ = asep.partition_functions(n, params)
        if total != tableau_count(n):
            return f"Z_{n} at the all-ones setting is {total}"
    return None


def make(name: str, out_dir: str) -> Sampling | ExactLaws | Census:
    if name == "sampling":
        return Sampling()
    if name == "exact-laws":
        return ExactLaws(out_dir)
    if name == "census":
        return Census()
    raise ValueError(f"unknown workload {name!r}")
