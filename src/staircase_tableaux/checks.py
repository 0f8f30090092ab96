"""The twelve acceptance checks: the one implementation behind both the
``verify`` subcommand and ``tests/test_acceptance.py``.

Each check returns a `CheckResult` whose ``measured`` dict names the range it
actually covered and the values its gate compared.  ``n_max`` picks the
ranges (`_ranges`); ``n_max = 6`` is the acceptance contract, which the
acceptance tests spell out, and smaller values shrink the ranges so quick
runs stay quick.  The enumeration census is walked once per size per process
and shared by every check that reads it.  Every ``passed`` comes from
explicit comparisons, so the checks hold under ``python -O``.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, sqrt
from operator import attrgetter
from typing import Any, Callable, Iterator, Sequence

from .asep import (
    PARAMETER_GRID,
    _balance_defect,
    _enumerated_type_weights,
    _steady_state_report,
    _type_weights,
    build_chain,
    verify_steady_state,
)
from .core import StatVector, Tableau, _read_statistics, ag_row_indices
from .core import statistics
from .counting import (
    bd_only_multiplicity,
    multiplicity,
    total_count,
    with_ag_multiplicity,
)
from .enumerator import _place, enumerate_all
from .polyengine import (
    V_explicit,
    bivariate_series_check,
    build_V,
    build_W,
    build_c,
    c1_rows,
    path_weight_oracle,
    pgf_B,
    pole_constants,
)
from .sampler import _fill, iter_samples, probability_of, sample_statistics
from .stats import (
    STATISTICS,
    ExactPMF,
    chi2_sf,
    clt_check,
    dist_A,
    dist_r,
    kolmogorov_distance,
    moments_A,
    moments_r,
)

#: Sizes whose census keeps the tableaux themselves, for the sampler audit.
_KEEP_MAX = 4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: dict[str, Any]
    elapsed_s: float


@dataclass(frozen=True)
class _Ranges:
    """What each check covers at a given ``n_max``."""

    enum: int
    count_six: bool
    sweep: int
    diag: int
    irwin_hall: int
    tri: int
    oracle: int
    audit: int
    law_draws: int
    chi_draws: int
    ks_n: int | None
    asep: int
    z_oracle: int


def _ranges(n_max: int) -> _Ranges:
    if not 1 <= n_max <= 6:
        raise ValueError(f"n_max must be in 1..6, got {n_max}")
    full = n_max == 6
    return _Ranges(
        enum=min(n_max, 5),
        count_six=full,
        sweep=min(50, max(10, 10 * n_max)),
        diag=min(200, max(20, 40 * n_max)),
        irwin_hall=min(60, max(20, 40 * n_max)),
        tri=min(30, max(8, 6 * n_max)),
        oracle=min(7, n_max + 2),
        audit=_KEEP_MAX if full else min(n_max, 3),
        law_draws=20_000 if full else 5_000,
        chi_draws=10**5 if full else 20_000 if n_max >= 4 else 5_000,
        ks_n=2000 if full else None,
        asep=8 if full else min(n_max, 4),
        z_oracle=min(n_max, 4),
    )


@lru_cache(maxsize=None)
def _census(n: int) -> tuple[Counter[StatVector], tuple[Tableau, ...]]:
    """One statistics walk over every size-n tableau: how many tableaux
    carry each `StatVector`, and the tableaux themselves for n <= _KEEP_MAX.
    The stamps are counted after the walk, in one C loop that hashes each
    once."""
    stamps: list[StatVector] = []
    kept: list[Tableau] = []
    keep = n <= _KEEP_MAX

    def visit(t: Tableau) -> None:
        stamps.append(statistics(t))
        if keep:
            kept.append(t)

    enumerate_all(n, visit)
    return Counter(stamps), tuple(kept)


def _marginal(n: int, stat: str) -> Counter[int]:
    """The census histogram of one `StatVector` field."""
    hist: Counter[int] = Counter()
    for s, count in _census(n)[0].items():
        hist[getattr(s, stat)] += count
    return hist


_Check = Callable[[_Ranges, int], tuple[bool, dict[str, Any]]]
_REGISTRY: dict[str, _Check] = {}


def _check(name: str) -> Callable[[_Check], _Check]:
    def register(fn: _Check) -> _Check:
        _REGISTRY[name] = fn
        return fn

    return register


def _verdict(bad: list[Any], **measured: Any) -> tuple[bool, dict[str, Any]]:
    """Pass iff nothing failed; report the range and the first few failures."""
    return not bad, {**measured, "failures": bad[:3]}


@_check("cardinality")
def _cardinality(rg: _Ranges, seed: int) -> tuple[bool, dict[str, Any]]:
    counts = {n: sum(_census(n)[0].values()) for n in range(1, rg.enum + 1)}
    if rg.count_six:
        counts[6] = enumerate_all(6)
    ok = all(c == total_count(n) for n, c in counts.items())
    return ok, {"counts": {str(n): c for n, c in counts.items()}}


@_check("r-histogram")
def _r_histogram(rg: _Ranges, seed: int) -> tuple[bool, dict[str, Any]]:
    """Every statistic's histogram against its law, scaled by the tableau
    count 4**n n!."""
    bad = []
    for n in range(1, rg.enum + 1):
        total = total_count(n)
        for name, stat in STATISTICS.items():
            hist, law = _marginal(n, stat.field), stat.law(n)
            bad += [
                (name, n, v)
                for v, w in zip(law.support(), law.weights)
                if hist[v] * law.denominator != w * total
            ]
    return _verdict(bad, max_n=rg.enum)


@_check("bernoulli-convolution")
def _bernoulli(rg: _Ranges, seed: int) -> tuple[bool, dict[str, Any]]:
    """dist_r(n)'s n + 1 weights w against sum_v w[v] z**v = prod_{k<=n}
    (z + 2k - 1) at z = 0..n, points that fix a degree-n polynomial: plain
    integer products that share no step with `two_term_step`."""
    bad = []
    products = [1] * (rg.sweep + 1)  # the product at z = 0..sweep
    for n in range(1, rg.sweep + 1):
        products = [p * (z + 2 * n - 1) for z, p in enumerate(products)]
        d = dist_r(n)
        if d.offset != 0 or len(d.weights) != n + 1 or any(
            sum(w * z**v for v, w in enumerate(d.weights)) != products[z]
            for z in range(n + 1)
        ):
            bad.append(n)
    return _verdict(bad, max_n=rg.sweep)


@_check("r-moments")
def _r_moments(rg: _Ranges, seed: int) -> tuple[bool, dict[str, Any]]:
    """moments_r against running sums of the Bernoulli(1/(2k)) means and
    variances, then every statistic's moments against its law's."""
    bad = []
    mean = var = Fraction(0)
    for n in range(1, rg.sweep + 1):
        p = Fraction(1, 2 * n)
        mean, var = mean + p, var + p * (1 - p)
        if moments_r(n) != (mean, var):
            bad.append(("r-closed", n))
        for name, stat in STATISTICS.items():
            law = stat.law(n)
            if (law.mean(), law.variance()) != stat.moments(n):
                bad.append((name, n))
    return _verdict(bad, max_n=rg.sweep)


@_check("row-identity")
def _row_identity(rg: _Ranges, seed: int) -> tuple[bool, dict[str, Any]]:
    """r + delta = n on the tableaux kept, r and delta read off the cells
    without `_stat_vector`, which raises on a violation; then each stamp
    against `_read_statistics` on the tableaux that split n.  Both legs read
    only the kept sizes, n <= min(enum, _KEEP_MAX) (n <= 4 at n_max 6),
    reported as `kept_max_n`; `max_n` is the census range."""
    kept = [t for n in range(1, rg.enum + 1) for t in _census(n)[1]]
    split = [
        t for t in kept
        if len(ag_row_indices(t)) + sum(s.is_bd for s in t.cells.values()) == t.n
    ]
    bad = len(kept) - len(split)
    stamp_bad = sum(t._stats != _read_statistics(t) for t in split)
    return bad == 0 and stamp_bad == 0, {
        "max_n": rg.enum, "kept_max_n": min(rg.enum, _KEEP_MAX),
        "violations": bad, "stamp_mismatches": stamp_bad,
    }


@_check("diagonal-distribution")
def _diagonal_distribution(rg: _Ranges, seed: int) -> tuple[bool, dict[str, Any]]:
    """The a_diag and b_diag histograms and laws against the V row."""
    bad = []
    for n in range(1, rg.enum + 1):
        total, row = total_count(n), build_V(n)[n]
        reads = [
            (_marginal(n, stat.field), stat.law(n))
            for stat in (STATISTICS["a"], STATISTICS["b"])
        ]
        for m in range(n + 1):
            want = 2**n * row[m]
            if any(
                hist[m] != want or law.p(m) != Fraction(want, total)
                for hist, law in reads
            ):
                bad.append((n, m))
    return _verdict(bad, max_n=rg.enum)


@_check("diagonal-moments")
def _diagonal_moments(rg: _Ranges, seed: int) -> tuple[bool, dict[str, Any]]:
    """Each V row's mean and variance against `moments_A`, and its prefix
    sums against the type-B Irwin-Hall form sum_{i<=j} (-1)**i C(n, i)
    (2j+1-2i)**n, which shares nothing with the recurrence or the moments."""
    rows = build_V(rg.diag)
    bad: list[Any] = []
    for n in range(1, rg.diag + 1):
        pmf = ExactPMF(0, rows[n], sum(rows[n]))
        if (pmf.mean(), pmf.variance()) != moments_A(n):
            bad.append(n)
        if n <= rg.irwin_hall and list(accumulate(rows[n])) != [
            sum((-1) ** i * comb(n, i) * (2 * j + 1 - 2 * i) ** n
                for i in range(j + 1))
            for j in range(n + 1)
        ]:
            bad.append(("irwin-hall", n))
    return _verdict(bad, max_n=rg.diag, irwin_hall_max_n=rg.irwin_hall)


@_check("triangle-identities")
def _triangles(rg: _Ranges, seed: int) -> tuple[bool, dict[str, Any]]:
    small = build_c(rg.oracle)
    bad: list[tuple[str, int, int]] = [
        ("oracle", m, l)
        for m in range(rg.oracle + 1)
        for l in range(m + 1)
        if small[m][l] != path_weight_oracle(m, l)
    ]
    c1, v, w = c1_rows(rg.tri), build_V(rg.tri), build_W(rg.tri)
    for n in range(rg.tri + 1):
        bad += [
            ("explicit", n, m)
            for m in range(n + 1)
            if v[n][m] != V_explicit(n, m, w)
        ]
        bad += [
            ("whitney", n, k)
            for k in range(n + 1)
            if c1[n][k] != 2**k * factorial(k) * w[n][k]
        ]
    bad += [("pgf", n, 0) for n in range(1, rg.tri + 1) if pgf_B(n) != v[n]]
    return _verdict(bad, oracle_max_n=rg.oracle, identity_max_n=rg.tri)


@_check("bivariate-series")
def _series(rg: _Ranges, seed: int) -> tuple[bool, dict[str, Any]]:
    """The series expansion against the V rows.  The `pole_constants` leg
    certifies only a three-term series inversion of s/(e^s - 1), not the
    tableaux or their laws."""
    rep = bivariate_series_check(12)
    poles = pole_constants()
    ok = rep.ok and poles == (Fraction(1), Fraction(-1, 2), Fraction(1, 6))
    mismatch = rep.first_mismatch
    return ok, {
        "orders_checked": rep.orders_checked,
        "first_mismatch": None if mismatch is None else mismatch[0],
        "pole_constants": [str(p) for p in poles],
    }


def _kernel_choices(r: int) -> Iterator[tuple[int, int, bool, int, int]]:
    """Every (r, j, with_ag, rank, coins) that `sampler._columns` can yield
    above r AG rows, written from its draw bounds: class j = -1..r; for
    j = -1 a bottom coin; else a subclass, a rank below C(r, j), or below
    C(r, j + 1) with an alpha/gamma upper entry, and one coin for the bottom
    and each upper entry."""
    for coins in range(2):
        yield r, -1, False, 0, coins
    for j in range(r + 1):
        for with_ag in (False, True):
            for rank in range(comb(r, j + with_ag)):
                for coins in range(2 ** (j + with_ag + 1)):
                    yield r, j, with_ag, rank, coins


def _kernel_tableaux(n: int) -> list[Tableau]:
    """The size-n tableau of each choice sequence the kernel can draw,
    built as `sampler._grow` builds it: each column's choices through `_fill`
    and `_place`, r stepped as `_columns` steps it."""
    out: list[Tableau] = []

    def grow(m: int, r: int, cells: dict, ag_rows: list[int]) -> None:
        if m == n:
            out.append(Tableau(n, cells))
            return
        for choice in _kernel_choices(r):
            column = dict(cells)
            rows = _place(column, ag_rows, m + 1, n - m, *_fill(*choice))
            j = choice[1]
            grow(m + 1, r + 1 if j < 0 else r - j, column, rows)

    grow(0, 0, {}, [])
    return out


@_check("sampler-exactness")
def _sampler_exactness(rg: _Ranges, seed: int) -> tuple[bool, dict[str, Any]]:
    """Four legs.  The kernel's choices above each r < audit, tallied by
    class and subclass, must number `multiplicity(r, -1)`,
    `bd_only_multiplicity(r, j)` and `with_ag_multiplicity(r, j)`: that
    certifies the class counts the draw weights are built from.  Over the
    census kept (n <= _KEEP_MAX), `probability_of` must give each tableau
    1/(4**n n!): that certifies the decomposition and the AG-row
    bookkeeping.  Every choice sequence of the draw kernel, mapped through
    `_fill` and `_place`, must give each census tableau exactly once: that
    certifies the slots and letters a draw writes.  And the tableaux
    `iter_samples` draws at n = min(audit, 3) must pass a chi-square against
    the uniform law on the census at p > 1e-3 (`stats.chi2_sf`), every draw
    inside it: that certifies the draw weights."""
    bad: list[Any] = []
    for r in range(rg.audit):
        tally = Counter((j, ag) for _, j, ag, _, _ in _kernel_choices(r))
        want = {(-1, False): multiplicity(r, -1)}
        for j in range(r + 1):
            want[j, False] = bd_only_multiplicity(r, j)
            want[j, True] = with_ag_multiplicity(r, j)
        if tally != {key: count for key, count in want.items() if count}:
            bad.append(("classes", r))
    cases = 0
    sequences, distinct = {}, {}
    for n in range(1, rg.audit + 1):
        target = Fraction(1, total_count(n))
        for t in _census(n)[1]:
            cases += 1
            if probability_of(n, t) != target:
                bad.append(n)
        grown = _kernel_tableaux(n)
        found = set(grown)
        sequences[str(n)], distinct[str(n)] = len(grown), len(found)
        if len(grown) != len(found) or found != set(_census(n)[1]):
            bad.append(("kernel", n))
    n, draws = min(rg.audit, 3), rg.law_draws
    census = _census(n)[1]
    hist = Counter(iter_samples(n, draws, seed))
    expected = draws / len(census)
    chi2 = sum((hist[t] - expected) ** 2 / expected for t in census)
    p_value = chi2_sf(chi2, len(census) - 1)
    if p_value <= 1e-3 or hist.keys() - set(census):
        bad.append(("full_law", n))
    return _verdict(
        bad, max_n=rg.audit, cases=cases,
        kernel_sequences=sequences, kernel_tableaux=distinct,
        full_law={"n": n, "draws": draws, "chi2": chi2, "p_value": p_value},
    )


@_check("sampler-chi-square")
def _sampler_statistics(rg: _Ranges, seed: int) -> tuple[bool, dict[str, Any]]:
    """Every statistic's histogram from one sampled run against its law, by
    chi-square at p > 1e-3 (`stats.chi2_sf`).
    The KS leg draws from `dist_A(n).sample`, not from the tableau sampler,
    so it certifies `draw_integers` against the exact diagonal law."""
    n, draws = rg.enum, rg.chi_draws
    sampled = sample_statistics(n, draws, seed)
    legs = {}
    for name, stat in STATISTICS.items():
        hist = Counter(map(attrgetter(stat.field), sampled))
        law = stat.law(n)
        want = {v: draws * float(law.p(v)) for v in law.support()}
        chi2 = sum((hist[v] - e) ** 2 / e for v, e in want.items())
        p_value = chi2_sf(chi2, len(want) - 1)
        legs[name] = {"chi2": chi2, "p_value": p_value}
    measured: dict[str, Any] = {
        "n": n, "draws": draws, **legs["r"], "legs": legs,
        "ks_n": rg.ks_n, "ks_draws": None, "ks": None, "ks_exact": None,
    }
    ok = all(leg["p_value"] > 1e-3 for leg in legs.values())
    if rg.ks_n is not None:
        mean, var = moments_A(rg.ks_n)
        ks_draws, law = 10**5, dist_A(rg.ks_n)
        ks = clt_check(law.sample(ks_draws, seed), float(mean), sqrt(var))
        # Not gated: the exact distance shows what the sampled one estimates.
        ks_exact = kolmogorov_distance(law, float(mean), sqrt(var))
        measured.update(ks_draws=ks_draws, ks=ks, ks_exact=ks_exact)
        ok = ok and ks < 0.01
    return ok, measured


@_check("asep-grid")
def _asep(rg: _Ranges, seed: int) -> tuple[bool, dict[str, Any]]:
    # The DP's Z values must equal the enumeration's exactly, setting by
    # setting; the chain identity then runs on the DP alone, in floats
    # against the solve and exactly as a balance certificate.  All three legs
    # read one `_type_weights` row per (setting, n) (the ranges keep
    # z_oracle <= asep).
    mismatches = []
    worst = residual = 0.0
    exact_defect = 0
    ok = True
    for k, params in enumerate(PARAMETER_GRID):
        for n in range(1, rg.asep + 1):
            chain, weights = build_chain(n, params), _type_weights(n, params)
            if n <= rg.z_oracle and weights != _enumerated_type_weights(n, params):
                mismatches.append([k, n])
            rep = _steady_state_report(chain, weights, 1e-10, exact=False)
            worst = max(worst, rep.max_deviation)
            residual = max(residual, rep.residual)
            ok = ok and rep.passed
            # Exact leg: Z_sigma / Z_n must balance the chain's moves exactly.
            exact_defect = max(exact_defect, _balance_defect(chain, weights))
    exact = verify_steady_state(1, PARAMETER_GRID[0], exact=True).max_deviation
    ok = (
        ok and not mismatches and worst < 1e-10 and exact == 0.0
        and exact_defect == 0
    )
    return ok, {
        "max_n": rg.asep,
        "settings": len(PARAMETER_GRID),
        "max_deviation": worst,
        "max_residual": residual,
        "exact_n1_deviation": exact,
        "exact_max_n": rg.asep,
        "exact_max_defect": float(exact_defect),
        "z_oracle_max_n": rg.z_oracle,
        "z_mismatches": mismatches,
    }


CHECK_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def verify_suite(
    n_max: int, seed: int = 0, names: Sequence[str] | None = None
) -> list[CheckResult]:
    """Run the checks in ``names`` (default: all, in registry order), each
    timed, at the ranges ``n_max`` selects; ``seed`` (non-negative) drives
    the sampled checks."""
    rg = _ranges(n_max)
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    selected = CHECK_NAMES if names is None else tuple(names)
    unknown = [name for name in selected if name not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    results = []
    for name in selected:
        start = time.perf_counter()
        passed, measured = _REGISTRY[name](rg, seed)
        results.append(
            CheckResult(name, passed, measured, time.perf_counter() - start)
        )
    return results
