"""Command-line front end.

Nine subcommands cover counting, streaming enumeration, exact-uniform
sampling, distribution and moment export, triangle export, the bivariate
series self-check, ASEP steady-state runs, and the verification suite:

    staircase-tableaux count --n 5
    staircase-tableaux dist --stat a --n 3 --format csv
    staircase-tableaux sample --n 8 --count 3 --seed 11
    staircase-tableaux verify --n-max 5

Every CSV/JSON payload embeds the package version, the resolved seed (with
its source: flag, the STAIRCASE_TABLEAUX_SEED environment variable, or the
default), and the effective configuration.  Reruns with identical flags are
byte-identical once ``--no-timestamp`` is passed.  Exact quantities are
emitted as numerator/denominator string pairs, and integers that may exceed
2**53 as decimal strings, so payloads survive JSON parsers with double-only
numbers.

``verify`` runs the check registry of `staircase_tableaux.checks`, the same
code that ``tests/test_acceptance.py`` runs; ``verify --n-max 6`` covers the
full acceptance contract, and every check in its report carries the range it
covered and its ``elapsed_s``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any, Callable, Iterator, Sequence, TextIO

from . import __version__
from .asep import (
    ASEPParams,
    build_chain,
    partition_functions,
    stationary,
    verify_steady_state,
)
from .checks import CHECK_NAMES, verify_suite
from .core import StatVector, statistics as tableau_statistics, to_line
from .counting import completions, total_count
from .enumerator import _ENUM_LIMIT, enumerate_all
from .polyengine import (
    bivariate_series_check,
    build_V,
    build_W,
    c1_rows,
    pole_constants,
)
# `triangles --which c1` reads `c1_rows`; `build_c` stays bound because
# `bench/layers.py` wraps it as `cli.build_c`.
from .polyengine import build_c  # noqa: F401
from .sampler import RNG_ID, sample_many, sample_statistics
from .stats import (
    dist_A,
    dist_B,
    dist_delta,
    dist_gamma,
    dist_r,
    moments_A,
    moments_delta,
    moments_r,
)

SCHEMA = "staircase-tableaux/1"
SEED_ENV = "STAIRCASE_TABLEAUX_SEED"

# Size caps, checked before any work or output.  Every number a request
# prints must fit Python's default int-to-str limit of 4300 digits: 4**n n!
# exceeds it from n = 1309 on, and 2**n n! from n = 1424 on.  The completion
# table holds O(n**2) such numbers built by O(n**3) big-int products, and a
# triangle O(n**2), so their caps are lower.  `moments` shares `dist`'s cap.
# The series check costs about z**4 big-int steps: seconds at z = 100, hours
# at z = 1000.
_COUNT_LIMIT = 1000
_TABLE_LIMIT = 200
_DIST_LIMIT = 1000
_TRIANGLE_LIMIT = 200
_Z_ORDER_LIMIT = 100

_DIST_FNS = {
    "r": dist_r,
    "delta": dist_delta,
    "gamma": dist_gamma,
    "a": dist_A,
    "b": dist_B,
}
_MOMENT_FNS = {
    "r": moments_r,
    "delta": moments_delta,
    "gamma": moments_delta,
    "a": moments_A,
    "b": moments_A,
}

@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: one subcommand plus every flag it may consult."""

    subcommand: str
    n: int | None = None
    n_max: int | None = None
    seed: int = 0
    seed_source: str = "default"
    count: int | None = None
    stat: str | None = None
    which: str | None = None
    mode: str | None = None
    suite: str | None = None
    fmt: str = "text"
    out: str | None = None
    tol: float = 1e-10
    z_order: int = 12
    table: bool = False
    exact: bool = False
    no_timestamp: bool = False
    params: ASEPParams | None = None


# --------------------------------------------------------------------------
# output plumbing


def _rat(x: Fraction) -> list[str]:
    return [str(x.numerator), str(x.denominator)]


def _metadata(cfg: RunConfig, with_seed: bool = False) -> dict[str, Any]:
    config: dict[str, Any] = {}
    for key in ("n", "n_max", "count", "stat", "which", "mode", "suite"):
        value = getattr(cfg, key)
        if value is not None:
            config[key] = value
    if cfg.subcommand == "series-check":
        config["z_order"] = cfg.z_order
    if cfg.table:
        config["table"] = True
    if cfg.exact:
        config["exact"] = True
    if cfg.subcommand == "asep":
        config["tol"] = cfg.tol
    if cfg.params is not None:
        config["params"] = {
            name: str(getattr(cfg.params, name))
            for name in ("alpha", "beta", "gamma", "delta", "q", "u")
        }
    config["format"] = cfg.fmt
    meta: dict[str, Any] = {
        "schema": SCHEMA,
        "version": __version__,
        "command": cfg.subcommand,
        "config": config,
    }
    if with_seed:
        meta["seed"] = cfg.seed
        meta["seed_source"] = cfg.seed_source
        meta["rng"] = RNG_ID
    if not cfg.no_timestamp:
        meta["generated_at"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    return meta


def _flatten(meta: dict[str, Any], prefix: str = "") -> Iterator[tuple[str, Any]]:
    for key, value in meta.items():
        if isinstance(value, dict):
            yield from _flatten(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _write_csv(
    out: TextIO,
    meta: dict[str, Any],
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
) -> None:
    for key, value in _flatten(meta):
        out.write(f"# {key}={value}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_json(out: TextIO, meta: dict[str, Any], payload: dict[str, Any]) -> None:
    doc = dict(meta)
    doc.update(payload)
    json.dump(doc, out, indent=2)
    out.write("\n")


@contextmanager
def _open_out(path: str | None) -> Iterator[TextIO]:
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_count(cfg: RunConfig, out: TextIO) -> int:
    limit = _TABLE_LIMIT if cfg.table else _COUNT_LIMIT
    if not 0 <= cfg.n <= limit:
        scope = " with --table" if cfg.table else ""
        raise ValueError(f"need 0 <= n <= {limit}{scope}, got {cfg.n}")
    total = total_count(cfg.n)
    if cfg.table:
        table = completions(cfg.n)
        rows = [(k, r, str(table.count(k, r))) for k, r in sorted(table.entries)]
    else:
        rows = []
    if cfg.fmt == "json":
        payload: dict[str, Any] = {"total": str(total)}
        if cfg.table:
            payload["table"] = [list(row) for row in rows]
        _write_json(out, _metadata(cfg), payload)
    elif cfg.fmt == "csv":
        if cfg.table:
            _write_csv(out, _metadata(cfg), ("k", "r", "count"), rows)
        else:
            _write_csv(out, _metadata(cfg), ("n", "total"), [(cfg.n, str(total))])
    else:
        for k, r, value in rows:
            out.write(f"{k}\t{r}\t{value}\n")
        out.write(f"{total}\n")
    return 0


_STAT_HEADER = ("n", "r", "delta", "gamma", "a_diag", "b_diag")


def _stat_row(n: int, s: StatVector) -> tuple[int, int, int, int, int, int]:
    return (n, s.r, s.delta, s.gamma, s.a_diag, s.b_diag)


def _cmd_enumerate(cfg: RunConfig, out: TextIO) -> int:
    if not 1 <= cfg.n <= _ENUM_LIMIT:
        raise ValueError(f"need 1 <= n <= {_ENUM_LIMIT}, got {cfg.n}")
    if cfg.fmt == "csv":
        for key, value in _flatten(_metadata(cfg)):
            out.write(f"# {key}={value}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_STAT_HEADER)
        enumerate_all(
            cfg.n,
            lambda t: writer.writerow(_stat_row(cfg.n, tableau_statistics(t))),
        )
    else:
        enumerate_all(cfg.n, lambda t: out.write(to_line(t) + "\n"))
    return 0


def _cmd_sample(cfg: RunConfig, out: TextIO) -> int:
    if cfg.count < 1:
        raise ValueError(f"--count must be at least 1, got {cfg.count}")
    if cfg.fmt == "text":
        for t in sample_many(cfg.n, cfg.count, cfg.seed):
            out.write(to_line(t) + "\n")
        return 0
    # The json and csv reports read only statistics, drawn from the same
    # stream without building the tableaux.
    draws = sample_statistics(cfg.n, cfg.count, cfg.seed)
    if cfg.fmt == "json":
        r_hist = Counter(s.r for s in draws)
        a_hist = Counter(s.a_diag for s in draws)
        payload = {
            "r_histogram": {str(v): r_hist[v] for v in sorted(r_hist)},
            "a_diag_histogram": {str(v): a_hist[v] for v in sorted(a_hist)},
        }
        _write_json(out, _metadata(cfg, with_seed=True), payload)
    else:
        rows = [_stat_row(cfg.n, s) for s in draws]
        _write_csv(out, _metadata(cfg, with_seed=True), _STAT_HEADER, rows)
    return 0


def _check_stat_size(n: int) -> None:
    # n < 1 is refused, just as early, by the law itself.
    if n > _DIST_LIMIT:
        raise ValueError(f"need 1 <= n <= {_DIST_LIMIT}, got {n}")


def _cmd_dist(cfg: RunConfig, out: TextIO) -> int:
    _check_stat_size(cfg.n)
    pmf = _DIST_FNS[cfg.stat](cfg.n)
    rows = [
        (v, p.numerator, p.denominator) for v, p in zip(pmf.support(), pmf.probs)
    ]
    # The rows hold every number now; freeing the integer weights before the
    # payload's decimal strings are built keeps the peak memory down.
    del pmf
    if cfg.fmt == "csv":
        _write_csv(out, _metadata(cfg), ("value", "numerator", "denominator"), rows)
    elif cfg.fmt == "json":
        payload = {
            "pmf": [
                {"value": v, "p": [str(num), str(den)]} for v, num, den in rows
            ]
        }
        _write_json(out, _metadata(cfg), payload)
    else:
        for v, num, den in rows:
            out.write(f"{v}\t{num}/{den}\n")
    return 0


def _cmd_moments(cfg: RunConfig, out: TextIO) -> int:
    _check_stat_size(cfg.n)
    mean, variance = _MOMENT_FNS[cfg.stat](cfg.n)
    if cfg.fmt == "csv":
        rows = [
            ("mean", mean.numerator, mean.denominator),
            ("variance", variance.numerator, variance.denominator),
        ]
        _write_csv(
            out, _metadata(cfg), ("quantity", "numerator", "denominator"), rows
        )
    elif cfg.fmt == "json":
        _write_json(
            out,
            _metadata(cfg),
            {"mean": _rat(mean), "variance": _rat(variance)},
        )
    else:
        out.write(f"mean = {mean}\nvariance = {variance}\n")
    return 0


def _triangle_rows(which: str, n_max: int) -> list[tuple[int, int, str]]:
    if which == "V":
        rows = build_V(n_max).rows
    elif which == "W":
        rows = build_W(n_max).rows
    else:
        rows = c1_rows(n_max)
    return [(n, k, str(v)) for n, row in enumerate(rows) for k, v in enumerate(row)]


def _cmd_triangles(cfg: RunConfig, out: TextIO) -> int:
    if not 0 <= cfg.n_max <= _TRIANGLE_LIMIT:
        raise ValueError(f"need 0 <= n-max <= {_TRIANGLE_LIMIT}, got {cfg.n_max}")
    rows = _triangle_rows(cfg.which, cfg.n_max)
    if cfg.fmt == "json":
        payload = {"rows": [list(row) for row in rows]}
        _write_json(out, _metadata(cfg), payload)
    elif cfg.fmt == "text":
        for n, k, value in rows:
            out.write(f"{n}\t{k}\t{value}\n")
    else:
        _write_csv(out, _metadata(cfg), ("n", "k", "value"), rows)
    return 0


def _cmd_series_check(cfg: RunConfig, out: TextIO) -> int:
    # z-order < 0 is refused, just as early, by the series check itself.
    if cfg.z_order > _Z_ORDER_LIMIT:
        raise ValueError(
            f"need 0 <= z-order <= {_Z_ORDER_LIMIT}, got {cfg.z_order}"
        )
    rep = bivariate_series_check(cfg.z_order)
    poles = pole_constants()
    if cfg.fmt == "json":
        payload = {
            "ok": rep.ok,
            "orders_checked": rep.orders_checked,
            "first_mismatch": rep.first_mismatch,
            "pole_constants": [_rat(p) for p in poles],
        }
        _write_json(out, _metadata(cfg), payload)
    else:
        out.write(f"ok: {rep.ok}\n")
        out.write(f"orders checked: {rep.orders_checked}\n")
        out.write("pole constants: " + ", ".join(str(p) for p in poles) + "\n")
    return 0 if rep.ok else 1


def _cmd_asep(cfg: RunConfig, out: TextIO) -> int:
    params = cfg.params
    n = cfg.n
    meta = _metadata(cfg)
    if cfg.mode == "stationary":
        pi = stationary(build_chain(n, params), exact=cfg.exact)
        if cfg.exact:
            entries = [
                {"state": format(s, f"0{n}b"), "p": _rat(pi[s])}
                for s in range(1 << n)
            ]
        else:
            entries = [
                {"state": format(s, f"0{n}b"), "p": float(pi[s])}
                for s in range(1 << n)
            ]
        _write_json(out, meta, {"pi": entries})
        return 0
    if cfg.mode == "partition":
        total, by_type = partition_functions(n, params)
        entries = [
            {"type": bits, "Z": _rat(by_type[bits])}
            for bits in sorted(by_type, key=lambda b: int(b, 2))
        ]
        _write_json(out, meta, {"Z_total": _rat(total), "by_type": entries})
        return 0
    rep = verify_steady_state(n, params, tol=cfg.tol, exact=cfg.exact)
    _write_json(
        out,
        meta,
        {
            "max_deviation": rep.max_deviation,
            "residual": _rat(rep.residual) if rep.exact else rep.residual,
            "tol": rep.tol,
            "passed": rep.passed,
            "exact": rep.exact,
        },
    )
    return 0 if rep.passed else 1


def _cmd_verify(cfg: RunConfig, out: TextIO) -> int:
    names = None if cfg.suite == "all" else [cfg.suite]
    results = verify_suite(cfg.n_max, seed=cfg.seed, names=names)
    payload = {
        "checks": [asdict(r) for r in results],
        "passed": all(r.passed for r in results),
    }
    _write_json(out, _metadata(cfg, with_seed=True), payload)
    return 0 if payload["passed"] else 1


_DISPATCH: dict[str, Callable[[RunConfig, TextIO], int]] = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "sample": _cmd_sample,
    "dist": _cmd_dist,
    "moments": _cmd_moments,
    "triangles": _cmd_triangles,
    "series-check": _cmd_series_check,
    "asep": _cmd_asep,
    "verify": _cmd_verify,
}


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staircase-tableaux",
        description="Exact enumeration, sampling and verification tools "
        "for staircase tableaux.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        if formats:
            p.add_argument(
                "--format", choices=formats, default=formats[0], dest="fmt"
            )
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the generated_at field for byte-stable output",
        )

    p = sub.add_parser("count", help="total tableau count, optionally the N(k, r) table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--table", action="store_true", help="emit the full N(k, r) table")
    add_common(p, ("text", "csv", "json"))

    p = sub.add_parser("enumerate", help="stream every tableau of a given size")
    p.add_argument("--n", type=int, required=True)
    add_common(p, ("text", "csv"))

    p = sub.add_parser("sample", help="draw exact-uniform tableaux")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int)
    add_common(p, ("text", "csv", "json"))

    p = sub.add_parser("dist", help="exact law of a tableau statistic")
    p.add_argument("--stat", choices=sorted(_DIST_FNS), required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p, ("text", "csv", "json"))

    p = sub.add_parser("moments", help="exact mean and variance of a statistic")
    p.add_argument("--stat", choices=sorted(_MOMENT_FNS), required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p, ("text", "csv", "json"))

    p = sub.add_parser("triangles", help="export the V, W or c(1) triangle")
    p.add_argument("--which", choices=("V", "W", "c1"), required=True)
    p.add_argument("--n-max", type=int, default=8)
    add_common(p, ("csv", "json", "text"))

    p = sub.add_parser("series-check", help="bivariate series self-check")
    p.add_argument("--z-order", type=int, default=12)
    add_common(p, ("text", "json"))

    p = sub.add_parser("asep", help="ASEP chain: stationary law, partition sums, verify")
    p.add_argument("--n", type=int, required=True)
    for name in ("alpha", "beta", "gamma", "delta", "q", "u"):
        p.add_argument(f"--{name}", required=True, help=f"rate {name}, e.g. 1/3")
    p.add_argument("--mode", choices=("stationary", "partition", "verify"),
                   default="verify")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--exact", action="store_true", help="rational arithmetic")
    add_common(p, ())

    p = sub.add_parser("verify", help="run the aggregated verification suite")
    p.add_argument("--suite", choices=("all",) + CHECK_NAMES, default="all")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--seed", type=int)
    add_common(p, ())

    return parser


def _resolve_seed(args: argparse.Namespace) -> tuple[int, str]:
    seed = getattr(args, "seed", None)
    if seed is not None:
        return seed, "flag"
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env), "env"
        except ValueError:
            raise ValueError(f"{SEED_ENV} must be an integer, got {env!r}")
    return 0, "default"


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    seed, seed_source = _resolve_seed(args)
    params = None
    if args.subcommand == "asep":
        params = ASEPParams.from_strings(
            args.alpha, args.beta, args.gamma, args.delta, args.q, args.u
        )
    return RunConfig(
        subcommand=args.subcommand,
        n=getattr(args, "n", None),
        n_max=getattr(args, "n_max", None),
        seed=seed,
        seed_source=seed_source,
        count=getattr(args, "count", None),
        stat=getattr(args, "stat", None),
        which=getattr(args, "which", None),
        mode=getattr(args, "mode", None),
        suite=getattr(args, "suite", None),
        fmt=getattr(
            args, "fmt", "json" if args.subcommand in ("asep", "verify") else "text"
        ),
        out=args.out,
        tol=getattr(args, "tol", 1e-10),
        z_order=getattr(args, "z_order", 12),
        table=getattr(args, "table", False),
        exact=getattr(args, "exact", False),
        no_timestamp=args.no_timestamp,
        params=params,
    )


def run(cfg: RunConfig) -> int:
    """Dispatch a resolved configuration; returns the process exit status."""
    with _open_out(cfg.out) as out:
        return _DISPATCH[cfg.subcommand](cfg, out)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
