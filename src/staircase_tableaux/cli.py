"""Command-line front end.

Nine subcommands cover counting, streaming enumeration, exact-uniform
sampling, distribution and moment export, triangle export, the bivariate
series self-check, ASEP steady-state runs, and the verification suite:

    staircase-tableaux count --n 5
    staircase-tableaux dist --stat a --n 3 --format csv
    staircase-tableaux sample --n 8 --count 3 --seed 11
    staircase-tableaux verify --n-max 5

Each subparser names its handler (``_cmd_<subcommand>``) and its default
format; the handler reads the parsed namespace directly.  `main` resolves the
seed for the subcommands that take ``--seed`` (``sample``, ``verify``) and
parses the rates for ``asep``, then calls the handler.

Every CSV/JSON payload embeds the package version, the effective
configuration and, for ``sample`` and ``verify``, the resolved seed with its
source: flag, the STAIRCASE_TABLEAUX_SEED environment variable, or the
default.  Reruns with identical flags are byte-identical once
``--no-timestamp`` is passed.  Exact quantities are emitted as
numerator/denominator string pairs, and integers that may exceed 2**53 as
decimal strings, so payloads survive JSON parsers with double-only numbers.

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
from dataclasses import asdict, fields
from datetime import datetime, timezone
from decimal import Context, Decimal, Inexact, Rounded
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

from . import __version__
from .asep import (
    _RATES,
    ASEPParams,
    build_chain,
    partition_functions,
    state_bits,
    stationary,
    verify_steady_state,
)
from .checks import CHECK_NAMES, verify_suite
from .core import StatVector, statistics as tableau_statistics, to_line
from .counting import total_count
# `bench/layers.py` wraps `cli.completions`, the table's recurrence oracle.
from .counting import completions  # noqa: F401
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
from .sampler import RNG_ID, iter_samples, sample_statistics
from .stats import STATISTICS, ExactPMF
# `bench/layers.py` wraps `cli.dist_r` and `cli.dist_A`, so both stay bound.
from .stats import dist_A, dist_r  # noqa: F401

SCHEMA = "staircase-tableaux/1"
SEED_ENV = "STAIRCASE_TABLEAUX_SEED"

# Size caps, checked before any work or output.  Every number a request
# prints must fit Python's default int-to-str limit of 4300 digits: 4**n n!
# exceeds it from n = 1309 on, and 2**n n! from n = 1424 on.  The completion
# table prints O(n**2) such numbers (20,301 rows at n = 200), and a triangle
# O(n**2), so their caps are lower.  `moments` shares `dist`'s cap.
# The series check costs about z**4 big-int steps: seconds at z = 100, hours
# at z = 1000.
_COUNT_LIMIT = 1000
_TABLE_LIMIT = 200
_DIST_LIMIT = 1000
_TRIANGLE_LIMIT = 200
_Z_ORDER_LIMIT = 100

# `dist` reads each law here, where `bench/layers.py` wraps the r and a slots.
_DIST_FNS = {name: s.law for name, s in STATISTICS.items()}

# --------------------------------------------------------------------------
# output plumbing

# The flags a payload's ``config`` may report, in this order; a subcommand
# reports those it has, skipping unset options and false switches.
_CONFIG_KEYS = (
    "n", "n_max", "count", "stat", "which", "mode", "suite",
    "z_order", "table", "exact", "tol", "params",
)


def _rat(x: Fraction) -> list[str]:
    return [str(x.numerator), str(x.denominator)]


def _metadata(args: argparse.Namespace) -> dict[str, Any]:
    config: dict[str, Any] = {}
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is None or value is False:
            continue
        if key == "params":
            value = {name: str(getattr(value, name)) for name in _RATES}
        config[key] = value
    config["format"] = args.fmt
    meta: dict[str, Any] = {
        "schema": SCHEMA,
        "version": __version__,
        "command": args.subcommand,
        "config": config,
    }
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
        meta["seed_source"] = args.seed_source
        meta["rng"] = RNG_ID
    if not args.no_timestamp:
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
    rows: Iterable[Sequence[Any]] = (),
) -> Any:
    """Write the `# key=value` head, the header and `rows`; returns the writer."""
    for key, value in _flatten(meta):
        out.write(f"# {key}={value}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return writer


# One row of a streamed payload, as `json.dump(..., indent=2)` prints it at
# depth 2: an [int, int, "int"] triple (`count --table`, `triangles`) and a
# `dist` entry {"value": int, "p": ["int", "int"]}.
_TRIPLE_ROW = '    [\n      {},\n      {},\n      "{}"\n    ]'
_PMF_ROW = (
    '    {{\n      "value": {},\n      "p": [\n        "{}",\n'
    '        "{}"\n      ]\n    }}'
)


def _write_json(
    out: TextIO,
    meta: dict[str, Any],
    payload: dict[str, Any],
    rows: tuple[str, str, Iterable[Sequence[Any]]] | None = None,
) -> None:
    """Write meta and payload as one indented JSON document.

    `rows`, if given, is (key, row format, row tuples): the document's last
    member, a list written one row at a time through the row format instead
    of by `json`'s pure-Python indenting encoder, in the same bytes.  No
    escaping is needed because every row field is an int or the `str` of an
    int (digits and a minus sign).
    """
    doc = dict(meta)
    doc.update(payload)
    if rows is None:
        json.dump(doc, out, indent=2)
        out.write("\n")
        return
    key, row_format, items = rows
    # The head without its closing "\n}", continued by the rows member.
    out.write(f"{json.dumps(doc, indent=2)[:-2]},\n  {json.dumps(key)}: [")
    items = iter(items)
    first = next(items, None)
    if first is None:
        out.write("]\n}\n")
        return
    out.write("\n" + row_format.format(*first))
    # Fetched after the first write, which opens an `--out` file and
    # rebinds its `write` to the file's own method.
    write = out.write
    later_row = ",\n" + row_format
    for row in items:
        write(later_row.format(*row))
    write("\n  ]\n}\n")


class _OutFile:
    """The ``--out`` file, opened (so created or truncated) at the first
    write: a request refused before it writes leaves the path untouched."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.handle: TextIO | None = None

    def write(self, text: str) -> int:
        if self.handle is None:
            self.handle = open(self.path, "w", encoding="utf-8", newline="")
            # Later writes call the file object's own method directly.
            self.write = self.handle.write  # type: ignore[method-assign]
        return self.handle.write(text)


@contextmanager
def _open_out(path: str | None) -> Iterator[Any]:
    if path is None or path == "-":
        yield sys.stdout
        return
    sink = _OutFile(path)
    try:
        yield sink
    finally:
        if sink.handle is not None:
            sink.handle.close()


# --------------------------------------------------------------------------
# subcommand handlers: each reads the parsed namespace and returns the exit
# status


def _cmd_count(args: argparse.Namespace, out: TextIO) -> int:
    """The total 4**n n!, and with ``--table`` every completion count
    N(k, r), each row k stepped along r from 4**k k! by factors 2k + 1."""
    limit = _TABLE_LIMIT if args.table else _COUNT_LIMIT
    if not 0 <= args.n <= limit:
        scope = " with --table" if args.table else ""
        raise ValueError(f"need 0 <= n <= {limit}{scope}, got {args.n}")
    total = total_count(args.n)
    rows = []
    if args.table:
        for k in range(args.n + 1):
            value, step = total_count(k), 2 * k + 1
            for r in range(args.n - k + 1):
                rows.append((k, r, str(value)))
                value *= step
    if args.fmt == "json":
        table = ("table", _TRIPLE_ROW, rows) if args.table else None
        _write_json(out, _metadata(args), {"total": str(total)}, table)
    elif args.fmt == "csv":
        if args.table:
            _write_csv(out, _metadata(args), ("k", "r", "count"), rows)
        else:
            _write_csv(out, _metadata(args), ("n", "total"), [(args.n, str(total))])
    else:
        for k, r, value in rows:
            out.write(f"{k}\t{r}\t{value}\n")
        out.write(f"{total}\n")
    return 0


_STAT_HEADER = ("n", *(f.name for f in fields(StatVector)))
_stat_values = attrgetter(*_STAT_HEADER[1:])


def _stat_row(n: int, s: StatVector) -> tuple[int, ...]:
    return (n, *_stat_values(s))


def _cmd_enumerate(args: argparse.Namespace, out: TextIO) -> int:
    n = args.n
    if not 1 <= n <= _ENUM_LIMIT:
        raise ValueError(f"need 1 <= n <= {_ENUM_LIMIT}, got {n}")
    if args.fmt == "csv":
        writer = _write_csv(out, _metadata(args), _STAT_HEADER)
        enumerate_all(
            n, lambda t: writer.writerow(_stat_row(n, tableau_statistics(t)))
        )
    else:
        enumerate_all(n, lambda t: out.write(to_line(t) + "\n"))
    return 0


def _cmd_sample(args: argparse.Namespace, out: TextIO) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.fmt == "text":
        # Each tableau is written as it is drawn, so memory stays flat.
        for t in iter_samples(args.n, args.count, args.seed):
            out.write(to_line(t) + "\n")
        return 0
    # The json and csv reports read only statistics, drawn from the same
    # stream without building the tableaux.
    draws = sample_statistics(args.n, args.count, args.seed)
    if args.fmt == "json":
        r_hist = Counter(s.r for s in draws)
        a_hist = Counter(s.a_diag for s in draws)
        payload = {
            "r_histogram": {str(v): r_hist[v] for v in sorted(r_hist)},
            "a_diag_histogram": {str(v): a_hist[v] for v in sorted(a_hist)},
        }
        _write_json(out, _metadata(args), payload)
    else:
        rows = [_stat_row(args.n, s) for s in draws]
        _write_csv(out, _metadata(args), _STAT_HEADER, rows)
    return 0


def _check_stat_size(n: int) -> None:
    # n < 1 is refused, just as early, by the law itself.
    if n > _DIST_LIMIT:
        raise ValueError(f"need 1 <= n <= {_DIST_LIMIT}, got {n}")


def _pmf_rows(pmf: ExactPMF, bound: int) -> list[tuple[int, str, str]]:
    """(value, numerator, denominator) of each probability in lowest terms,
    as decimal strings, for a denominator whose prime factors are 2 and the
    primes <= `bound` (2**n n! and n).  A weight's odd part gives up its
    factors of lcm(odd numbers <= bound) a common factor at a time, so no
    gcd runs on two full-size integers, and each reduced denominator is an
    exact `Decimal` quotient, printed in linear time: its context traps
    `Inexact` and `Rounded`, so a factor that does not divide it raises."""
    denom = pmf.denominator
    twos = (denom & -denom).bit_length() - 1
    odd_lcm = lcm(*range(3, bound + 1, 2))
    big = Decimal(denom)
    exact = Context(prec=big.adjusted() + 1, traps=[Inexact, Rounded])
    # Each distinct weight is reduced and printed once, with no `Fraction`
    # per entry: a V row is symmetric, so half its entries repeat.
    reduced: dict[int, tuple[str, str]] = {0: ("0", "1")}
    rows = []
    for v, w in enumerate(pmf.weights, pmf.offset):
        p = reduced.get(w)
        if p is None:
            t = (w & -w).bit_length() - 1
            x, g = w >> t, 1
            h = gcd(x, odd_lcm)
            while h > 1:
                g *= h
                x //= h
                h = gcd(x, h)
            g = gcd(denom, g) << min(t, twos)
            p = reduced[w] = (str(w // g), str(exact.divide(big, g)))
        rows.append((v, *p))
    return rows


def _cmd_dist(args: argparse.Namespace, out: TextIO) -> int:
    _check_stat_size(args.n)
    # The rows hold every decimal string, so the law and its integer weights
    # are freed before the payload is written.
    rows = _pmf_rows(_DIST_FNS[args.stat](args.n), args.n)
    if args.fmt == "csv":
        _write_csv(out, _metadata(args), ("value", "numerator", "denominator"), rows)
    elif args.fmt == "json":
        _write_json(out, _metadata(args), {}, ("pmf", _PMF_ROW, rows))
    else:
        for v, num, den in rows:
            out.write(f"{v}\t{num}/{den}\n")
    return 0


def _cmd_moments(args: argparse.Namespace, out: TextIO) -> int:
    _check_stat_size(args.n)
    mean, variance = STATISTICS[args.stat].moments(args.n)
    if args.fmt == "csv":
        rows = [
            ("mean", mean.numerator, mean.denominator),
            ("variance", variance.numerator, variance.denominator),
        ]
        _write_csv(
            out, _metadata(args), ("quantity", "numerator", "denominator"), rows
        )
    elif args.fmt == "json":
        _write_json(
            out,
            _metadata(args),
            {"mean": _rat(mean), "variance": _rat(variance)},
        )
    else:
        out.write(f"mean = {mean}\nvariance = {variance}\n")
    return 0


def _triangle_rows(which: str, n_max: int) -> list[tuple[int, int, str]]:
    if which == "V":
        rows = build_V(n_max)
    elif which == "W":
        rows = build_W(n_max)
    else:
        rows = c1_rows(n_max)
    return [(n, k, str(v)) for n, row in enumerate(rows) for k, v in enumerate(row)]


def _cmd_triangles(args: argparse.Namespace, out: TextIO) -> int:
    if not 0 <= args.n_max <= _TRIANGLE_LIMIT:
        raise ValueError(
            f"need 0 <= n-max <= {_TRIANGLE_LIMIT}, got {args.n_max}"
        )
    rows = _triangle_rows(args.which, args.n_max)
    if args.fmt == "json":
        _write_json(out, _metadata(args), {}, ("rows", _TRIPLE_ROW, rows))
    elif args.fmt == "text":
        for n, k, value in rows:
            out.write(f"{n}\t{k}\t{value}\n")
    else:
        _write_csv(out, _metadata(args), ("n", "k", "value"), rows)
    return 0


def _cmd_series_check(args: argparse.Namespace, out: TextIO) -> int:
    # z-order < 0 is refused, just as early, by the series check itself.
    if args.z_order > _Z_ORDER_LIMIT:
        raise ValueError(
            f"need 0 <= z-order <= {_Z_ORDER_LIMIT}, got {args.z_order}"
        )
    rep = bivariate_series_check(args.z_order)
    poles = pole_constants()
    if args.fmt == "json":
        mismatch = rep.first_mismatch
        if mismatch is not None:
            n, got, want = mismatch
            mismatch = (n, [str(v) for v in got], [str(v) for v in want])
        payload = {
            "ok": rep.ok,
            "orders_checked": rep.orders_checked,
            "first_mismatch": mismatch,
            "pole_constants": [_rat(p) for p in poles],
        }
        _write_json(out, _metadata(args), payload)
    else:
        out.write(f"ok: {rep.ok}\n")
        out.write(f"orders checked: {rep.orders_checked}\n")
        out.write("pole constants: " + ", ".join(str(p) for p in poles) + "\n")
    return 0 if rep.ok else 1


def _cmd_asep(args: argparse.Namespace, out: TextIO) -> int:
    n, params = args.n, args.params
    meta = _metadata(args)
    if args.mode == "stationary":
        pi = stationary(build_chain(n, params), exact=args.exact)
        p = _rat if args.exact else float
        entries = [
            {"state": state_bits(s, n), "p": p(pi[s])} for s in range(1 << n)
        ]
        _write_json(out, meta, {"pi": entries})
        return 0
    if args.mode == "partition":
        total, by_type = partition_functions(n, params)
        entries = [
            {"type": bits, "Z": _rat(by_type[bits])}
            for bits in sorted(by_type, key=lambda b: int(b, 2))
        ]
        _write_json(out, meta, {"Z_total": _rat(total), "by_type": entries})
        return 0
    rep = verify_steady_state(n, params, tol=args.tol, exact=args.exact)
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


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    names = None if args.suite == "all" else [args.suite]
    results = verify_suite(args.n_max, seed=args.seed, names=names)
    payload = {
        "checks": [asdict(r) for r in results],
        "passed": all(r.passed for r in results),
    }
    _write_json(out, _metadata(args), payload)
    return 0 if payload["passed"] else 1


# --------------------------------------------------------------------------
# argument parsing


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: building it
    costs milliseconds, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="staircase-tableaux",
        description="Exact enumeration, sampling and verification tools "
        "for staircase tableaux.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(
        p: argparse.ArgumentParser,
        handler: Callable[[argparse.Namespace, TextIO], int],
        formats: tuple[str, ...],
    ) -> None:
        """Bind the handler; the first format is the default, and a
        subcommand without ``--format`` writes JSON."""
        p.set_defaults(handler=handler)
        if formats:
            p.add_argument(
                "--format", choices=formats, default=formats[0], dest="fmt"
            )
        else:
            p.set_defaults(fmt="json")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the generated_at field for byte-stable output",
        )

    p = sub.add_parser("count", help="total tableau count, optionally the N(k, r) table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--table", action="store_true", help="emit the full N(k, r) table")
    add_common(p, _cmd_count, ("text", "csv", "json"))

    p = sub.add_parser("enumerate", help="stream every tableau of a given size")
    p.add_argument("--n", type=int, required=True)
    add_common(p, _cmd_enumerate, ("text", "csv"))

    p = sub.add_parser("sample", help="draw exact-uniform tableaux")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int)
    add_common(p, _cmd_sample, ("text", "csv", "json"))

    p = sub.add_parser("dist", help="exact law of a tableau statistic")
    p.add_argument("--stat", choices=sorted(STATISTICS), required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p, _cmd_dist, ("text", "csv", "json"))

    p = sub.add_parser("moments", help="exact mean and variance of a statistic")
    p.add_argument("--stat", choices=sorted(STATISTICS), required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p, _cmd_moments, ("text", "csv", "json"))

    p = sub.add_parser("triangles", help="export the V, W or c(1) triangle")
    p.add_argument("--which", choices=("V", "W", "c1"), required=True)
    p.add_argument("--n-max", type=int, default=8)
    add_common(p, _cmd_triangles, ("csv", "json", "text"))

    p = sub.add_parser("series-check", help="bivariate series self-check")
    p.add_argument("--z-order", type=int, default=12)
    add_common(p, _cmd_series_check, ("text", "json"))

    p = sub.add_parser("asep", help="ASEP chain: stationary law, partition sums, verify")
    p.add_argument("--n", type=int, required=True)
    for name in _RATES:
        p.add_argument(f"--{name}", required=True, help=f"rate {name}, e.g. 1/3")
    p.add_argument("--mode", choices=("stationary", "partition", "verify"),
                   default="verify")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--exact", action="store_true", help="rational arithmetic")
    add_common(p, _cmd_asep, ())

    p = sub.add_parser("verify", help="run the aggregated verification suite")
    p.add_argument("--suite", choices=("all",) + CHECK_NAMES, default="all")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--seed", type=int)
    add_common(p, _cmd_verify, ())

    return parser


def _resolve_seed(flag: int | None) -> tuple[int, str]:
    """The seed and its source, refused if negative: `random.Random` seeds
    with the absolute value, so it would draw another seed's stream."""
    env = os.environ.get(SEED_ENV)
    if flag is not None:
        seed, source, name = flag, "flag", "--seed"
    elif env is None:
        return 0, "default"
    else:
        try:
            seed, source, name = int(env), "env", SEED_ENV
        except ValueError:
            raise ValueError(f"{SEED_ENV} must be an integer, got {env!r}")
    if seed < 0:
        raise ValueError(f"{name} must be non-negative, got {seed}")
    return seed, source


def main(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` and run its subcommand; returns the process exit status,
    2 with a one-line ``error:`` on stderr for a refused input."""
    args = build_parser().parse_args(argv)
    try:
        if "seed" in vars(args):
            args.seed, args.seed_source = _resolve_seed(args.seed)
        if args.subcommand == "asep":
            args.params = ASEPParams.from_strings(
                *(getattr(args, name) for name in _RATES)
            )
            if not 0 < args.tol < float("inf"):
                raise ValueError(
                    f"--tol must be a finite positive number, got {args.tol}"
                )
        with _open_out(args.out) as out:
            return args.handler(args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
