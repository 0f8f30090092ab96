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
import codecs
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
from functools import cache, lru_cache
from math import gcd, lcm
from operator import attrgetter
from stat import S_ISREG
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
# The series check costs about z**3 big-int steps: a tenth of a second at
# z = 100, minutes at z = 1000.
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


# Each format's row of a three-int table, a bytes %-template.  A JSON row
# starts on a new line, indented as `json.dump(..., indent=2)` prints it at
# depth 2, and rows are joined by ",".  No int needs JSON or CSV escaping.
_TRIPLE_ROWS = {"text": b"%d\t%d\t%d\n", "csv": b"%d,%d,%d\n",
                "json": b'\n    [\n      %d,\n      %d,\n      "%d"\n    ]'}
# Each format's bytes around a `dist` row's numerator and denominator: the
# lead, a %-template of the value; the middle; and the close.
_PMF_PIECES = {"text": (b"%d\t", b"/", b"\n"), "csv": (b"%d,", b",", b"\n"),
               "json": (b'\n    {\n      "value": %d,\n      "p": [\n        "',
                        b'",\n        "', b'"\n      ]\n    }')}
# Each table subcommand's JSON key and CSV header.
_TABLES = {
    "dist": ("pmf", ("value", "numerator", "denominator")),
    "triangles": ("rows", ("n", "k", "value")),
}
# The most buffers one `os.writev` call takes (Linux's IOV_MAX).
_IOV_MAX = 1024


def _triples(fields: Sequence[int], fmt: str) -> bytes:
    """`fields`, three to a row, printed in `fmt` by one %-format on the
    repeated row template."""
    sep = b"," if fmt == "json" else b""
    return sep.join([_TRIPLE_ROWS[fmt]] * (len(fields) // 3)) % tuple(fields)


def _gather(out: Any, pieces: Sequence[bytes]) -> None:
    """Write the bytes `pieces` after what `out` holds, with no copy: once
    `out`'s buffer is flushed, `os.writev` gathers them, `_IOV_MAX` a call,
    into its file descriptor.  `os.write` finishes a short write, and every
    chunk where `os.writev` is missing.  A stream with no file descriptor
    (an in-memory one), or whose text is not UTF-8, gets the text."""
    try:
        fd = out.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        fd = None
    if fd is None or codecs.lookup(out.encoding).name != "utf-8":
        out.write(b"".join(pieces).decode())
        return
    out.flush()
    writev = getattr(os, "writev", None)
    for start in range(0, len(pieces), _IOV_MAX):
        chunk = pieces[start : start + _IOV_MAX]
        done = writev(fd, chunk) if writev else 0
        if done < sum(map(len, chunk)):
            rest = memoryview(b"".join(chunk))[done:]
            while rest:
                rest = rest[os.write(fd, rest) :]


def _write_json(
    out: TextIO,
    meta: dict[str, Any],
    payload: dict[str, Any],
    rows: tuple[str, Sequence[bytes]] | None = None,
) -> None:
    """Write meta and payload as one indented JSON document.

    `rows`, if given, is (key, bytes pieces): the document's last member, a
    list whose rows, each on a new line and joined by ",", are gathered
    after the head with no copy, instead of printed by `json`'s pure-Python
    indenting encoder, in the same bytes.
    """
    doc = {**meta, **payload}
    if rows is None:
        json.dump(doc, out, indent=2)
        out.write("\n")
        return
    key, pieces = rows
    # The head without its closing "\n}", continued by the rows member.
    head = f"{json.dumps(doc, indent=2)[:-2]},\n  {json.dumps(key)}: ["
    close = b"\n  ]\n}\n" if pieces else b"]\n}\n"
    _gather(out, [head.encode(), *pieces, close])


def _write_rows(out: TextIO, args: argparse.Namespace, rows: Sequence[bytes]) -> None:
    """The one writer of a `dist` or `triangles` table (`_TABLES`), whose
    rows are the bytes pieces `rows`."""
    key, header = _TABLES[args.subcommand]
    if args.fmt == "json":
        _write_json(out, _metadata(args), {}, (key, rows))
        return
    if args.fmt == "csv":
        _write_csv(out, _metadata(args), header)
    _gather(out, rows)


class _OutFile:
    """The ``--out`` file, opened at the first write: a request refused
    before it writes leaves the path untouched.  An old file is rewritten in
    place (truncating it at open costs more than writing it), and
    `_open_out` cuts a regular file to length at close, never a device or
    FIFO; mid-write, or after a crash, it may hold the new prefix over the
    old tail.  Text goes through a 64 KiB buffer; `_gather` writes past it."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.handle: TextIO | None = None
        self.regular = False

    def __getattr__(self, name: str) -> Any:
        # `write`, `fileno` or `flush`, read once: the first opens the file,
        # and each is then bound here, so later calls go to the file's own.
        if self.handle is None:
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o666)
            self.regular = S_ISREG(os.fstat(fd).st_mode)
            self.handle = open(fd, "w", buffering=1 << 16, encoding="utf-8", newline="")
        method = getattr(self.handle, name)
        setattr(self, name, method)
        return method


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
            with sink.handle:  # closed even if the cut raises
                if sink.regular:
                    sink.handle.truncate()


# --------------------------------------------------------------------------
# subcommand handlers: each reads the parsed namespace and returns the exit
# status


@lru_cache(maxsize=1)
def _count_table(n: int, fmt: str) -> bytes:
    """Every N(k, r), k + r <= n, row k stepped along r from 4**k k! by
    factors 2k + 1, printed in `fmt` by `_triples` (JSON: the `table` rows,
    which `_write_json` gathers as they are).  Only the last one is kept."""
    values: list[int] = []
    for k in range(n + 1):
        value, step = total_count(k), 2 * k + 1
        for r in range(n - k + 1):
            values += (k, r, value)
            value *= step
    return _triples(values, fmt)


def _cmd_count(args: argparse.Namespace, out: TextIO) -> int:
    """The total 4**n n!, and with ``--table`` every completion count
    N(k, r) from `_count_table`, written with no copy."""
    limit = _TABLE_LIMIT if args.table else _COUNT_LIMIT
    if not 0 <= args.n <= limit:
        scope = " with --table" if args.table else ""
        raise ValueError(f"need 0 <= n <= {limit}{scope}, got {args.n}")
    total = str(total_count(args.n))
    table = (_count_table(args.n, args.fmt),) if args.table else ()
    if args.fmt == "json":
        rows = ("table", table) if args.table else None
        _write_json(out, _metadata(args), {"total": total}, rows)
    elif args.fmt == "text":
        _gather(out, [*table, f"{total}\n".encode()])
    elif args.table:
        _write_csv(out, _metadata(args), ("k", "r", "count"))
        _gather(out, table)
    else:
        _write_csv(out, _metadata(args), ("n", "total"), [(args.n, total)])
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


# A `_pmf_rows` rendering: the flat fields, and each format's row pieces
# (`_pmf_pieces`) once asked for.  The last two as (law, bound, rendering).
_Rendering = tuple[tuple[int | bytes, ...], dict[str, list[bytes]]]
_renderings: list[tuple[ExactPMF, int, _Rendering]] = []


def _pmf_rows(pmf: ExactPMF, bound: int) -> _Rendering:
    """Each value with its probability in lowest terms, as ASCII digits,
    flat: three fields a value, for a denominator whose prime factors are 2
    and the primes <= `bound` (2**n n! and n).  A weight's odd part gives up
    its factors of lcm(odd numbers <= bound) a common factor at a time, so
    no gcd runs on two full-size integers, and each reduced denominator is
    an exact `Decimal` quotient, printed in linear time: its context traps
    `Inexact` and `Rounded`, so a factor that does not divide it raises.

    The last two renderings (at most about 8 MiB at n = 1000) are found by
    comparing (law, bound) with `==`, never by hashing the law: the law
    object `stats` hands out again costs a few pointer compares, and a law
    that differs in any weight is rendered afresh.  The fields are a tuple,
    so no caller can change what the next one is handed; the pieces of
    every format share their digits."""
    for law, b, rendering in _renderings:
        if b == bound and law == pmf:
            return rendering
    denom = pmf.denominator
    twos = (denom & -denom).bit_length() - 1
    odd_lcm = lcm(*range(3, bound + 1, 2))
    big = Decimal(denom)
    exact = Context(prec=big.adjusted() + 1, traps=[Inexact, Rounded])
    # Each distinct weight is reduced and printed once, with no `Fraction`
    # per entry: a V row is symmetric, so half its entries repeat.
    reduced: dict[int, tuple[bytes, bytes]] = {0: (b"0", b"1")}
    rows: list[int | bytes] = []
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
            p = reduced[w] = (b"%d" % (w // g), str(exact.divide(big, g)).encode())
        rows += (v, *p)
    rendering: _Rendering = (tuple(rows), {})
    _renderings[:] = [*_renderings[-1:], (pmf, bound, rendering)]
    return rendering


def _pmf_pieces(fields: Sequence[Any], fmt: str) -> list[bytes]:
    """`_pmf_rows` fields as `fmt` rows of four bytes pieces (`_PMF_PIECES`):
    the lead with the value, and the numerator, middle and denominator, the
    digits shared, not copied.  Each later lead opens with the close."""
    lead, mid, close = _PMF_PIECES[fmt]
    pieces: list[bytes] = []
    start = b""
    for v, num, den in zip(fields[::3], fields[1::3], fields[2::3]):
        pieces += (start + lead % v, num, mid, den)
        start = close + b"," if fmt == "json" else close
    pieces.append(close)
    return pieces


def _cmd_dist(args: argparse.Namespace, out: TextIO) -> int:
    _check_stat_size(args.n)
    fields, pieces = _pmf_rows(_DIST_FNS[args.stat](args.n), args.n)
    if args.fmt not in pieces:
        pieces[args.fmt] = _pmf_pieces(fields, args.fmt)
    _write_rows(out, args, pieces[args.fmt])
    return 0


def _cmd_moments(args: argparse.Namespace, out: TextIO) -> int:
    _check_stat_size(args.n)
    mean, variance = STATISTICS[args.stat].moments(args.n)
    if args.fmt == "csv":
        rows = [("mean", *_rat(mean)), ("variance", *_rat(variance))]
        header = ("quantity", "numerator", "denominator")
        _write_csv(out, _metadata(args), header, rows)
    elif args.fmt == "json":
        payload = {"mean": _rat(mean), "variance": _rat(variance)}
        _write_json(out, _metadata(args), payload)
    else:
        out.write(f"mean = {mean}\nvariance = {variance}\n")
    return 0


def _cmd_triangles(args: argparse.Namespace, out: TextIO) -> int:
    if not 0 <= args.n_max <= _TRIANGLE_LIMIT:
        raise ValueError(f"need 0 <= n-max <= {_TRIANGLE_LIMIT}, got {args.n_max}")
    build = {"V": build_V, "W": build_W, "c1": c1_rows}[args.which]
    rows = enumerate(build(args.n_max))
    fields = [x for n, row in rows for k, v in enumerate(row) for x in (n, k, v)]
    _write_rows(out, args, (_triples(fields, args.fmt),))
    return 0


def _cmd_series_check(args: argparse.Namespace, out: TextIO) -> int:
    # z-order < 0 is refused, just as early, by the series check itself.
    if args.z_order > _Z_ORDER_LIMIT:
        raise ValueError(f"need 0 <= z-order <= {_Z_ORDER_LIMIT}, got {args.z_order}")
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
        entries = [{"state": state_bits(s, n), "p": p(pi[s])} for s in range(1 << n)]
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
    _write_json(out, meta, {
        "max_deviation": rep.max_deviation,
        "residual": _rat(rep.residual) if rep.exact else rep.residual,
        "tol": rep.tol, "passed": rep.passed, "exact": rep.exact,
    })
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
