#!/usr/bin/env python3
"""How quickly the diagonal count settles onto its normal limit.

For each size n this prints the exact Kolmogorov distance d_K between the
law of the diagonal alpha/gamma count and normal(n/2, sqrt((n+1)/12)), read
with the half-integer continuity correction off the integer V row, and
n * d_K: the law is symmetric, so the 1/sqrt(n) Edgeworth term vanishes and
d_K falls like 1/n.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from staircase_tableaux.stats import dist_A, kolmogorov_distance, moments_A

#: Largest size accepted: building the V row takes time growing like n**3.
_SIZE_MAX = 4000


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--sizes", type=int, nargs="+", default=[50, 200, 800, 2000],
        help=f"tableau sizes to test, each in 1..{_SIZE_MAX}",
    )
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args(argv)
    if min(args.sizes) < 1:
        ap.error(f"--sizes must all be at least 1, got {min(args.sizes)}")
    if max(args.sizes) > _SIZE_MAX:
        ap.error(f"--sizes must all be at most {_SIZE_MAX}, "
                 f"got {max(args.sizes)}")
    if args.out and not Path(args.out).parent.is_dir():
        ap.error(f"--out: no directory {Path(args.out).parent}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    rows = []
    print(f"{'n':>6} {'sd':>9} {'d_K':>10} {'n*d_K':>8}")
    for n in args.sizes:
        mean, var = moments_A(n)
        sd = math.sqrt(var)
        d_k = kolmogorov_distance(dist_A(n), float(mean), sd)
        print(f"{n:>6} {sd:>9.4f} {d_k:>10.3e} {n * d_k:>8.4f}")
        rows.append((n, float(mean), sd, d_k, n * d_k))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "mean", "sd", "ks_statistic", "n_ks"])
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
