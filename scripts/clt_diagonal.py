#!/usr/bin/env python3
"""How quickly the diagonal count settles onto its normal limit.

The exact pmf is cheap to build even for n in the thousands, so the draws
here are inverse-transform samples from the true law.  What the sweep
measures is therefore the distance between the finite-n law and the normal
curve itself, with Monte Carlo noise of order 1/sqrt(draws) on top, not any
sampler artifact.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from staircase_tableaux.stats import clt_check, dist_A, moments_A

# `clt_check` refuses smaller samples.
_MIN_DRAWS = 10**4


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--sizes", type=int, nargs="+", default=[50, 200, 800, 2000],
        help="tableau sizes to test",
    )
    ap.add_argument("--draws", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=20250823)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args(argv)
    if min(args.sizes) < 1:
        ap.error(f"--sizes must all be at least 1, got {min(args.sizes)}")
    if args.draws < _MIN_DRAWS:
        ap.error(f"--draws must be at least {_MIN_DRAWS}, got {args.draws}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    rows = []
    print(f"{'n':>6} {'sd':>9} {'ks':>9} {'bin_dev':>9}")
    for n in args.sizes:
        mean, var = moments_A(n)
        sd = math.sqrt(var)
        report = clt_check(dist_A(n).sample(args.draws, args.seed), float(mean), sd)
        print(f"{n:>6} {sd:>9.4f} {report.ks_statistic:>9.5f} "
              f"{report.max_bin_dev:>9.5f}")
        rows.append((n, float(mean), sd, report.ks_statistic, report.max_bin_dev))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "mean", "sd", "ks_statistic", "max_bin_dev"])
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
