#!/usr/bin/env python3
"""Sweep the exact stationary-law certificate over random chain parameters.

The bundled verification grid pins five settings; this sweep adds randomly
drawn strictly positive rationals and, for each n up to --n-max, checks that
Z_sigma / Z_n balances the chain's moves exactly (a defect of 0) and that
the law rounded once per state to floats has a residual max |pi P - pi|
below --tol.  Residuals should sit at rounding level (~1e-16) regardless of
the setting.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from fractions import Fraction

from staircase_tableaux.asep import (
    _CHAIN_LIMIT,
    ASEPParams,
    PARAMETER_GRID,
    verify_steady_state,
)


def random_params(rng: random.Random) -> ASEPParams:
    def rate() -> Fraction:
        den = rng.choice([2, 3, 4, 5, 7, 8, 16])
        return Fraction(rng.randint(1, den), den)

    return ASEPParams(rate(), rate(), rate(), rate(), rate(), rate())


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--settings", type=int, default=20,
                    help="number of random parameter settings")
    ap.add_argument("--n-max", type=int, default=4,
                    choices=range(1, _CHAIN_LIMIT + 1))
    ap.add_argument("--seed", type=int, default=20250823)
    ap.add_argument("--tol", type=float, default=1e-10)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error(f"--seed must be at least 0, got {args.seed}")
    if args.settings < 0:
        ap.error(f"--settings must be at least 0, got {args.settings}")
    if not 0 < args.tol < math.inf:
        ap.error(f"--tol must be a positive finite number, got {args.tol}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    rng = random.Random(args.seed)
    grid = list(PARAMETER_GRID) + [random_params(rng) for _ in range(args.settings)]
    failures = 0
    worst = 0.0
    for i, params in enumerate(grid):
        reps = [
            verify_steady_state(n, params, tol=args.tol)
            for n in range(1, args.n_max + 1)
        ]
        defect = max(rep.max_deviation for rep in reps)
        residual = max(rep.residual for rep in reps)
        worst = max(worst, residual)
        tag = "pinned" if i < len(PARAMETER_GRID) else "random"
        status = "ok" if all(rep.passed for rep in reps) else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status:>4} {tag:>6} defect={defect:.3e} residual={residual:.3e} "
              f"a={params.alpha} b={params.beta} g={params.gamma} "
              f"d={params.delta} q={params.q} u={params.u}")
    print(f"worst residual {worst:.3e} over {len(grid)} settings, "
          f"n <= {args.n_max}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
