"""Completion counts for the column-growth process.

A legal fill of the next column falls in class j: j = -1 for the two fills
with an alpha/gamma bottom, which raise the AG-row count r by one, and
j = 0..r for those with a beta/delta bottom and j beta/delta upper entries,
which lower r by j.  N(k, r), the number of ways to finish a tableau that
still needs k columns and has r AG rows, obeys

    N(0, r) = 1,    N(k, r) = sum_{j=-1..r} multiplicity(r, j) N(k-1, r-j),

and telescopes to the closed form N(k, r) = 4**k k! (2k+1)**r, which
`completion_count` uses directly; the sampler and `count --table` use it.
`completions` builds the rows from the recurrence, each class count once
(O(n**2) `multiplicity` calls, O(n**3) big-int products), as the oracle the
closed form is checked against.  All arithmetic is exact (Python ints).
"""

from __future__ import annotations

from math import comb, factorial
from operator import mul
from typing import Sequence


def multiplicity(r: int, j: int) -> int:
    """Number of legal column fills in class j above r AG rows: 2 for j = -1,
    else the sum of the two subclasses below."""
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    if not -1 <= j <= r:
        raise ValueError(f"class j={j} unavailable with r={r}")
    if j == -1:
        return 2
    return bd_only_multiplicity(r, j) + with_ag_multiplicity(r, j)


def bd_only_multiplicity(r: int, j: int) -> int:
    """Class-j fills whose occupied upper boxes are all beta/delta."""
    return 2 ** (j + 1) * comb(r, j)


def with_ag_multiplicity(r: int, j: int) -> int:
    """Class-j fills carrying one alpha/gamma upper entry (topmost occupied)."""
    return 2 ** (j + 2) * comb(r, j + 1)


def completion_count(k: int, r: int) -> int:
    """Closed form N(k, r) = 4**k k! (2k+1)**r."""
    if k < 0 or r < 0:
        raise ValueError(f"need k, r >= 0, got ({k}, {r})")
    return 4**k * factorial(k) * (2 * k + 1) ** r


def _completion_rows(
    n: int, counts: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Rows N(k, r), k = 0..n and r = 0..n-k, by the recurrence, where
    counts[r][j + 1] is the number of class-j fills above r AG rows (r < n)."""
    rows = [(1,) * (n + 1)]
    for k in range(1, n + 1):
        prev = rows[-1]
        # prev[r] = N(k-1, r); class j pairs with N(k-1, r-j), j = -1..r.
        rows.append(tuple(
            sum(map(mul, counts[r], prev[r + 1::-1])) for r in range(n - k + 1)
        ))
    return tuple(rows)


def completions(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows N(k, r), k = 0..n and r = 0..n-k, from the recurrence over
    `multiplicity` (no use of the closed form)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    counts = [[multiplicity(r, j) for j in range(-1, r + 1)] for r in range(n)]
    return _completion_rows(n, counts)


def total_count(n: int) -> int:
    """Number of staircase tableaux of size n: 4**n n! = N(n, 0)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return completion_count(n, 0)
