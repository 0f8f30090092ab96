"""Completion counts for the column-growth process.

N(k, r) counts the ways to finish a partially built tableau that still needs
k columns and currently has r AG rows.  Grouping the legal fills of the next
column by how they move r gives the recurrence

    N(0, r) = 1
    N(k, r) = 2 N(k-1, r+1)
              + sum_j 2**(j+1) * (2 C(r, j+1) + C(r, j)) * N(k-1, r-j)

with j running over 0..r.  The multiplicities split by whether the column
carries an alpha/gamma upper entry: 2**(j+1) C(r, j) fills lower r by j using
beta/delta entries only, and 2**(j+2) C(r, j+1) fills do so with one
alpha/gamma entry topmost.  All arithmetic is exact (Python ints).

The recurrence telescopes to the closed form N(k, r) = 4**k k! (2k+1)**r,
which `completion_count` uses directly; `completions` builds the table from
the recurrence so the two routes can be checked against each other.  It
works in plain integers and builds each row of Down multiplicities once,
so `count --table` costs O(n**2) `multiplicity` calls and O(n**3) big-int
products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial
from operator import mul
from typing import Mapping


@dataclass(frozen=True)
class Up:
    """Fill class that raises the AG-row count by one (alpha/gamma bottom)."""


@dataclass(frozen=True)
class Down:
    """Fill class that lowers the AG-row count by k (beta/delta bottom)."""

    k: int


Move = Up | Down


def moves(r: int) -> list[Move]:
    return [Up()] + [Down(k) for k in range(r + 1)]


def multiplicity(r: int, move: Move) -> int:
    """Number of legal column fills in the given class above r AG rows."""
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    if isinstance(move, Up):
        return 2
    if not 0 <= move.k <= r:
        raise ValueError(f"Down({move.k}) unavailable with r={r}")
    return 2 ** (move.k + 1) * (2 * comb(r, move.k + 1) + comb(r, move.k))


def bd_only_multiplicity(r: int, k: int) -> int:
    """Down(k) fills whose occupied upper boxes are all beta/delta."""
    return 2 ** (k + 1) * comb(r, k)


def with_ag_multiplicity(r: int, k: int) -> int:
    """Down(k) fills carrying one alpha/gamma upper entry (topmost occupied)."""
    return 2 ** (k + 2) * comb(r, k + 1)


def completion_count(k: int, r: int) -> int:
    """Closed form N(k, r) = 4**k k! (2k+1)**r."""
    if k < 0 or r < 0:
        raise ValueError(f"need k, r >= 0, got ({k}, {r})")
    return 4**k * factorial(k) * (2 * k + 1) ** r


@dataclass(frozen=True)
class CompletionTable:
    """Triangular table of N(k, r) for 0 <= k <= n, 0 <= r <= n - k."""

    n: int
    entries: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def count(self, k: int, r: int) -> int:
        try:
            return self.entries[(k, r)]
        except KeyError:
            raise ValueError(f"({k}, {r}) outside table for n={self.n}") from None


def completions(n: int) -> CompletionTable:
    """Build the N table from the recurrence (no use of the closed form).

    The Down multiplicities depend on r alone, so each row
    multiplicity(r, Down(j)), j = 0..r, is built once and serves every k.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    down = [[multiplicity(r, Down(j)) for j in range(r + 1)] for r in range(n)]
    prev = [1] * (n + 1)
    entries = {(0, r): 1 for r in range(n + 1)}
    for k in range(1, n + 1):
        # prev[r] = N(k-1, r); the sum pairs Down(j) with N(k-1, r-j).
        prev = [
            2 * prev[r + 1] + sum(map(mul, down[r], prev[r::-1]))
            for r in range(n - k + 1)
        ]
        entries.update(((k, r), total) for r, total in enumerate(prev))
    return CompletionTable(n, entries)


def total_count(n: int) -> int:
    """Number of staircase tableaux of size n: 4**n n!."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return 4**n * factorial(n)
