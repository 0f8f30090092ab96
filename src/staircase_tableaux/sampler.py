"""Exact-uniform sampling of staircase tableaux by weighted column growth.

Columns are drawn right to left, in the growth order of `enumerator`: each
step prepends one column, and its move class (Up, or Down(j) split into its
beta/delta-only and with-alpha/gamma subclasses) is chosen with probability

    multiplicity(r, move) * N(k-1, r') / N(k, r),

where k columns remain, r is the current AG-row count, r' the count after
the move, and N the completion count.  Within a class the slot subset and
the individual symbols are uniform.  Every complete tableau then carries
probability 1/(4**n n!) exactly; `probability_of` certifies this per tableau
by replaying the branch and multiplying the stage probabilities as exact
rationals.

All randomness flows through `random.Random` (Mersenne Twister) seeded by the
caller, consumed only via `randrange`, so draws are reproducible across runs
and platforms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from .core import _AG, _BD, StatVector, Tableau, ag_row_indices, statistics
from .counting import (
    Down,
    Up,
    bd_only_multiplicity,
    completion_count,
    multiplicity,
    with_ag_multiplicity,
)
from .enumerator import ColumnFill, _grown, _place, split_first_column

RNG_ID = "python-random-mt19937"


def _class_weights(k: int, r: int) -> tuple[int, list[int]]:
    """Relative class weights at (k columns left, r AG rows).

    The common factor 4**(k-1) (k-1)! of N(k-1, .) is dropped, leaving
    Up: 2 (2k-1)**(r+1) and Down(j): multiplicity * (2k-1)**(r-j); their sum
    is 4k (2k+1)**r, checked here.
    """
    base = 2 * k - 1
    powers = [1]
    for _ in range(r + 1):
        powers.append(powers[-1] * base)
    weights = [2 * powers[r + 1]]
    for j in range(r + 1):
        weights.append(multiplicity(r, Down(j)) * powers[r - j])
    assert sum(weights) == 4 * k * (2 * k + 1) ** r
    return sum(weights), weights


def _unrank_subset(r: int, size: int, index: int) -> list[int]:
    """index-th size-subset of {1..r} in lexicographic order."""
    out = []
    x = 1
    for remaining in range(size, 0, -1):
        while True:
            after = comb(r - x, remaining - 1)
            if index < after:
                out.append(x)
                x += 1
                break
            index -= after
            x += 1
    return out


def _draw_fill(rng: random.Random, k: int, r: int) -> ColumnFill:
    total, weights = _class_weights(k, r)
    x = rng.randrange(total)
    cls = 0
    for w in weights:
        if x < w:
            break
        x -= w
        cls += 1
    if cls == 0:
        return ColumnFill(_AG[rng.randrange(2)])
    j = cls - 1
    bottom = _BD[rng.randrange(2)]
    ag_w = with_ag_multiplicity(r, j)
    bd_w = bd_only_multiplicity(r, j)
    with_ag = rng.randrange(ag_w + bd_w) < ag_w
    if with_ag:
        slots = _unrank_subset(r, j + 1, rng.randrange(comb(r, j + 1)))
        upper = [(s, _BD[rng.randrange(2)]) for s in slots[:-1]]
        upper.append((slots[-1], _AG[rng.randrange(2)]))
    else:
        slots = _unrank_subset(r, j, rng.randrange(comb(r, j))) if j else []
        upper = [(s, _BD[rng.randrange(2)]) for s in slots]
    return ColumnFill(bottom, tuple(upper))


def _grow(rng: random.Random, n: int) -> Tableau:
    cells: dict = {}
    ag_rows: list[int] = []
    for m in range(n):
        fill = _draw_fill(rng, n - m, len(ag_rows))
        ag_rows = _place(cells, ag_rows, m + 1, n - m, fill)
    return _grown(n, cells)


def sample_uniform(n: int, seed: int) -> Tableau:
    """One tableau, uniform over all 4**n n! of size n."""
    return sample_many(n, 1, seed)[0]


def sample_many(n: int, count: int, seed: int) -> list[Tableau]:
    """`count` independent uniform tableaux from one seeded stream."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if count < 0:
        raise ValueError(f"need count >= 0, got {count}")
    rng = random.Random(seed)
    return [_grow(rng, n) for _ in range(count)]


def sample_statistics(n: int, count: int, seed: int) -> list[StatVector]:
    return [statistics(t) for t in sample_many(n, count, seed)]


def _fill_probability(k: int, r: int, fill: ColumnFill) -> Fraction:
    """Probability that `_draw_fill(rng, k, r)` produces exactly `fill`,
    accumulated stage by stage (class, subclass, subset, symbols)."""
    total = completion_count(k, r)
    if fill.bottom.is_ag:
        p = Fraction(2 * completion_count(k - 1, r + 1), total)
        return p * Fraction(1, 2)
    j = fill.bd_upper_count
    move_mult = multiplicity(r, Down(j))
    p = Fraction(move_mult * completion_count(k - 1, r - j), total)
    if fill.has_ag_upper:
        p *= Fraction(with_ag_multiplicity(r, j), move_mult)
        p *= Fraction(1, comb(r, j + 1))
        p *= Fraction(1, 2 ** (j + 2))
    else:
        p *= Fraction(bd_only_multiplicity(r, j), move_mult)
        p *= Fraction(1, comb(r, j))
        p *= Fraction(1, 2 ** (j + 1))
    return p


def probability_of(n: int, t: Tableau) -> Fraction:
    """Replay the growth of `t` and multiply its branch probabilities.

    For a valid size-n tableau the product must come out to 1/(4**n n!);
    equality is the sampler's uniformity audit.
    """
    if t.n != n:
        raise ValueError(f"tableau has size {t.n}, expected {n}")
    prob = Fraction(1)
    current = t
    for m in range(n, 0, -1):
        parent, fill = split_first_column(current)
        r = len(ag_row_indices(parent))
        prob *= _fill_probability(n - m + 1, r, fill)
        current = parent
    return prob
