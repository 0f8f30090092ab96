"""Exact-uniform sampling of staircase tableaux by weighted column growth.

Columns are drawn right to left, in the growth order of `enumerator`: each
step prepends one column, and its class j of `counting` (j = -1 raises the
AG-row count r by one, j = 0..r lowers it by j; each j >= 0 split into its
beta/delta-only and with-alpha/gamma subclasses) is chosen with probability

    multiplicity(r, j) * N(k-1, r-j) / N(k, r),

where k columns remain and N is the completion count.  Within a class the
slot subset and the individual symbols are uniform.  Every complete tableau
then carries probability 1/(4**n n!) exactly; `probability_of` certifies
this per tableau by replaying the branch and multiplying the stage
probabilities as exact rationals.

The class is drawn lazily.  x is drawn below the closed-form total
4k (2k+1)**r, and the classes are walked in the order j = -1, 0, 1, ...,
each weight made from the previous one by exact integer steps, until one
covers x.  The weights for j >= 0 fall off like r/(jk), so the walk almost
always stops within a few classes.  The power of 2k-1 it stops at is
(2(k-1)+1)**(r-j), the next column's total up to its small factor, so a
column costs one big power and a few big-int steps whatever r is.  The slot
subset is drawn as a lexicographic rank and unranked by bisection.

`iter_samples` yields the tableaux one at a time and `sample_many` lists
them, so both draw the same stream.
`sample_statistics` makes the same draws in the same order as `sample_many`
(`_columns` is their one source) but keeps only the class counts, so it
builds no `ColumnFill` and no `Tableau`, and a seed gives the same
`StatVector`s both ways; draws with equal counts share one `StatVector`.
The fills `sample_many` writes are legal by construction and built by
`enumerator._built_fill`, without `ColumnFill`'s checks.

All randomness flows through `random.Random` (Mersenne Twister) seeded by the
caller, and every draw consumes exactly the `getrandbits` words that
`randrange` would and returns the same value, so draws are reproducible
across runs and platforms.  `_columns` is the one per-column draw kernel.
It runs CPython's rejection loop (`_below`) inline on `getrandbits` for the
class total 4k (2k+1)**r, the subclass total and the symbol coins, so a coin
costs no Python frame; those bounds are at least 4, 2 and 2, so none can be
below 1.  The subset ranks, whose bounds C(r, j) and C(r, j+1) vary, are
drawn by `_below` itself, which refuses a bound below 1 before drawing.  The
draw order (class, bottom symbol, subclass, subset rank, upper symbols
bottom-up) and every bound are those of the full class-weight table this
walk replaced, so every seeded stream is unchanged.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import Callable, Iterator

from .core import _AG, _BD, StatVector, Tableau, _grown, ag_row_indices
# `sample_statistics` no longer calls `statistics`; the name stays bound
# because `bench/layers.py` wraps it as `sampler.statistics`.
from .core import statistics  # noqa: F401
from .counting import (
    bd_only_multiplicity,
    completion_count,
    multiplicity,
    with_ag_multiplicity,
)
# The sampler builds its fills with `_built_fill`; `ColumnFill` is named
# only in annotations, and `bench/layers.py` wraps it as
# `sampler.ColumnFill`.
from .enumerator import ColumnFill, _built_fill, _place, split_first_column

RNG_ID = "python-random-mt19937"

#: Largest size drawn.  A column costs one power of about n/4 log2(2n) bits,
#: so a draw grows like n**2.5: 2-3 s at this size, and days at n = 10**6.
_SAMPLE_LIMIT = 10_000

#: Most draws in one call.  `sample_statistics(5, 10**6, seed)` takes
#: 8-12 s (2-core VM, Python 3.11.7), and `sample_many` holds about 0.8 KiB
#: per size-5 tableau in its list; `iter_samples` holds one tableau at a
#: time.
_COUNT_LIMIT = 10**6

#: Most columns, n * count, in one call.  The count cap alone would let
#: 10**6 draws of size 10**4 run for weeks; this keeps
#: `sample_statistics(5, 10**6, seed)` and caps size-10**4 calls at 1000
#: draws, about 40 min at 2-3 s a draw.
_COLUMN_LIMIT = 10**7


def _below(bits: Callable[[int], int], n: int) -> int:
    """A uniform draw from 0..n-1 out of the word source `bits`
    (`rng.getrandbits`).

    This is CPython's `Random._randbelow_with_getrandbits`: words of
    n.bit_length() bits are drawn until one falls below n, so the value and
    the words consumed are exactly those of `rng.randrange(n)`, without its
    argument handling and its two extra Python frames.  A bound below 1 is
    refused before anything is drawn, as `randrange` refuses it.
    """
    if n < 1:
        raise ValueError(f"need a bound of at least 1, got {n}")
    k = n.bit_length()
    x = bits(k)
    while x >= n:
        x = bits(k)
    return x


def _class_of(x: int, k: int, r: int) -> tuple[int, int, int, int]:
    """The class j at (k columns left, r AG rows) that the draw x covers.

    The common factor 4**(k-1) (k-1)! of N(k-1, .) is dropped from the class
    weights, leaving multiplicity(r, j) * (2k-1)**(r-j) for class j = -1..r,
    which sum to 4k (2k+1)**r; x is a draw below that sum.  The classes are
    walked in the order j = -1, 0, 1, ..., each weight made from the
    previous one by exact integer steps, until one covers x.

    Returns (j, C(r, j), C(r, j+1), (2k-1)**(r-j)); the last entry is the
    next column's (2k+1)**r.
    """
    base = 2 * k - 1
    power = base ** (r + 1)
    x -= 2 * power
    if x < 0:
        return -1, 0, 0, power
    low, high, two = 1, r, 2  # C(r, j), C(r, j+1), 2**(j+1)
    for j in range(r + 1):
        power //= base
        x -= two * (2 * high + low) * power
        if x < 0:
            return j, low, high, power
        low, high, two = high, high * (r - j - 1) // (j + 2), 2 * two
    raise RuntimeError(
        f"class weights at k={k}, r={r} do not sum to 4k(2k+1)**r"
    )


def _unrank_subset(r: int, size: int, index: int) -> list[int]:
    """index-th size-subset of {1..r} in lexicographic order.

    Each element is found by bisection: with m elements still to pick from
    {x..r}, C(r-x+1, m) subsets remain, and those whose least element
    exceeds y number C(r-y, m).
    """
    out = []
    x = 1
    for m in range(size, 0, -1):
        remaining = comb(r - x + 1, m)
        target = remaining - index
        lo, hi = x, r - m + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if comb(r - mid, m) < target:
                hi = mid
            else:
                lo = mid + 1
        index -= remaining - comb(r - lo + 1, m)
        out.append(lo)
        x = lo + 1
    return out


def _columns(
    rng: random.Random, n: int
) -> Iterator[tuple[int, int, bool, int, int]]:
    """All random choices of one size-n draw, column by column in stream
    order.

    Yields (r, j, with_ag, rank, coins) per column: r is the AG-row count
    before it; j is its class (-1 for an alpha/gamma bottom); with_ag says
    whether an alpha/gamma upper entry was drawn; rank is the lexicographic
    rank of the occupied slot subset; bit i of coins is the i-th symbol
    draw, the bottom box's as bit 0, then one per occupied slot bottom-up.

    The class, subclass and coin draws run `_below`'s rejection loop
    inline: their bounds, 4k (2k+1)**r >= 4, with_ag + bd_only weights
    >= 2 and 2, are never below 1.
    """
    bits = rng.getrandbits
    r, scale = 0, 1
    for k in range(n, 0, -1):
        total = 4 * k * scale
        width = total.bit_length()
        x = bits(width)
        while x >= total:
            x = bits(width)
        j, low, high, scale = _class_of(x, k, r)
        coins = bits(2)
        while coins > 1:
            coins = bits(2)
        if j < 0:
            yield r, j, False, 0, coins
            r += 1
            continue
        ag_w = high << (j + 2)  # with_ag_multiplicity(r, j)
        total = ag_w + (low << (j + 1))
        width = total.bit_length()
        x = bits(width)
        while x >= total:
            x = bits(width)
        with_ag = x < ag_w
        if with_ag:
            rank = _below(bits, high)
        else:
            rank = _below(bits, low) if j else 0
        for i in range(1, j + with_ag + 1):
            coin = bits(2)
            while coin > 1:
                coin = bits(2)
            coins |= coin << i
        yield r, j, with_ag, rank, coins
        r -= j


def _fill(r: int, j: int, with_ag: bool, rank: int, coins: int) -> ColumnFill:
    """The fill that one column's choices from `_columns` describe."""
    if j < 0:
        return _built_fill(_AG[coins])
    slots = _unrank_subset(r, j + with_ag, rank)
    upper = [(s, _BD[coins >> i & 1]) for i, s in enumerate(slots, 1)]
    if with_ag:
        upper[-1] = (slots[-1], _AG[coins >> len(slots)])
    return _built_fill(_BD[coins & 1], tuple(upper))


def _grow(rng: random.Random, n: int) -> Tableau:
    cells: dict = {}
    ag_rows: list[int] = []
    for m, column in enumerate(_columns(rng, n)):
        ag_rows = _place(cells, ag_rows, m + 1, n - m, _fill(*column))
    return _grown(n, cells)


def _grow_counts(rng: random.Random, n: int) -> tuple[int, int, int]:
    """The beta/delta, alpha/gamma and diagonal alpha/gamma entry counts of
    the tableau `_grow` would draw from the same stream."""
    n_bd = n_ag = a_diag = 0
    for _, j, with_ag, _, _ in _columns(rng, n):
        if j < 0:
            n_ag += 1
            a_diag += 1
        else:
            n_bd += j + 1
            n_ag += with_ag
    return n_bd, n_ag, a_diag


def sample_uniform(n: int, seed: int) -> Tableau:
    """One tableau, uniform over all 4**n n! of size n."""
    return sample_many(n, 1, seed)[0]


def _stream(n: int, count: int, seed: int) -> random.Random:
    if not 1 <= n <= _SAMPLE_LIMIT:
        raise ValueError(f"need 1 <= n <= {_SAMPLE_LIMIT}, got {n}")
    if count < 0:
        raise ValueError(f"need count >= 0, got {count}")
    if count > _COUNT_LIMIT:
        raise ValueError(f"need count <= {_COUNT_LIMIT}, got {count}")
    if n * count > _COLUMN_LIMIT:
        raise ValueError(
            f"need n * count <= {_COLUMN_LIMIT} columns, got {n * count}"
        )
    return random.Random(seed)


def iter_samples(n: int, count: int, seed: int) -> Iterator[Tableau]:
    """`count` independent uniform tableaux from one seeded stream, each
    drawn when it is asked for.  n, count and n * count are checked at the
    call, before anything is drawn."""
    rng = _stream(n, count, seed)
    return (_grow(rng, n) for _ in range(count))


def sample_many(n: int, count: int, seed: int) -> list[Tableau]:
    """`list(iter_samples(n, count, seed))`."""
    return list(iter_samples(n, count, seed))


def sample_statistics(n: int, count: int, seed: int) -> list[StatVector]:
    """`[statistics(t) for t in sample_many(n, count, seed)]`, drawn without
    building the tableaux.  Draws with equal counts share one `StatVector`."""
    rng = _stream(n, count, seed)
    shared: dict[tuple[int, int, int], StatVector] = {}
    out = []
    for _ in range(count):
        counts = _grow_counts(rng, n)
        stats = shared.get(counts)
        if stats is None:
            n_bd, n_ag, a_diag = counts
            # Each column adds one to r + delta.
            stats = shared[counts] = StatVector(
                r=n - n_bd, delta=n_bd, gamma=n_ag, a_diag=a_diag,
                b_diag=n - a_diag,
            )
        out.append(stats)
    return out


def _fill_probability(k: int, r: int, fill: ColumnFill) -> Fraction:
    """Probability that the column draw at (k, r) produces exactly `fill`,
    accumulated stage by stage (class, subclass, subset, symbols)."""
    total = completion_count(k, r)
    j = -fill.r_change
    move_mult = multiplicity(r, j)
    p = Fraction(move_mult * completion_count(k - 1, r - j), total)
    if j < 0:
        return p * Fraction(1, 2)
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
