"""Exact-uniform sampling of staircase tableaux by weighted column growth.

Columns are drawn right to left, in the growth order of `enumerator`: each
step prepends one column, and its class j of `counting` (j = -1 raises the
AG-row count r by one, j = 0..r lowers it by j; each j >= 0 split into its
beta/delta-only and with-alpha/gamma subclasses) is chosen with probability

    multiplicity(r, j) * N(k-1, r-j) / N(k, r),

where k columns remain and N is the completion count.  Within a class the
slot subset and the individual symbols are uniform, so each fill of class j
is drawn with probability N(k-1, r-j) / N(k, r), and every complete tableau
carries probability 1/(4**n n!) exactly; `probability_of` replays a
tableau's columns and multiplies those ratios as integer (numerator,
denominator) pairs.

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
`StatVector`s both ways, r being the walk's final AG-row count; draws with
equal counts share one `StatVector`.  `_grow` and `_grow_counts` take the
choice columns `_columns` yields; `_grow` hands each fill to
`enumerator._place` as its (bottom, upper) pair, so it builds no
`ColumnFill` either.

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
from typing import Callable, Iterable, Iterator

from .core import _AG, _BD, GreekSymbol, StatVector, Tableau, _grown
from .core import _stat_vector, ag_row_indices
# `sample_statistics` no longer calls `statistics`; the name stays bound
# because `bench/layers.py` wraps it as `sampler.statistics`.
from .core import statistics  # noqa: F401
from .counting import completion_count
# The sampler calls none of the class counts or `ColumnFill`; the names stay
# bound because `bench/layers.py` wraps them in this module's namespace.
from .counting import (  # noqa: F401
    bd_only_multiplicity,
    multiplicity,
    with_ag_multiplicity,
)
from .enumerator import ColumnFill  # noqa: F401
from .enumerator import _place, split_first_column

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

#: One column's choices, (r, j, with_ag, rank, coins): see `_columns`.
_Choice = tuple[int, int, bool, int, int]


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


def _columns(rng: random.Random, n: int) -> Iterator[_Choice]:
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


def _fill(
    r: int, j: int, with_ag: bool, rank: int, coins: int
) -> tuple[GreekSymbol, tuple[tuple[int, GreekSymbol], ...]]:
    """The (bottom, upper) parts of the fill that one column's choices from
    `_columns` describe."""
    if j < 0:
        return _AG[coins], ()
    slots = _unrank_subset(r, j + with_ag, rank)
    upper = [(s, _BD[coins >> i & 1]) for i, s in enumerate(slots, 1)]
    if with_ag:
        upper[-1] = (slots[-1], _AG[coins >> len(slots)])
    return _BD[coins & 1], tuple(upper)


def _grow(n: int, columns: Iterable[_Choice]) -> Tableau:
    """The size-n tableau that the choice columns of `_columns` describe."""
    cells: dict = {}
    ag_rows: list[int] = []
    for m, column in enumerate(columns):
        ag_rows = _place(cells, ag_rows, m + 1, n - m, *_fill(*column))
    return _grown(n, cells)


def _grow_counts(columns: Iterable[_Choice]) -> tuple[int, int, int, int]:
    """The final AG-row count (r - j after the last column; r + 1 for j = -1)
    and the cell, alpha/gamma and diagonal alpha/gamma counts of the tableau
    `_grow` builds from the same choice tuples."""
    r = j = n_bd = n_ag = a_diag = 0
    for r, j, with_ag, _, _ in columns:
        if j < 0:
            n_ag += 1
            a_diag += 1
        else:
            n_bd += j + 1
            n_ag += with_ag
    return r - j, n_bd + n_ag, n_ag, a_diag


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
    if seed < 0:  # `random.Random` would draw the stream of -seed
        raise ValueError(f"need seed >= 0, got {seed}")
    return random.Random(seed)


def iter_samples(n: int, count: int, seed: int) -> Iterator[Tableau]:
    """`count` independent uniform tableaux from one seeded stream, each
    drawn when it is asked for.  n, count and n * count are checked at the
    call, before anything is drawn."""
    rng = _stream(n, count, seed)
    return (_grow(n, _columns(rng, n)) for _ in range(count))


def sample_many(n: int, count: int, seed: int) -> list[Tableau]:
    """`list(iter_samples(n, count, seed))`."""
    return list(iter_samples(n, count, seed))


def sample_statistics(n: int, count: int, seed: int) -> list[StatVector]:
    """`[statistics(t) for t in sample_many(n, count, seed)]`, drawn without
    building the tableaux.  Draws with equal counts share one `StatVector`,
    so `core._stat_vector` checks each distinct r + delta = n once."""
    rng = _stream(n, count, seed)
    shared: dict[tuple[int, int, int, int], StatVector] = {}
    out = []
    for _ in range(count):
        counts = _grow_counts(_columns(rng, n))
        stats = shared.get(counts)
        if stats is None:
            stats = shared[counts] = _stat_vector(n, *counts)
        out.append(stats)
    return out


def probability_of(n: int, t: Tableau) -> Fraction:
    """Replay the growth of `t` and multiply its column probabilities.

    Each column is peeled off with `split_first_column`; the k-th peeled
    (k = 1..n) leaves a parent with r AG rows, and a fill of class j above
    it is drawn with probability N(k-1, r-j) / N(k, r), N being
    `completion_count`.  The ratios multiply as integer pairs, made one
    `Fraction` at the return.  For a valid size-n tableau they telescope to
    1/(4**n n!), so `sampler-exactness` certifies the decomposition and the
    AG-row bookkeeping; a class j > r raises `ValueError` from
    `completion_count`.  The draw weights are read by its class-count,
    stretch and full-law legs.
    """
    if t.n != n:
        raise ValueError(f"tableau has size {t.n}, expected {n}")
    num = den = 1
    current = t
    for k in range(1, n + 1):
        current, fill = split_first_column(current)
        r = len(ag_row_indices(current))
        num *= completion_count(k - 1, r + fill.r_change)
        den *= completion_count(k, r)
    return Fraction(num, den)
