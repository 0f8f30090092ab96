"""Exact polynomial machinery: coefficient triangles and series identities.

Everything here is exact and no floating point appears.  Every triangle,
PGF and series coefficient is held in plain integers: a polynomial is a tuple
of integer coefficients, lowest degree first, multiplied by `convolve`, and a
law is its integer numerators over the stated denominator 2**n n!.  `Fraction`
appears only in `pole_constants`.  The module hosts three interlocking
triangles:

* c-triangle: polynomials c[m][l](z) with c[0][0] = 1 and
      c[m+1][l] = (z + 2l) c[m][l] + (z + 2l - 1) c[m][l-1]
  (out-of-range entries are zero).  Equivalently c[m][l] is a sum over
  lattice paths: an SW step from level l carries weight z + 2l, an SE step
  weight z + 2l + 1, and c[m][l] collects paths with l SE steps among m.
  At z = 1 the rows are integers, c1[m+1][l] = (2l+1) c1[m][l] +
  2l c1[m][l-1] (`c1_rows`); the z-polynomial triangle (`build_c`) is kept
  for the comparison with the path oracle.
* V-triangle: type-B Eulerian numbers (OEIS A060187), V(n, 0) = 1 and
      V(n, m) = (2m + 1) V(n-1, m) + (2(n - m) + 1) V(n-1, m-1),
  symmetric rows summing to 2**n n!.  `build_V` runs the full recurrence
  and checks the symmetry; `v_row` steps only the left half and mirrors it,
  and keeps the last row it built per process as one shared tuple.
* W-triangle: Whitney numbers of the second kind for m=2 (OEIS A039755),
      W(n, k) = (2k + 1) W(n-1, k) + W(n-1, k-1),
  tied to the c-triangle by c[n][k](1) = 2**k k! W(n, k).

Each row of c at z = 1, V, W and `stats.dist_r` is one `two_term_step`, fed
coefficient sequences (`range`, `itertools.count`, `itertools.repeat`); the
row ends with the shortest input, which is how `v_row` steps a half row.

On top sit the probability generating functions for the diagonal statistics,
as numerators over 2**n n! (the alpha/gamma one is the V row itself, `v_row`),
and a truncated bivariate series check of

    f(z, w) = (1 - w) e^{(1-w)z/2} / (1 - w e^{(1-w)z}),

whose z^n coefficient must be sum_k V(n, k) w^k / (2**n n!).  The series is
expanded in integer w-polynomials scaled by 2**n n!, so it is compared with
the V rows directly.

Correctness guards raise `RuntimeError` rather than assert, so they hold
under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, count, repeat
from math import comb, factorial
from typing import Iterable, Sequence


def convolve(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Product of two integer polynomials, coefficients lowest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def build_c(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """c-triangle rows 0..n from the two-term recurrence; c[m][l] is its
    coefficient tuple in z, lowest degree first, of length m + 1."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    rows: list[tuple[tuple[int, ...], ...]] = [((1,),)]
    for m in range(1, n + 1):
        zero = (0,) * m
        padded = [zero, *rows[-1], zero]
        row = []
        for l in range(m + 1):
            sw = convolve((2 * l, 1), padded[l + 1])
            se = convolve((2 * l - 1, 1), padded[l])
            row.append(tuple(x + y for x, y in zip(sw, se)))
        rows.append(tuple(row))
    # Boundary sanity: pure-SW and pure-SE paths have product form.
    prod: tuple[int, ...] = (1,)
    for m, row in enumerate(rows):
        if row[0] != (0,) * m + (1,) or row[m] != prod:
            raise RuntimeError(f"c row {m} breaks its product-form boundary")
        prod = convolve(prod, (2 * m + 1, 1))
    return tuple(rows)


def c1_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n of the c-triangle at z = 1, in integers:
    c1[m+1][l] = (2l+1) c1[m][l] + 2l c1[m][l-1]."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    rows: list[tuple[int, ...]] = [(1,)]
    for _ in range(n):
        rows.append(tuple(two_term_step(rows[-1], count(1, 2), count(0, 2))))
    return tuple(rows)


def path_weight_oracle(m: int, l: int) -> tuple[int, ...]:
    """c[m][l] summed path by path, independent of the recurrence.

    Walks every SW/SE path with l SE steps among m, multiplying step weights
    (SW from level h: z + 2h; SE from level h: z + 2h + 1).  Exponential in m;
    guarded to m <= 8.
    """
    if not 0 <= l <= m:
        raise ValueError(f"need 0 <= l <= m, got ({m}, {l})")
    if m > 8:
        raise ValueError("path oracle is exponential; use m <= 8")
    total = (0,) * (m + 1)
    for se_steps in combinations(range(m), l):
        se = set(se_steps)
        h = 0
        prod: tuple[int, ...] = (1,)
        for step in range(m):
            if step in se:
                prod = convolve(prod, (2 * h + 1, 1))
                h += 1
            else:
                prod = convolve(prod, (2 * h, 1))
        total = tuple(x + y for x, y in zip(total, prod))
    return total


def build_V(n: int) -> tuple[tuple[int, ...], ...]:
    """Type-B Eulerian triangle rows 0..n by the full recurrence; each row's
    symmetry, sum and leading 1 are checked."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    rows: list[tuple[int, ...]] = [(1,)]
    for m in range(1, n + 1):
        rows.append(tuple(_v_step(rows[-1], m)))
    for m, row in enumerate(rows):
        if row != row[::-1]:
            raise RuntimeError(f"V row {m} is not symmetric")
        if sum(row) != 2**m * factorial(m):
            raise RuntimeError(f"V row {m} does not sum to 2**{m} {m}!")
        if row[0] != 1:
            raise RuntimeError(f"V row {m} does not start with 1")
    return tuple(rows)


def two_term_step(
    prev: Sequence[int], a: Iterable[int], b: Iterable[int]
) -> list[int]:
    """Next row of a two-term triangle: row[l] = a[l] prev[l] + b[l] prev[l-1],
    with prev zero outside its range.  The coefficient sequences `a` and `b`
    are zipped with the shifted row, so the row is one entry longer than
    `prev` unless `a` or `b` ends sooner: it ends with the shortest input."""
    return [
        x * p + y * q
        for x, y, p, q in zip(a, b, chain(prev, (0,)), chain((0,), prev))
    ]


def _v_step(prev: Sequence[int], n: int) -> list[int]:
    return two_term_step(prev, count(1, 2), count(2 * n + 1, -2))


@lru_cache(maxsize=1)
def v_row(n: int) -> tuple[int, ...]:
    """Single V row computed with rolling storage; O(n) memory.  The last
    row asked for is kept per process and handed out as one shared tuple,
    so a repeated n (a warm process, or a/b at one n) is not recomputed.

    Lets the diagonal statistic's exact distribution reach n in the low
    thousands, where materializing the whole triangle would not fit.  Rows
    are symmetric, so only the left half, entries 0..m//2 of row m, is
    stepped by `two_term_step` (an `a` as long as the half cuts the step
    short), and the last row is mirrored; `build_V` keeps the full
    recurrence and checks the symmetry independently.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    half: list[int] = [1]
    for m in range(1, n + 1):
        if m % 2 == 0:
            # Row m reaches entry m/2, which reads V(m-1, m/2) = V(m-1, m/2 - 1).
            half.append(half[-1])
        half = two_term_step(
            half, range(1, 2 * len(half), 2), count(2 * m + 1, -2)
        )
    row = (*half, *half[n % 2 - 2 :: -1])
    if sum(row) != 2**n * factorial(n):
        raise RuntimeError(f"V row {n} does not sum to 2**{n} {n}!")
    return row


def build_W(n: int) -> tuple[tuple[int, ...], ...]:
    """Whitney (m=2, second kind) triangle rows 0..n."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    rows: list[tuple[int, ...]] = [(1,)]
    for _ in range(n):
        rows.append(tuple(two_term_step(rows[-1], count(1, 2), repeat(1))))
    for m, row in enumerate(rows):
        if row[0] != 1 or row[-1] != 1:
            raise RuntimeError(f"W row {m} does not start and end with 1")
    return tuple(rows)


def V_explicit(n: int, m: int, w: Sequence[Sequence[int]]) -> int:
    """Alternating-sum form of V(n, m) through the Whitney rows `w` (rows
    0..n or more, as `build_W` returns them):

        V(n, m) = sum_k 2**k k! W(n, k) C(n-k, m) (-1)**(n-k-m)
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got ({n}, {m})")
    total = 0
    for k in range(n - m + 1):
        total += (
            2**k * factorial(k) * w[n][k]
            * comb(n - k, m) * (-1) ** (n - k - m)
        )
    return total


def pgf_B(n: int) -> tuple[int, ...]:
    """Numerators over 2**n n! of the diagonal beta/delta PGF, via the
    c-triangle at z=1:

        sum_k c[n][k](1) t^k (1-t)^(n-k)

    Reversed, it is the alpha/gamma PGF sum_k c[n][k](1) (t-1)^(n-k).
    """
    row = c1_rows(n)[n]
    return tuple(
        sum(
            c * comb(n - k, j - k) * (-1) ** (j - k)
            for k, c in enumerate(row[: j + 1])
        )
        for j in range(n + 1)
    )


# ---------------------------------------------------------------------------
# Truncated bivariate series


@dataclass(frozen=True)
class SeriesReport:
    """``first_mismatch`` is (n, got, want) for the first order n whose
    scaled coefficient 2**n n! [z^n] f differs from the V row, both as integer
    w-rows truncated at w-degree z-order."""

    ok: bool
    orders_checked: int
    first_mismatch: tuple[int, tuple[int, ...], tuple[int, ...]] | None


def bivariate_series_check(zorder: int = 12) -> SeriesReport:
    """Expand f(z, w) = (1-w) e^{(1-w)z/2} / (1 - w e^{(1-w)z}) and compare
    each z^n coefficient with the V-triangle row divided by 2**n n!.

    Every series is held as F_n = 2**n n! [z^n] F, an integer w-polynomial
    truncated at w-degree `zorder`; a product of series is then the binomial
    convolution sum_i C(n, i) F_i G_{n-i}.  The numerator scales to
    N_n = (1-w)^(n+1) and the denominator to D_0 = 1 - w and
    D_n = -2**n w (1-w)^n, so f D = N gives

        f_n = (N_n - sum_{i<n} C(n, i) f_i D_{n-i}) / (1 - w),

    where dividing by 1 - w is a running sum of coefficients.  Truncating in
    w commutes with every step, so the comparison with the V row, whose
    degree n never exceeds the truncation, is exact.
    """
    if zorder < 0:
        raise ValueError(f"need z-order >= 0, got {zorder}")
    worder = zorder
    # (1-w)^k truncated at w-degree worder, for k = 0..zorder + 1.
    powers = [
        [(-1) ** l * comb(k, l) for l in range(min(k, worder) + 1)]
        for k in range(zorder + 2)
    ]
    f: list[list[int]] = []
    tri = build_V(zorder)
    for n in range(zorder + 1):
        acc = powers[n + 1] + [0] * (worder + 1 - len(powers[n + 1]))
        for i in range(n):
            # Subtract C(n, i) f_i D_{n-i}, where D_{n-i} = -2**(n-i) w (1-w)^(n-i).
            scale = comb(n, i) << (n - i)
            for a, x in enumerate(f[i][:worder]):
                if x:
                    for b, y in enumerate(powers[n - i][: worder - a]):
                        acc[a + b + 1] += scale * x * y
        f.append(list(accumulate(acc)))
        want = list(tri[n]) + [0] * (worder - n)
        if f[n] != want:
            return SeriesReport(False, n, (n, tuple(f[n]), tuple(want)))
    return SeriesReport(True, zorder, None)


def pole_constants() -> tuple[Fraction, Fraction, Fraction]:
    """(r(0), r'(0), r''(0)) for r(s) = s / (e^s - 1), via series inversion.

    (e^s - 1)/s has coefficients 1/(k+1)!; inverting the truncation to order
    two gives 1 - s/2 + s^2/12, and the k-th derivative at 0 is k! times the
    s^k coefficient, hence the constants (1, -1/2, 1/6).
    """
    order = 2
    d = [Fraction(1, factorial(k + 1)) for k in range(order + 1)]
    inv = [Fraction(1)]
    for k in range(1, order + 1):
        inv.append(-sum(d[j] * inv[k - j] for j in range(1, k + 1)))
    r0, r1, r2 = (factorial(k) * c for k, c in enumerate(inv))
    return r0, r1, r2
