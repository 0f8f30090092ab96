"""Exact polynomial machinery: coefficient triangles and series identities.

Everything here is exact and no floating point appears.  The triangles that
requests and identities read are built in plain integers; `Fraction`
coefficients (`Polynomial`) appear only where a result is a genuine rational
(the PGFs, a series mismatch) or where the c-triangle is compared polynomial
by polynomial with its path oracle.  The module hosts three interlocking
triangles:

* c-triangle: polynomials c[m][l](z) with c[0][0] = 1 and
      c[m+1][l] = (z + 2l) c[m][l] + (z + 2l - 1) c[m][l-1]
  (out-of-range entries are zero).  Equivalently c[m][l] is a sum over
  lattice paths: an SW step from level l carries weight z + 2l, an SE step
  weight z + 2l + 1, and c[m][l] collects paths with l SE steps among m.
  At z = 1 the rows are integers, c1[m+1][l] = (2l+1) c1[m][l] +
  2l c1[m][l-1] (`c1_rows`); the `Polynomial` triangle (`build_c`) is kept
  for the comparison with the path oracle.
* V-triangle: type-B Eulerian numbers (OEIS A060187), V(n, 0) = 1 and
      V(n, m) = (2m + 1) V(n-1, m) + (2(n - m) + 1) V(n-1, m-1),
  symmetric rows summing to 2**n n!.  `build_V` runs the full recurrence
  and checks the symmetry; `v_row` steps only the left half and mirrors it.
* W-triangle: Whitney numbers of the second kind for m=2 (OEIS A039755),
      W(n, k) = (2k + 1) W(n-1, k) + W(n-1, k-1),
  tied to the c-triangle by c[n][k](1) = 2**k k! W(n, k).

On top sit the probability generating functions for the diagonal statistics
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
from itertools import accumulate, combinations
from math import comb, factorial
from typing import Callable, Sequence

Scalar = Fraction | int


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial, lowest degree first, exact coefficients."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, *coeffs: Scalar) -> Polynomial:
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def zero(cls) -> Polynomial:
        return cls(())

    @classmethod
    def one(cls) -> Polynomial:
        return cls.of(1)

    @classmethod
    def x(cls) -> Polynomial:
        return cls.of(0, 1)

    def __post_init__(self) -> None:
        cs = tuple(Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = Polynomial.of(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = Polynomial.of(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> Polynomial:
        return Polynomial.of(other) + (-self)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if not isinstance(other, Polynomial):
            return Polynomial(tuple(Fraction(other) * c for c in self.coeffs))
        if not self or not other:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Polynomial:
        if k < 0:
            raise ValueError("negative powers unsupported")
        result = Polynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def derivative(self) -> Polynomial:
        return Polynomial(
            tuple(k * c for k, c in enumerate(self.coeffs) if k > 0)
        )


@dataclass(frozen=True)
class TriangleC:
    rows: tuple[tuple[Polynomial, ...], ...]

    def entry(self, m: int, l: int) -> Polynomial:
        return self.rows[m][l]


@dataclass(frozen=True)
class TriangleV:
    rows: tuple[tuple[int, ...], ...]

    def entry(self, n: int, m: int) -> int:
        return self.rows[n][m]


@dataclass(frozen=True)
class TriangleW:
    rows: tuple[tuple[int, ...], ...]

    def entry(self, n: int, k: int) -> int:
        return self.rows[n][k]


def build_c(n: int) -> TriangleC:
    """c-triangle rows 0..n from the two-term recurrence."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    z = Polynomial.x()
    rows: list[tuple[Polynomial, ...]] = [(Polynomial.one(),)]
    for m in range(1, n + 1):
        prev = rows[-1]
        row = []
        for l in range(m + 1):
            acc = Polynomial.zero()
            if l < m:
                acc = acc + (z + 2 * l) * prev[l]
            if l >= 1:
                acc = acc + (z + 2 * l - 1) * prev[l - 1]
            row.append(acc)
        rows.append(tuple(row))
    tri = TriangleC(tuple(rows))
    # Boundary sanity: pure-SW and pure-SE paths have product form.
    prod = Polynomial.one()
    for m in range(n + 1):
        if tri.entry(m, 0) != z**m or tri.entry(m, m) != prod:
            raise RuntimeError(f"c row {m} breaks its product-form boundary")
        prod = prod * (z + 2 * m + 1)
    return tri


def c1_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n of the c-triangle at z = 1, in integers:
    c1[m+1][l] = (2l+1) c1[m][l] + 2l c1[m][l-1]."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    rows: list[tuple[int, ...]] = [(1,)]
    for _ in range(n):
        rows.append(
            tuple(two_term_step(rows[-1], lambda l: 2 * l + 1, lambda l: 2 * l))
        )
    return tuple(rows)


def path_weight_oracle(m: int, l: int) -> Polynomial:
    """c[m][l] summed path by path, independent of the recurrence.

    Walks every SW/SE path with l SE steps among m, multiplying step weights
    (SW from level h: z + 2h; SE from level h: z + 2h + 1).  Exponential in m;
    guarded to m <= 8.
    """
    if not 0 <= l <= m:
        raise ValueError(f"need 0 <= l <= m, got ({m}, {l})")
    if m > 8:
        raise ValueError("path oracle is exponential; use m <= 8")
    z = Polynomial.x()
    total = Polynomial.zero()
    for se_steps in combinations(range(m), l):
        se = set(se_steps)
        h = 0
        prod = Polynomial.one()
        for step in range(m):
            if step in se:
                prod = prod * (z + 2 * h + 1)
                h += 1
            else:
                prod = prod * (z + 2 * h)
        total = total + prod
    return total


def build_V(n: int) -> TriangleV:
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
    return TriangleV(tuple(rows))


def two_term_step(
    prev: Sequence[int], a: Callable[[int], int], b: Callable[[int], int]
) -> list[int]:
    """Next row of a two-term triangle: row[l] = a(l) prev[l] + b(l) prev[l-1],
    with prev zero outside its range, so the row is one entry longer."""
    padded = [0, *prev, 0]
    return [a(l) * padded[l + 1] + b(l) * padded[l] for l in range(len(prev) + 1)]


def _v_step(prev: Sequence[int], n: int) -> list[int]:
    return two_term_step(prev, lambda m: 2 * m + 1, lambda m: 2 * (n - m) + 1)


def v_row(n: int) -> tuple[int, ...]:
    """Single V row computed with rolling storage; O(n) memory.

    Lets the diagonal statistic's exact distribution reach n in the low
    thousands, where materializing the whole triangle would not fit.  Rows
    are symmetric, so only the left half, entries 0..m//2 of row m, is
    stepped, and the last row is mirrored; `build_V` keeps the full
    recurrence and checks the symmetry independently.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    half: list[int] = [1]
    for m in range(1, n + 1):
        if m % 2 == 0:
            # Row m reaches entry m/2, which reads V(m-1, m/2) = V(m-1, m/2 - 1).
            half.append(half[-1])
        prev = [0, *half]
        half = [
            (2 * l + 1) * prev[l + 1] + (2 * (m - l) + 1) * prev[l]
            for l in range(len(half))
        ]
    row = (*half, *half[n % 2 - 2 :: -1])
    if sum(row) != 2**n * factorial(n):
        raise RuntimeError(f"V row {n} does not sum to 2**{n} {n}!")
    return row


def build_W(n: int) -> TriangleW:
    """Whitney (m=2, second kind) triangle rows 0..n."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    rows: list[tuple[int, ...]] = [(1,)]
    for _ in range(n):
        rows.append(tuple(two_term_step(rows[-1], lambda k: 2 * k + 1, lambda k: 1)))
    for m, row in enumerate(rows):
        if row[0] != 1 or row[-1] != 1:
            raise RuntimeError(f"W row {m} does not start and end with 1")
    return TriangleW(tuple(rows))


def V_explicit(n: int, m: int) -> int:
    """Alternating-sum form of V(n, m) through the Whitney numbers:

        V(n, m) = sum_k 2**k k! W(n, k) C(n-k, m) (-1)**(n-k-m)
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got ({n}, {m})")
    w = build_W(n)
    total = 0
    for k in range(n + 1):
        if n - k < m:
            continue
        total += (
            2**k * factorial(k) * w.entry(n, k)
            * comb(n - k, m) * (-1) ** (n - k - m)
        )
    return total


def pgf_A(n: int) -> Polynomial:
    """PGF of the diagonal alpha/gamma count: sum_m V(n,m) t^m / (2**n n!)."""
    return _over_2n_factorial(n, v_row(n))


def pgf_A_from_c(n: int) -> Polynomial:
    """Second route to the same PGF, through the c-triangle at z=1:

        pgf_A(n) = sum_k c[n][k](1) (t-1)^(n-k) / (2**n n!)

    Expanding the (t-1) powers reproduces V_explicit term by term once
    c[n][k](1) is identified with 2**k k! W(n, k).
    """
    row = c1_rows(n)[n]
    return _over_2n_factorial(
        n,
        [
            sum(
                c * comb(n - k, j) * (-1) ** (n - k - j)
                for k, c in enumerate(row[: n - j + 1])
            )
            for j in range(n + 1)
        ],
    )


def pgf_B(n: int) -> Polynomial:
    """PGF of the diagonal beta/delta count via the c-triangle at z=1:

        pgf_B(n) = sum_k c[n][k](1) t^k (1-t)^(n-k) / (2**n n!)
    """
    row = c1_rows(n)[n]
    return _over_2n_factorial(
        n,
        [
            sum(
                c * comb(n - k, j - k) * (-1) ** (j - k)
                for k, c in enumerate(row[: j + 1])
            )
            for j in range(n + 1)
        ],
    )


def _over_2n_factorial(n: int, coeffs: Sequence[int]) -> Polynomial:
    norm = 2**n * factorial(n)
    return Polynomial(tuple(Fraction(c, norm) for c in coeffs))


# ---------------------------------------------------------------------------
# Truncated bivariate series


@dataclass(frozen=True)
class SeriesReport:
    ok: bool
    orders_checked: int
    first_mismatch: tuple[int, Polynomial, Polynomial] | None


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
        want = list(tri.rows[n]) + [0] * (worder - n)
        if f[n] != want:
            got = _over_2n_factorial(n, f[n])
            return SeriesReport(False, n, (n, got, _over_2n_factorial(n, want)))
    return SeriesReport(True, zorder, None)


def pole_constants() -> tuple[Fraction, Fraction, Fraction]:
    """(r(0), r'(0), r''(0)) for r(s) = s / (e^s - 1), via series inversion.

    (e^s - 1)/s has coefficients 1/(k+1)!; inverting the truncation to order
    two gives 1 - s/2 + s^2/12, hence the constants (1, -1/2, 1/6).
    """
    order = 2
    d = [Fraction(1, factorial(k + 1)) for k in range(order + 1)]
    inv = [Fraction(1)]
    for k in range(1, order + 1):
        inv.append(-sum(d[j] * inv[k - j] for j in range(1, k + 1)))
    series = Polynomial(tuple(inv))
    d1 = series.derivative()
    return series(0), d1(0), d1.derivative()(0)
