"""Exact distributions of tableau statistics, and their distance to normal.

Under the uniform distribution on size-n tableaux the AG-row count r is a sum
of independent Bernoulli variables J_k with P(J_k = 1) = 1/(2k), giving the
probability generating function prod_k (z + 2k - 1)/(2k) and harmonic-number
moments.  The beta/delta total is n - r exactly, the alpha/gamma total shares
its law by transposition, and both diagonal statistics follow the type-B
Eulerian law V(n, m)/(2**n n!).  `STATISTICS`, keyed by CLI name, is the one
table of statistics: each entry's `StatVector` field, law and moments.  Every
law is held as integer weights over the one denominator 2**n n! (the
coefficients of prod_k (z + 2k - 1), or the V row), and `Fraction` appears
only where a probability or moment is read out.  Each of the two rows
(`_r_row`, `v_row`) is kept for the last n asked per process as one shared
tuple; every call still wraps it in a fresh, checked `ExactPMF`.
`kolmogorov_distance` reads a law's distance to its normal limit in floats,
from the exact integer CDF, and `chi_square` tests sampled histograms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import erfc, exp, factorial, gamma, inf, lcm, lgamma, log, sqrt
from statistics import NormalDist
from typing import Callable, Sequence

from .polyengine import two_term_step, v_row


@dataclass(frozen=True)
class ExactPMF:
    """Probability weights[i] / denominator on the value offset + i, with
    non-negative integer weights summing to the denominator."""

    offset: int
    weights: tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        if any(w < 0 for w in self.weights):
            raise ValueError("pmf weights must be non-negative")
        if not sum(self.weights) == self.denominator > 0:
            raise ValueError("pmf weights must sum to a positive denominator")

    def support(self) -> range:
        return range(self.offset, self.offset + len(self.weights))

    def p(self, value: int) -> Fraction:
        idx = value - self.offset
        if 0 <= idx < len(self.weights):
            return Fraction(self.weights[idx], self.denominator)
        return Fraction(0)

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.denominator) for w in self.weights)

    def mean(self) -> Fraction:
        return Fraction(self._moment(1), self.denominator)

    def variance(self) -> Fraction:
        d, s1 = self.denominator, self._moment(1)
        return Fraction(d * self._moment(2) - s1 * s1, d * d)

    def _moment(self, k: int) -> int:
        """sum_v v**k weight(v), an integer."""
        return sum(v**k * w for v, w in zip(self.support(), self.weights))


def harmonic_pair(n: int) -> tuple[Fraction, Fraction]:
    """(H_n, H_n^(2)): the harmonic and generalized harmonic numbers, exact,
    from integer sums over L = lcm(1..n) and L**2."""
    big_l = lcm(*range(1, n + 1))
    parts = [big_l // k for k in range(1, n + 1)]
    return Fraction(sum(parts), big_l), Fraction(sum(p * p for p in parts), big_l**2)


def _need_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")


def dist_r(n: int) -> ExactPMF:
    """Law of the AG-row count, via the independent-Bernoulli convolution.

    Scaling the k-th factor by 2k keeps the weights integral,
    w'[v] = (2k - 1) w[v] + w[v - 1], over 2**n n!: one `two_term_step`
    per factor, fed the constant coefficient sequences repeat(2k - 1) and
    repeat(1).  The bernoulli-convolution check evaluates the weights against
    the product itself.
    """
    _need_positive(n)
    return ExactPMF(0, _r_row(n), 2**n * factorial(n))


@lru_cache(maxsize=1)
def _r_row(n: int) -> tuple[int, ...]:
    """The coefficients of prod_{k<=n} (z + 2k - 1), kept for the last n
    as one shared tuple, like `v_row`."""
    weights = [1]
    for k in range(1, n + 1):
        weights = two_term_step(weights, repeat(2 * k - 1), repeat(1))
    return tuple(weights)


def moments_r(n: int) -> tuple[Fraction, Fraction]:
    """(mean, variance) = (H_n/2, H_n/2 - H_n^(2)/4)."""
    _need_positive(n)
    h1, h2 = harmonic_pair(n)
    return h1 / 2, h1 / 2 - h2 / 4


def dist_delta(n: int) -> ExactPMF:
    """Law of the beta/delta total: the reflection n - r."""
    base = dist_r(n)
    return ExactPMF(0, base.weights[::-1], base.denominator)


def moments_delta(n: int) -> tuple[Fraction, Fraction]:
    mean, var = moments_r(n)
    return n - mean, var


def dist_A(n: int) -> ExactPMF:
    """Diagonal alpha/gamma count: V(n, m) / (2**n n!)."""
    _need_positive(n)
    return ExactPMF(0, v_row(n), 2**n * factorial(n))


def moments_A(n: int) -> tuple[Fraction, Fraction]:
    """Mean n/2; variance (n+1)/12 for n >= 2.

    n = 1 is the lone exception: the diagonal holds a single uniform
    symbol-class coin, so the variance is 1/4.  (The closed form arrives via
    a second factorial moment that vanishes identically at n = 1.)
    """
    _need_positive(n)
    if n == 1:
        return Fraction(1, 2), Fraction(1, 4)
    return Fraction(n, 2), Fraction(n + 1, 12)


@dataclass(frozen=True)
class Statistic:
    """A `StatVector` field with its exact law and its (mean, variance)."""

    field: str
    law: Callable[[int], ExactPMF]
    moments: Callable[[int], tuple[Fraction, Fraction]]


#: Each statistic by its CLI name.  gamma shares delta's law by transposition
#: and b shares a's (the V row is symmetric), so they point at that one law.
STATISTICS: dict[str, Statistic] = {
    "r": Statistic("r", dist_r, moments_r),
    "delta": Statistic("delta", dist_delta, moments_delta),
    "gamma": Statistic("gamma", dist_delta, moments_delta),
    "a": Statistic("a_diag", dist_A, moments_A),
    "b": Statistic("b_diag", dist_A, moments_A),
}


def kolmogorov_distance(pmf: ExactPMF, mean: float, sd: float) -> float:
    """Kolmogorov distance from a lattice law to normal(mean, sd), with the
    half-integer continuity correction lattice data needs (the raw lattice
    CDF sits half a point mass away from any continuous curve): at each value
    v of positive weight, the law's CDF below and at v is compared with the
    normal CDF at v - 1/2 and v + 1/2."""
    if not sd > 0:
        raise ValueError("sd must be positive")
    norm = NormalDist()
    total = pmf.denominator
    ks = 0.0
    cum = 0
    for v, w in zip(pmf.support(), pmf.weights):
        if not w:
            continue
        lo = norm.cdf((v - 0.5 - mean) / sd)
        hi = norm.cdf((v + 0.5 - mean) / sd)
        ks = max(ks, abs(cum / total - lo))
        cum += w
        ks = max(ks, abs(cum / total - hi))
    return ks


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square on integer df >= 1 degrees of freedom, in
    closed form (Abramowitz-Stegun 26.4.4-5): with y = x/2, c = (df % 2)/2
    and t_j = e**-y y**(j+c) / Gamma(j+c+1), the tail is erfc(sqrt(y)) (odd
    df) plus t_j over j < df // 2, or 1 minus t_j over j >= df // 2.  It sums
    the side whose terms fall away from t_{df // 2}: none overflows, a huge x
    gives 0.0, and t_{df // 2} is read off logs once e**-y underflows."""
    if df < 1 or not x >= 0:
        raise ValueError(f"need df >= 1 and x >= 0, got df={df}, x={x}")
    if x == inf:
        return 0.0
    y, c, m = x / 2, df % 2 / 2, df // 2
    if y < 700:
        t = exp(-y) * y**c / gamma(c + 1)
        for j in range(1, m + 1):
            t *= y / (j + c)
    else:
        t = exp((m + c) * log(y) - y - lgamma(m + c + 1))
    if y < m:
        lower, j = 0.0, m
        while t > lower * 1e-17:
            lower += t
            j += 1
            t *= y / (j + c)
        return 1.0 - lower
    upper = erfc(sqrt(y)) if c else 0.0
    for j in range(m, 0, -1):
        t *= (j + c) / y
        upper += t
    return upper


def chi_square(bins: Sequence[tuple[int, float]]) -> tuple[float, int, float]:
    """Pearson's (chi2, df, p) over (observed, expected) bins, summed in bin
    order, with every bin expecting under 5 draws pooled into one last bin."""
    kept = [(o, e) for o, e in bins if e >= 5]
    low = [(o, e) for o, e in bins if e < 5]
    if low:
        kept.append((sum(o for o, _ in low), sum(e for _, e in low)))
    chi2 = sum((o - e) ** 2 / e for o, e in kept)
    return chi2, len(kept) - 1, chi2_sf(chi2, len(kept) - 1)
