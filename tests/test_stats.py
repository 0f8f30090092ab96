"""Exact laws of the tableau statistics and the lattice CLT diagnostic."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from staircase_tableaux import stats
from staircase_tableaux.stats import (
    STATISTICS,
    ExactPMF,
    chi2_sf,
    clt_check,
    dist_A,
    dist_delta,
    dist_r,
    draw_integers,
    harmonic_pair,
    kolmogorov_distance,
    moments_A,
    moments_delta,
    moments_r,
)


# ------------------------------------------------------------------- r law


def test_dist_r_weights_small_goldens():
    # Numerators over 2**n n!: (1 + z)/2, (3 + 4z + z^2)/8 and
    # (1 + z)(3 + z)(5 + z)/48.
    assert dist_r(1).weights == (1, 1)
    assert dist_r(2).weights == (3, 4, 1)
    assert dist_r(3).weights == (15, 23, 9, 1)


def test_dist_r_two_golden():
    d = dist_r(2)
    assert d.offset == 0
    assert d.probs == (Fraction(3, 8), Fraction(1, 2), Fraction(1, 8))


@given(n=st.integers(1, 40), z=st.integers(-60, 60))
@settings(max_examples=40, deadline=None)
def test_bernoulli_convolution_equals_pgf_coefficients(n, z):
    # dist_r convolves the Bernoulli factors; its weights, numerators over
    # 2**n n!, are the coefficients of prod_k (z + 2k - 1), read at z.
    d = dist_r(n)
    assert d.offset == 0 and len(d.weights) == n + 1
    assert sum(w * z**v for v, w in enumerate(d.weights)) == math.prod(
        z + 2 * k - 1 for k in range(1, n + 1)
    )
    assert d.denominator == 2**n * math.factorial(n)


def test_moments_r_golden_and_formula():
    assert moments_r(3) == (Fraction(11, 12), Fraction(83, 144))
    for n in (1, 2, 5, 20, 50):
        h1, h2 = harmonic_pair(n)
        assert moments_r(n) == (h1 / 2, h1 / 2 - h2 / 4)


def test_harmonic_pair_small_values():
    assert harmonic_pair(4) == (Fraction(25, 12), Fraction(205, 144))


@pytest.mark.parametrize("n", [0, 1, 2, 13, 50, 300])
def test_harmonic_pair_is_the_sum_of_fractions(n):
    h1 = sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))
    h2 = sum((Fraction(1, k * k) for k in range(1, n + 1)), Fraction(0))
    assert harmonic_pair(n) == (h1, h2)
    assert all(type(h) is Fraction for h in harmonic_pair(n))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 30])
def test_moments_match_pmf(n):
    d = dist_r(n)
    mean, var = moments_r(n)
    assert d.mean() == mean
    assert d.variance() == var


# --------------------------------------------------------- delta and gamma


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
def test_delta_is_r_reflected(n):
    d, r = dist_delta(n), dist_r(n)
    assert d.support() == r.support()
    for v in d.support():
        assert d.p(v) == r.p(n - v)


def test_gamma_shares_delta_law():
    for n in (1, 2, 5, 9):
        assert STATISTICS["gamma"].law(n).probs == dist_delta(n).probs


def test_moments_delta_formula():
    for n in (1, 2, 10, 50):
        mean_r, var_r = moments_r(n)
        mean_d, var_d = moments_delta(n)
        assert mean_d == n - mean_r
        assert var_d == var_r
        assert dist_delta(n).mean() == mean_d


# ------------------------------------------------------------ diagonal law


def test_dist_A_three_golden():
    assert dist_A(3).probs == (
        Fraction(1, 48),
        Fraction(23, 48),
        Fraction(23, 48),
        Fraction(1, 48),
    )


def test_dist_B_equals_dist_A():
    for n in (1, 2, 6):
        assert STATISTICS["b"].law(n).probs == dist_A(n).probs


def test_moments_A_one_is_the_exception():
    assert moments_A(1) == (Fraction(1, 2), Fraction(1, 4))
    assert dist_A(1).variance() == Fraction(1, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 25, 40])
def test_moments_A_match_pmf(n):
    d = dist_A(n)
    mean, var = moments_A(n)
    assert d.mean() == mean
    assert d.variance() == var
    if n >= 2:
        assert var == Fraction(n + 1, 12)


def _central_moment(pmf, k, mean):
    """sum_v (v - mean)**k p(v), exactly."""
    total = sum((v - mean) ** k * w for v, w in zip(pmf.support(), pmf.weights))
    return total / pmf.denominator


def test_diagonal_cumulants_are_irwin_hall_plus_sheppard():
    # kappa_2 = n/12 + 1/12 and kappa_4 = -n/120 - 1/120: the Irwin-Hall
    # cumulants plus Sheppard's corrections for rounding.  kappa_4 takes
    # this form only from n = 4 on.
    for n in range(1, 61):
        d = dist_A(n)
        m2, m4 = (_central_moment(d, k, Fraction(n, 2)) for k in (2, 4))
        if n >= 2:
            assert m2 == Fraction(n + 1, 12)
        assert (m4 - 3 * m2**2 == Fraction(-(n + 1), 120)) == (n >= 4), n


# ----------------------------------------------------------------- sampling


def test_exact_pmf_rejects_bad_mass():
    for weights, denominator in (((3, 2), 6), ((-1, 2), 1), ((0, 0), 0)):
        with pytest.raises(ValueError):
            ExactPMF(0, weights, denominator)


def test_exact_pmf_reads_weights_over_the_denominator():
    d = ExactPMF(2, (1, 3, 2), 6)
    assert d.probs == (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
    assert d.p(3) == Fraction(1, 2) and d.p(5) == 0
    assert d.mean() == Fraction(19, 6)
    assert d.variance() == Fraction(17, 36)


def test_seeded_draw_streams_are_pinned():
    # A seed must keep producing the same draws from each law.
    assert dist_A(50).sample(8, 7) == [28, 23, 22, 29, 26, 27, 27, 23]
    assert dist_r(9).sample(8, 7) == [1, 1, 1, 3, 0, 0, 2, 0]
    assert dist_delta(9).sample(8, 7) == [8, 7, 8, 9, 6, 6, 8, 6]


def test_draws_are_deterministic_and_in_support():
    d = dist_r(4)
    a = d.sample(500, seed=11)
    b = d.sample(500, seed=11)
    assert a == b
    assert set(a) <= set(d.support())
    assert d.sample(500, seed=12) != a


def test_draw_integers_respects_offset():
    values = draw_integers((1, 1, 2), 2000, seed=3, offset=5)
    assert set(values) <= {5, 6, 7}
    assert values.count(7) > values.count(5)


@pytest.mark.parametrize("weights", [[], [2, -1], [0, 0]])
def test_draw_integers_rejects_weights_without_a_distribution(weights):
    with pytest.raises(ValueError, match="weights must"):
        draw_integers(weights, 5, 0)


@pytest.mark.parametrize(
    "draw, count",
    [
        (lambda count: draw_integers((1, 2), count, 0), -3),
        (lambda count: dist_r(3).sample(count, 1), -2),
    ],
    ids=["draw_integers", "ExactPMF.sample"],
)
def test_negative_draw_counts_are_refused(draw, count):
    with pytest.raises(ValueError, match=f"^need count >= 0, got {count}$"):
        draw(count)


@pytest.mark.parametrize(
    "draw",
    [
        lambda seed: draw_integers((1, 2), 5, seed),
        lambda seed: dist_r(9).sample(5, seed),
    ],
    ids=["draw_integers", "ExactPMF.sample"],
)
def test_negative_seeds_are_refused_before_any_draw(draw, monkeypatch):
    # `random.Random` seeds with |seed|, so -3 would draw the stream of 3.
    monkeypatch.setattr(
        stats.random, "Random", lambda seed: pytest.fail("a stream was seeded")
    )
    with pytest.raises(ValueError, match=r"^need seed >= 0, got -3$"):
        draw(-3)


def test_zero_draws_are_an_empty_list():
    assert draw_integers((1, 2), 0, 0) == dist_r(3).sample(0, 1) == []


def test_draw_frequencies_track_the_pmf():
    d = dist_r(3)
    n_draws = 20_000
    draws = d.sample(n_draws, seed=99)
    for v in d.support():
        assert abs(draws.count(v) / n_draws - float(d.p(v))) < 0.02


# ------------------------------------------------------------- CLT check


def test_clt_check_input_validation():
    good = [0, 1] * 5000
    with pytest.raises(ValueError):
        clt_check(good[:100], 0.5, 0.5)
    with pytest.raises(ValueError):
        clt_check(good, 0.5, 0.0)
    with pytest.raises(ValueError):
        clt_check([0.5] * 10**4, 0.5, 0.5)


def test_clt_check_accepts_a_near_normal_lattice_law():
    d = dist_A(80)
    samples = d.sample(20_000, seed=2024)
    mean = float(d.mean())
    sd = math.sqrt(float(d.variance()))
    assert clt_check(samples, mean, sd) < 0.03


def test_clt_check_flags_a_displaced_reference():
    d = dist_A(80)
    samples = d.sample(20_000, seed=2024)
    mean = float(d.mean())
    sd = math.sqrt(float(d.variance()))
    assert clt_check(samples, mean + 2 * sd, sd) > 0.3


def _normal_limit_A(n):
    mean, var = moments_A(n)
    return float(mean), math.sqrt(var)


@pytest.mark.parametrize(
    "n, expected",
    [
        (20, 0.004787195996421634),
        (50, 0.0019415658478180303),
        (200, 0.0004904087663805401),
    ],
)
def test_kolmogorov_distance_of_the_diagonal_law_is_pinned(n, expected):
    assert kolmogorov_distance(dist_A(n), *_normal_limit_A(n)) == expected


def test_clt_check_is_the_distance_of_the_empirical_law():
    samples = dist_A(20).sample(10**4, 20250823)
    mean, sd = _normal_limit_A(20)
    hist = Counter(samples)
    empirical = ExactPMF(
        min(hist),
        tuple(hist[v] for v in range(min(hist), max(hist) + 1)),
        len(samples),
    )
    assert clt_check(samples, mean, sd) == 0.004728493055636718
    assert clt_check(samples, mean, sd) == kolmogorov_distance(empirical, mean, sd)


@pytest.mark.parametrize("sd", [0.0, -1.0, float("nan")])
def test_kolmogorov_distance_refuses_a_non_positive_sd(sd):
    with pytest.raises(ValueError, match="sd must be positive"):
        kolmogorov_distance(dist_A(5), 2.5, sd)


# ------------------------------------------------------- chi-square tail

_CHI2_DFS = [*range(1, 41), 100, 383, 999]


def _chi2_grid(df):
    """400 values of x from 0 to 3 df + 30."""
    return [(3 * df + 30) * i / 399 for i in range(400)]


@pytest.mark.parametrize("df", _CHI2_DFS)
def test_chi2_sf_matches_scipy_where_the_tail_exceeds_1e_6(df):
    chi2 = pytest.importorskip("scipy.stats").chi2
    xs = _chi2_grid(df)
    for x, want in zip(xs, chi2.sf(xs, df)):
        if want > 1e-6:
            assert chi2_sf(x, df) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("df", [1500, 2000, 5000])
def test_chi2_sf_reads_a_large_df_off_logs_past_the_underflow(df):
    # From y = x/2 = 700 on, e**-y is no normal float and the first term
    # comes from logs, where rounding grows with y (2e-12 at df = 5000).
    chi2 = pytest.importorskip("scipy.stats").chi2
    xs = [x for x in _chi2_grid(df) if x >= 1400]
    for x, want in zip(xs, chi2.sf(xs, df)):
        if want > 1e-6:
            assert chi2_sf(x, df) == pytest.approx(want, rel=1e-11, abs=0)


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 7.5, 40.0, 300.0])
def test_chi2_sf_on_one_and_two_df_is_erfc_and_exp(x):
    assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-14)
    assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-14)


@pytest.mark.parametrize("df", _CHI2_DFS)
def test_chi2_sf_is_one_at_zero_and_never_increases(df):
    values = [chi2_sf(x, df) for x in _chi2_grid(df)]
    assert values[0] == 1.0
    assert all(b <= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("x, df", [(1e5, 383), (1e7, 1), (1e300, 4), (math.inf, 3)])
def test_chi2_sf_of_a_huge_statistic_is_zero(x, df):
    # A running term in linear space overflows at (1e5, 383), and a clamped
    # inf would read 1.0: a gross sampler defect would then pass c10.
    assert chi2_sf(x, df) == 0.0


@pytest.mark.parametrize("x, df", [(1.0, 0), (-1.0, 3), (math.nan, 3)])
def test_chi2_sf_refuses_df_below_one_and_x_negative_or_nan(x, df):
    with pytest.raises(ValueError, match=r"^need df >= 1 and x >= 0"):
        chi2_sf(x, df)
