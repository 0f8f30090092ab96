"""Exact polynomial arithmetic, the three triangles, and series checks."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from staircase_tableaux import polyengine
from staircase_tableaux.polyengine import (
    Polynomial,
    V_explicit,
    bivariate_series_check,
    build_V,
    build_W,
    build_c,
    c1_rows,
    path_weight_oracle,
    pgf_A,
    pgf_A_from_c,
    pgf_B,
    pole_constants,
    v_row,
)

P = Polynomial.of


def poly_strategy():
    return st.lists(
        st.integers(-5, 5), min_size=0, max_size=6
    ).map(lambda cs: P(*cs))


# -------------------------------------------------------------- polynomials


def test_trailing_zeros_are_trimmed():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P(0, 0).coeffs == ()
    assert not Polynomial.zero()
    assert P(0, 0, 3).degree == 2


def test_basic_arithmetic_goldens():
    x = Polynomial.x()
    assert (1 + x) ** 2 == P(1, 2, 1)
    assert (1 - x) * (1 + x) == P(1, 0, -1)
    assert 2 * x - x == x
    assert x - 2 == P(-2, 1)
    assert x**0 == Polynomial.one()


def test_evaluation_uses_exact_fractions():
    p = P(2, 3, 1)
    assert p(5) == 42
    assert p(Fraction(1, 2)) == Fraction(15, 4)
    assert P()(7) == 0


def test_coeff_out_of_range_is_zero():
    p = P(4, 5)
    assert p.coeff(0) == 4 and p.coeff(1) == 5
    assert p.coeff(2) == 0 and p.coeff(-1) == 0


def test_derivative_and_truncation():
    assert P(1, 2, 3).derivative() == P(2, 6)
    assert Polynomial.zero().derivative() == Polynomial.zero()


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        Polynomial.x() ** -1


@given(p=poly_strategy(), q=poly_strategy(), x=st.integers(-4, 4))
@settings(max_examples=120)
def test_evaluation_is_a_ring_homomorphism(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (p - q)(x) == p(x) - q(x)


# ---------------------------------------------------------------- c-triangle


def test_c_boundary_and_middle_rows():
    z = Polynomial.x()
    tri = build_c(3)
    assert tri.entry(0, 0) == Polynomial.one()
    assert tri.rows[1] == (z, z + 1)
    assert tri.rows[2] == (z**2, 2 * z**2 + 4 * z + 2, (z + 1) * (z + 3))
    assert tri.entry(3, 0) == z**3
    assert tri.entry(3, 3) == (z + 1) * (z + 3) * (z + 5)


def test_c_next_to_top_at_one():
    # c[n][n-1](1) = 2**(n-1) n! n
    tri = build_c(6)
    for n in range(1, 7):
        assert tri.entry(n, n - 1)(1) == 2 ** (n - 1) * factorial(n) * n


def test_c_matches_path_weight_oracle():
    tri = build_c(6)
    for m in range(7):
        for l in range(m + 1):
            assert tri.entry(m, l) == path_weight_oracle(m, l)


def test_path_oracle_is_size_guarded():
    with pytest.raises(ValueError):
        path_weight_oracle(9, 0)


_C1_ROWS = [
    [1],
    [1, 2],
    [1, 8, 8],
    [1, 26, 72, 48],
    [1, 80, 464, 768, 384],
]


def test_c_at_one_golden_rows():
    tri = build_c(4)
    got = [[int(p(1)) for p in row] for row in tri.rows]
    assert got == _C1_ROWS


# ------------------------------------------------------------- V, W triangles

_V_ROWS = [
    [1],
    [1, 1],
    [1, 6, 1],
    [1, 23, 23, 1],
    [1, 76, 230, 76, 1],
    [1, 237, 1682, 1682, 237, 1],
    [1, 722, 10543, 23548, 10543, 722, 1],
]

_W_ROWS = [
    [1],
    [1, 1],
    [1, 4, 1],
    [1, 13, 9, 1],
    [1, 40, 58, 16, 1],
]


def test_V_golden_rows():
    tri = build_V(6)
    assert [list(row) for row in tri.rows] == _V_ROWS


def test_W_golden_rows():
    tri = build_W(4)
    assert [list(row) for row in tri.rows] == _W_ROWS


def test_V_rows_are_symmetric_and_sum_to_2n_factorial():
    tri = build_V(25)
    for n, row in enumerate(tri.rows):
        assert list(row) == list(reversed(row))
        assert sum(row) == 2**n * factorial(n)


@pytest.mark.parametrize("n", range(61))
def test_v_row_equals_full_triangle_row(n):
    assert v_row(n) == build_V(n).rows[n]


@pytest.mark.parametrize(
    "name, wrap, build",
    [
        ("_v_step", lambda f: lambda prev, n: [*f(prev, n)[:-1], 2], build_V),
        ("factorial", lambda f: lambda n: f(n) + 1, build_V),
        ("factorial", lambda f: lambda n: f(n) + 1, v_row),
        ("two_term_step", lambda f: lambda *a: [*f(*a)[:-1], 2], build_W),
    ],
    ids=["V-symmetry", "V-sum", "v_row-sum", "W-ends"],
)
def test_triangle_guards_raise_without_assert(monkeypatch, name, wrap, build):
    monkeypatch.setattr(polyengine, name, wrap(getattr(polyengine, name)))
    with pytest.raises(RuntimeError):
        build(4)


def test_V_explicit_matches_recurrence():
    tri = build_V(20)
    for n in range(21):
        for m in range(n + 1):
            assert V_explicit(n, m) == tri.entry(n, m)


def test_c1_rows_are_the_c_triangle_at_one():
    c = build_c(20)
    assert c1_rows(20) == tuple(
        tuple(int(p(1)) for p in row) for row in c.rows
    )


def test_c_at_one_ties_to_W():
    c = build_c(20)
    W = build_W(20)
    for n in range(21):
        for k in range(n + 1):
            assert c.entry(n, k)(1) == 2**k * factorial(k) * W.entry(n, k)


# ------------------------------------------------------------------- PGFs


def test_pgf_A_golden_at_three():
    got = pgf_A(3)
    assert got == P(
        Fraction(1, 48), Fraction(23, 48), Fraction(23, 48), Fraction(1, 48)
    )


@pytest.mark.parametrize("n", range(1, 16))
def test_pgf_A_is_a_probability_generating_function(n):
    p = pgf_A(n)
    assert p(1) == 1
    assert all(c >= 0 for c in p.coeffs)
    assert p.degree == n


@pytest.mark.parametrize("n", range(1, 13))
def test_pgf_two_routes_agree(n):
    assert pgf_A_from_c(n) == pgf_A(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_pgf_B_equals_pgf_A(n):
    assert pgf_B(n) == pgf_A(n)


def test_pgf_mean_from_derivative():
    for n in range(1, 13):
        assert pgf_A(n).derivative()(1) == Fraction(n, 2)


# ------------------------------------------------------------------ series


def test_bivariate_expansion_matches_triangle():
    rep = bivariate_series_check(6)
    assert rep.ok
    assert rep.orders_checked == 6
    assert rep.first_mismatch is None


def test_series_mismatch_is_reported_as_polynomials(monkeypatch):
    real = polyengine.build_V

    def off_by_one(n):
        rows = [list(row) for row in real(n).rows]
        rows[4][1] += 1
        return polyengine.TriangleV(tuple(map(tuple, rows)))

    monkeypatch.setattr(polyengine, "build_V", off_by_one)
    rep = bivariate_series_check(6)
    assert not rep.ok and rep.orders_checked == 4
    n, got, want = rep.first_mismatch
    norm = 2**4 * factorial(4)
    assert n == 4
    assert got == pgf_A(4) and got.coeffs == tuple(
        Fraction(v, norm) for v in real(4).rows[4]
    )
    assert want == got + P(0, Fraction(1, norm))


def test_pole_constants_golden():
    assert pole_constants() == (Fraction(1), Fraction(-1, 2), Fraction(1, 6))
