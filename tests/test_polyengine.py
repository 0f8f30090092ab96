"""Integer polynomial products, the three triangles, and series checks."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count, repeat
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from staircase_tableaux import polyengine
from staircase_tableaux.polyengine import (
    V_explicit,
    bivariate_series_check,
    build_V,
    build_W,
    build_c,
    c1_rows,
    convolve,
    path_weight_oracle,
    pgf_B,
    pole_constants,
    two_term_step,
    v_row,
)


def _at(p, x):
    return sum(c * x**k for k, c in enumerate(p))


coefficients = st.lists(st.integers(-5, 5), min_size=1, max_size=6)


@given(p=coefficients, q=coefficients, x=st.integers(-4, 4))
@settings(max_examples=120)
def test_convolve_is_polynomial_multiplication(p, q, x):
    assert len(convolve(p, q)) == len(p) + len(q) - 1
    assert _at(convolve(p, q), x) == _at(p, x) * _at(q, x)


# ---------------------------------------------------------------- c-triangle


def test_c_boundary_and_middle_rows():
    # Coefficients in z, lowest degree first.
    tri = build_c(3)
    assert tri[0] == ((1,),)
    assert tri[1] == ((0, 1), (1, 1))
    assert tri[2] == ((0, 0, 1), (2, 4, 2), (3, 4, 1))
    assert tri[3][0] == (0, 0, 0, 1)
    assert tri[3][3] == (15, 23, 9, 1)  # (z + 1)(z + 3)(z + 5)


def test_c_next_to_top_at_one():
    # c[n][n-1](1) = 2**(n-1) n! n
    tri = build_c(6)
    for n in range(1, 7):
        assert sum(tri[n][n - 1]) == 2 ** (n - 1) * factorial(n) * n


def test_c_matches_path_weight_oracle():
    tri = build_c(6)
    for m in range(7):
        for l in range(m + 1):
            assert tri[m][l] == path_weight_oracle(m, l)


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
    got = [[sum(p) for p in row] for row in tri]
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
    assert [list(row) for row in tri] == _V_ROWS


def test_W_golden_rows():
    tri = build_W(4)
    assert [list(row) for row in tri] == _W_ROWS


def test_V_rows_are_symmetric_and_sum_to_2n_factorial():
    tri = build_V(25)
    for n, row in enumerate(tri):
        assert list(row) == list(reversed(row))
        assert sum(row) == 2**n * factorial(n)


def test_two_term_step_takes_coefficient_sequences():
    # row[l] = (2l + 1) prev[l] + 3 prev[l-1] on prev = (1, 2, 5).
    assert two_term_step((1, 2, 5), range(1, 100, 2), repeat(3)) == [1, 9, 31, 15]
    assert two_term_step((1, 2, 5), count(1, 2), count(0, 2)) == [1, 8, 33, 30]


def test_two_term_step_ends_with_the_shortest_input():
    # The half-row step of `v_row` passes an `a` one entry shorter than the
    # full step and relies on the row stopping there.
    full = two_term_step((1, 2, 5), range(1, 100, 2), repeat(3))
    assert two_term_step((1, 2, 5), range(1, 6, 2), repeat(3)) == full[:3]
    assert two_term_step((1, 2, 5), count(1, 2), repeat(3, 2)) == full[:2]
    assert two_term_step((1, 2, 5), (), repeat(3)) == []


@pytest.mark.parametrize("n", [*range(61), 199, 200])
def test_v_row_equals_full_triangle_row(n):
    assert v_row(n) == build_V(n)[n]


def test_v_row_prefix_sums_are_rounded_irwin_hall_sums():
    # sum_{i<=j} V(n, i) = sum_{i<=j} (-1)**i C(n, i) (2j+1-2i)**n: the
    # type-B analogue of Laplace's Irwin-Hall formula for Eulerian numbers,
    # sharing nothing with the recurrence.
    for n in range(61):
        prefix = list(accumulate(v_row(n)))
        assert prefix == [
            sum(
                (-1) ** i * comb(n, i) * (2 * j + 1 - 2 * i) ** n
                for i in range(j + 1)
            )
            for j in range(n + 1)
        ]


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
    tri, w = build_V(20), build_W(20)
    for n in range(21):
        for m in range(n + 1):
            assert V_explicit(n, m, w) == tri[n][m]


def test_c1_rows_are_the_c_triangle_at_one():
    c = build_c(20)
    assert c1_rows(20) == tuple(tuple(sum(p) for p in row) for row in c)


def test_c_at_one_ties_to_W():
    c = build_c(20)
    W = build_W(20)
    for n in range(21):
        for k in range(n + 1):
            assert sum(c[n][k]) == 2**k * factorial(k) * W[n][k]


# ------------------------------------------------------------------- PGFs
# Each PGF is its integer numerators over 2**n n!; the diagonal alpha/gamma
# one is the V row itself.


def test_pgf_A_golden_at_three():
    # (1 + 23 t + 23 t^2 + t^3) / 48
    assert v_row(3) == pgf_B(3) == (1, 23, 23, 1)
    assert sum(v_row(3)) == 48


@pytest.mark.parametrize("n", range(1, 16))
def test_pgf_A_is_a_probability_generating_function(n):
    for row in (v_row(n), pgf_B(n)):
        assert sum(row) == 2**n * factorial(n)
        assert all(c >= 0 for c in row)
        assert len(row) == n + 1 and row[-1] != 0


@pytest.mark.parametrize("n", range(1, 13))
def test_pgf_two_routes_agree(n):
    # sum_k c[n][k](1) (t-1)^(n-k) = t^n pgf_B(1/t): the alpha/gamma route.
    assert pgf_B(n)[::-1] == v_row(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_pgf_B_equals_pgf_A(n):
    assert pgf_B(n) == v_row(n)


def test_pgf_mean_from_derivative():
    # PGF'(1) = sum_m m V(n, m) / (2**n n!) = n/2.
    for n in range(1, 13):
        row = v_row(n)
        assert 2 * sum(m * v for m, v in enumerate(row)) == n * sum(row)


# ------------------------------------------------------------------ series


def test_bivariate_expansion_matches_triangle():
    rep = bivariate_series_check(6)
    assert rep.ok
    assert rep.orders_checked == 6
    assert rep.first_mismatch is None


def test_series_mismatch_is_reported_as_polynomials(monkeypatch):
    # The mismatch is (n, got, want) as integer w-rows scaled by 2**n n!,
    # truncated at the z-order.
    real = polyengine.build_V

    def off_by_one(n):
        rows = [list(row) for row in real(n)]
        rows[4][1] += 1
        return tuple(map(tuple, rows))

    monkeypatch.setattr(polyengine, "build_V", off_by_one)
    rep = bivariate_series_check(6)
    assert not rep.ok and rep.orders_checked == 4
    n, got, want = rep.first_mismatch
    assert n == 4
    assert got == v_row(4) + (0, 0) == real(4)[4] + (0, 0)
    assert want == (1, 77, 230, 76, 1, 0, 0)


def test_pole_constants_golden():
    assert pole_constants() == (Fraction(1), Fraction(-1, 2), Fraction(1, 6))
