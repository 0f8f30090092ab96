"""Open-boundary exclusion chain vs tableau partition functions."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from staircase_tableaux.asep import (
    ASEPChain,
    ASEPParams,
    PARAMETER_GRID,
    ReducibleChainError,
    build_chain,
    enumerated_partition_functions,
    partition_functions,
    state_bits,
    stationary,
    verify_steady_state,
)

GENERIC = ASEPParams.from_strings("1/3", "2/3", "1/5", "2/5", "1/7", "3/7")


# ---------------------------------------------------------------- parameters


def test_params_coerce_to_fractions():
    p = ASEPParams.from_strings("1/2", "0.25", "1", "2/5", "1/7", "3/7")
    assert p.beta == Fraction(1, 4)
    assert p.gamma == Fraction(1)


@pytest.mark.parametrize("bad", ["-1/2", "3/2", "2"])
def test_params_outside_unit_interval_rejected(bad):
    with pytest.raises(ValueError):
        ASEPParams.from_strings(bad, "1/2", "1/2", "1/2", "1/2", "1/2")


def test_zero_rate_is_storable_but_not_strictly_positive():
    p = ASEPParams.from_strings("0", "1/2", "1/2", "1/2", "1/2", "1/2")
    assert not p.strictly_positive()
    assert GENERIC.strictly_positive()


def test_state_bits_reads_leftmost_site_first():
    assert state_bits(5, 3) == "101"
    assert state_bits(0, 4) == "0000"
    assert state_bits(1, 4) == "0001"


# -------------------------------------------------------------------- chain


@pytest.mark.parametrize("params", PARAMETER_GRID)
def test_rows_sum_to_one_exactly(params):
    for n in (1, 2, 4):
        chain = build_chain(n, params)
        for row in chain.matrix:
            assert sum(row) == 1


def test_single_site_transition_probabilities():
    chain = build_chain(1, GENERIC)
    half = Fraction(1, 2)
    # state 0: fill from the left (alpha) or from the right (delta)
    assert chain.matrix[0][1] == half * (GENERIC.alpha + GENERIC.delta)
    # state 1: drain to the left (gamma) or over the right edge (beta)
    assert chain.matrix[1][0] == half * (GENERIC.gamma + GENERIC.beta)


def test_bond_hops_use_u_and_q():
    chain = build_chain(2, GENERIC)
    third = Fraction(1, 3)
    s10, s01 = 0b10, 0b01
    assert chain.matrix[s10][s01] == third * GENERIC.u
    assert chain.matrix[s01][s10] == third * GENERIC.q


def test_chain_size_guards():
    with pytest.raises(ValueError):
        build_chain(0, GENERIC)
    with pytest.raises(ValueError):
        build_chain(9, GENERIC)
    with pytest.raises(ValueError):
        build_chain(13, GENERIC)


def test_to_numpy_is_row_stochastic():
    m = build_chain(3, GENERIC).to_numpy()
    assert m.shape == (8, 8)
    assert np.allclose(m.sum(axis=1), 1.0)


def test_to_numpy_converts_once_and_is_read_only():
    chain = build_chain(3, GENERIC)
    m = chain.to_numpy()
    assert chain.to_numpy() is m
    with pytest.raises(ValueError):
        m[0, 0] = 0.0


# --------------------------------------------------------------- stationary


def test_single_site_closed_form():
    p = GENERIC
    pi = stationary(build_chain(1, p), exact=True)
    s = p.alpha + p.beta + p.gamma + p.delta
    assert pi == [(p.beta + p.gamma) / s, (p.alpha + p.delta) / s]


def test_exact_and_float_solvers_agree():
    chain = build_chain(3, GENERIC)
    exact = stationary(chain, exact=True)
    approx = stationary(chain)
    assert max(abs(float(e) - a) for e, a in zip(exact, approx)) < 1e-12
    assert sum(exact) == 1


def test_singular_exact_system_is_refused():
    # Every state absorbing: no unique stationary law, although every rate is
    # positive.  The refusal must not depend on `assert`.
    identity = tuple(
        tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)
    )
    with pytest.raises(ReducibleChainError):
        stationary(ASEPChain(2, GENERIC, identity), exact=True)


def test_zero_parameter_refuses_to_solve():
    p = ASEPParams.from_strings("0", "1/2", "1/2", "1/2", "1/2", "1/2")
    chain = build_chain(2, p)
    with pytest.raises(ReducibleChainError):
        stationary(chain)


# --------------------------------------------------------- partition sums


def test_size_one_partition_functions():
    total, by_type = partition_functions(1, GENERIC)
    assert by_type["1"] == GENERIC.alpha + GENERIC.delta
    assert by_type["0"] == GENERIC.beta + GENERIC.gamma
    assert total == sum(by_type.values())


def test_all_ones_total_is_the_tableau_count():
    ones = ASEPParams.from_strings("1", "1", "1", "1", "1", "1")
    total, by_type = partition_functions(2, ones)
    assert total == 32
    assert sum(by_type.values()) == 32


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_per_type_sums_partition_the_total(n):
    total, by_type = partition_functions(n, GENERIC)
    assert sum(by_type.values()) == total
    assert len(by_type) == 2**n


def test_partition_functions_size_guard():
    with pytest.raises(ValueError):
        partition_functions(9, GENERIC)
    with pytest.raises(ValueError):
        partition_functions(0, GENERIC)
    with pytest.raises(ValueError):
        enumerated_partition_functions(7, GENERIC)


@pytest.mark.parametrize("boundary", [("2/3", "1/5", "3/7", "1/9"), ("1",) * 4])
def test_closed_form_at_q_equal_u_equal_one(boundary):
    # Z_n = prod_{j<n} (a + b + g + d + j (a + g)(b + d)) at q = u = 1
    # (Corteel, Stanley, Stanton, Williams, Trans. AMS 2012); all ones
    # gives the tableau count 4**n n!.
    p = ASEPParams.from_strings(*boundary, "1", "1")
    expected = Fraction(1)
    for n in range(1, 9):
        expected *= (
            p.alpha + p.beta + p.gamma + p.delta
            + (n - 1) * (p.alpha + p.gamma) * (p.beta + p.delta)
        )
        assert partition_functions(n, p)[0] == expected


@pytest.mark.parametrize(
    "rates",
    [
        ("0", "1/2", "1/3", "1/4", "1/5", "1/6"),
        ("1/2", "1/3", "0", "0", "0", "1/4"),
        ("1/2", "0", "1/3", "1/5", "1/7", "0"),
        ("0", "0", "0", "0", "1/2", "1/3"),
        ("1/3", "2/3", "1/5", "2/5", "1/7", "3/7"),
    ],
    ids=["alpha0", "gamma-delta-q0", "beta-u0", "boundaries0", "generic"],
)
def test_dp_equals_enumeration_oracle(rates):
    p = ASEPParams.from_strings(*rates)
    for n in range(1, 5):
        total, by_type = partition_functions(n, p)
        assert (total, by_type) == enumerated_partition_functions(n, p)
        assert all(type(z) is Fraction for z in by_type.values())


# ------------------------------------------------------------ steady state


@pytest.mark.parametrize("params", PARAMETER_GRID)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stationary_law_equals_partition_ratios(n, params):
    rep = verify_steady_state(n, params, tol=1e-10)
    assert rep.passed, rep
    assert rep.max_deviation < 1e-10


@pytest.mark.parametrize("params", PARAMETER_GRID)
def test_steady_state_holds_up_to_the_chain_cap(params):
    for n in range(5, 9):
        rep = verify_steady_state(n, params, tol=1e-10)
        assert rep.passed, rep
        assert type(rep.residual) is float and rep.residual < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_identity_is_exact_in_rational_mode(n):
    rep = verify_steady_state(n, GENERIC, exact=True)
    assert rep.exact
    assert rep.max_deviation == 0.0
    assert rep.residual == 0 and type(rep.residual) is Fraction
