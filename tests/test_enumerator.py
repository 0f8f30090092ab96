"""Column fills, extend/split inversion, and the exhaustive walk."""

from __future__ import annotations

import hashlib
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from staircase_tableaux.core import (
    GreekSymbol,
    InvalidTableauError,
    Tableau,
    ag_row_indices,
    to_line,
    validate,
)
from staircase_tableaux.enumerator import (
    ColumnFill,
    enumerate_all,
    extend,
    legal_fills,
    split_first_column,
)
from staircase_tableaux.sampler import sample_uniform

A, B, G, D = (
    GreekSymbol.ALPHA,
    GreekSymbol.BETA,
    GreekSymbol.GAMMA,
    GreekSymbol.DELTA,
)


# ------------------------------------------------------------ column fills


@pytest.mark.parametrize("r", range(6))
def test_fill_count_is_four_times_three_to_r(r):
    fills = legal_fills(r)
    assert len(fills) == 4 * 3**r
    assert len(set(fills)) == len(fills)


def test_fills_at_r_zero_are_the_four_bottoms():
    assert [f.bottom for f in legal_fills(0)] == [A, B, G, D]
    assert all(f.upper == () for f in legal_fills(0))


def test_fill_rejects_upper_over_ag_bottom():
    with pytest.raises(ValueError):
        ColumnFill(A, ((1, B),))


def test_fill_rejects_duplicate_or_unsorted_slots():
    with pytest.raises(ValueError):
        ColumnFill(B, ((1, B), (1, D)))
    with pytest.raises(ValueError):
        ColumnFill(B, ((2, B), (1, D)))
    with pytest.raises(ValueError):
        ColumnFill(B, ((0, B),))


def test_fill_rejects_misplaced_alpha_gamma():
    with pytest.raises(ValueError):
        ColumnFill(B, ((1, A), (2, G)))
    with pytest.raises(ValueError):
        ColumnFill(B, ((1, A), (2, B)))
    # topmost occupied slot may hold it, even with free slots above
    ColumnFill(B, ((1, B), (2, A)))


def test_r_change_accounting():
    assert ColumnFill(A).r_change == 1
    assert ColumnFill(G).r_change == 1
    assert ColumnFill(B).r_change == 0
    assert ColumnFill(D, ((1, B), (2, D))).r_change == -2
    assert ColumnFill(B, ((1, B), (2, A))).r_change == -1


# ----------------------------------------------------------- extend / split


def test_extend_shifts_and_places_the_new_column():
    t = Tableau(1, {(1, 1): A})
    fill = ColumnFill(B, ((1, G),))
    grown = extend(t, fill)
    assert grown == Tableau(2, {(1, 1): G, (1, 2): A, (2, 1): B})
    assert validate(grown) == []


def test_extend_rejects_out_of_range_slot():
    with pytest.raises(ValueError):
        extend(Tableau(1, {(1, 1): B}), ColumnFill(B, ((1, D),)))


def test_split_size_zero_raises():
    with pytest.raises(InvalidTableauError):
        split_first_column(Tableau(0, {}))


def test_split_validates_before_decomposing():
    t = Tableau(2, {(1, 1): D, (1, 2): B, (2, 1): A})
    with pytest.raises(InvalidTableauError):
        split_first_column(t)


def test_split_inverts_extend_exhaustively():
    for n in (1, 2, 3, 4):
        seen = []
        enumerate_all(n, seen.append)
        for t in seen:
            parent, fill = split_first_column(t)
            assert validate(parent) == []
            assert fill in legal_fills(len(ag_row_indices(parent)))
            assert extend(parent, fill) == t


@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_split_then_extend_round_trips_samples(n, seed):
    t = sample_uniform(n, seed)
    parent, fill = split_first_column(t)
    assert extend(parent, fill) == t


# ------------------------------------------------------------- enumeration


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_count_matches_formula(n):
    assert enumerate_all(n) == 4**n * factorial(n)


def test_walk_rejects_size_zero():
    with pytest.raises(ValueError):
        enumerate_all(0)


def test_visitor_and_counting_paths_agree():
    for n in (1, 2, 3, 4):
        visited = 0

        def visit(_):
            nonlocal visited
            visited += 1

        returned = enumerate_all(n, visit)
        assert visited == returned == enumerate_all(n)


def test_walk_yields_valid_distinct_tableaux():
    for n in (1, 2, 3, 4):
        seen = set()
        bad = []

        def visit(t):
            seen.add(to_line(t))
            if validate(t):
                bad.append(t)

        count = enumerate_all(n, visit)
        assert not bad
        assert len(seen) == count == 4**n * factorial(n)


def test_walk_order_is_stable():
    lines = []
    enumerate_all(2, lambda t: lines.append(to_line(t)))
    assert lines[:3] == [
        "2;1 2 A;2 1 A",
        "2;1 2 A;2 1 B",
        "2;1 1 B;1 2 A;2 1 B",
    ]
    digest = hashlib.sha256()
    enumerate_all(4, lambda t: digest.update((to_line(t) + "\n").encode()))
    assert digest.hexdigest() == (
        "7c04c833e5afc7f7983c7c629148378136062885802520dd787a40ff6a99ac25"
    )
