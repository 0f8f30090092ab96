"""Fill-class multiplicities, completion counts and the change of measure."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from staircase_tableaux import counting
from staircase_tableaux.core import Tableau, statistics
from staircase_tableaux.counting import (
    bd_only_multiplicity,
    completion_count,
    completions,
    multiplicity,
    total_count,
    with_ag_multiplicity,
)
from staircase_tableaux.enumerator import enumerate_all, legal_fills, split_first_column


# ------------------------------------------------------------ multiplicities


def test_up_class_always_has_two_fills():
    assert all(multiplicity(r, -1) == 2 for r in range(10))


@pytest.mark.parametrize(
    "r, j, expected",
    [(0, 0, 2), (1, 0, 6), (1, 1, 4), (2, 0, 10), (2, 1, 16), (2, 2, 8)],
)
def test_down_class_golden_values(r, j, expected):
    assert multiplicity(r, j) == expected


@pytest.mark.parametrize("r", range(9))
def test_classes_partition_all_fills(r):
    assert sum(multiplicity(r, j) for j in range(-1, r + 1)) == 4 * 3**r


@given(r=st.integers(0, 30), j=st.integers(-3, 30))
@settings(max_examples=80)
def test_down_splits_into_ag_and_bd_only(r, j):
    if not -1 <= j <= r:
        with pytest.raises(ValueError):
            multiplicity(r, j)
    elif j >= 0:
        assert multiplicity(r, j) == bd_only_multiplicity(
            r, j
        ) + with_ag_multiplicity(r, j)


@pytest.mark.parametrize("r", range(6))
def test_multiplicities_match_generated_fills(r):
    by_class = Counter(-f.r_change for f in legal_fills(r))
    by_subclass = Counter(
        (-f.r_change, f.has_ag_upper) for f in legal_fills(r) if not f.bottom.is_ag
    )
    assert by_class == Counter(
        {j: multiplicity(r, j) for j in range(-1, r + 1)}
    )
    for j in range(r + 1):
        assert by_subclass.pop((j, False), 0) == bd_only_multiplicity(r, j)
        if j < r:
            assert by_subclass.pop((j, True)) == with_ag_multiplicity(r, j)
    assert not by_subclass


def test_multiplicity_rejects_negative_r():
    with pytest.raises(ValueError):
        multiplicity(-1, -1)


# -------------------------------------------------------- completion counts


def test_no_columns_left_means_one_way():
    assert all(completion_count(0, r) == 1 for r in range(8))


@pytest.mark.parametrize("r", range(6))
def test_single_column_count(r):
    assert completion_count(1, r) == 4 * 3**r


def test_small_goldens():
    assert completion_count(2, 0) == 32
    assert completion_count(3, 0) == 384
    assert completion_count(2, 1) == 160


def test_closed_form_agrees_with_recurrence_table():
    rows = completions(40)
    assert sum(map(len, rows)) == 41 * 42 // 2
    for k, row in enumerate(rows):
        for r, value in enumerate(row):
            assert value == completion_count(k, r)


def test_table_builds_each_multiplicity_row_once(monkeypatch):
    calls = []
    real = counting.multiplicity

    def counted(r, j):
        calls.append((r, j))
        return real(r, j)

    monkeypatch.setattr(counting, "multiplicity", counted)
    completions(40)
    assert Counter(calls) == Counter(
        (r, j) for r in range(40) for j in range(-1, r + 1)
    )


def test_table_bounds_and_errors():
    rows = completions(3)
    assert [len(row) for row in rows] == [4, 3, 2, 1]
    assert rows[3] == (total_count(3),)
    with pytest.raises(ValueError):
        completion_count(-1, 0)
    with pytest.raises(ValueError):
        completions(-1)


def test_count_only_walk_never_reads_the_formulas(monkeypatch):
    """The count-only walk tallies `legal_fills` itself: it must not lean on
    the multiplicity formula or the closed form it is checked against."""
    expected = [completions(n)[n][0] for n in range(1, 7)]

    def refuse(*args):
        raise AssertionError("count-only walk read a counting formula")

    monkeypatch.setattr(counting, "multiplicity", refuse)
    monkeypatch.setattr(counting, "completion_count", refuse)
    assert enumerate_all(6) == 2_949_120
    assert [enumerate_all(n) for n in range(1, 7)] == expected


@pytest.mark.parametrize(
    "n, expected",
    [(1, 4), (2, 32), (3, 384), (4, 6144), (5, 122880), (6, 2949120)],
)
def test_total_count_goldens(n, expected):
    assert total_count(n) == expected == 4**n * factorial(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_total_count_matches_enumeration(n):
    assert total_count(n) == enumerate_all(n)


# -------------------------------------------------------- change of measure


def _mean_over(n: int, f) -> Fraction:
    """Average f(StatVector) over all size-n tableaux (size 0: one tableau)."""
    if n == 0:
        return Fraction(f(statistics(Tableau(0, {}))))
    acc = Fraction(0)

    def visit(t):
        nonlocal acc
        acc += f(statistics(t))

    total = enumerate_all(n, visit)
    return acc / total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_first_column_removal_reweights_by_three_to_r(n):
    """E_n[X(parent)] = E_{n-1}[3**r X] / n for the uniform measures.

    Checked against several parent statistics, which pins the parent density
    3**r / (n |S_{n-1}|) and not just its normalization.
    """
    for stat in (
        lambda s: 1,
        lambda s: s.r,
        lambda s: s.delta,
        lambda s: s.a_diag,
    ):
        acc = Fraction(0)

        def visit(t):
            nonlocal acc
            parent, _ = split_first_column(t)
            acc += stat(statistics(parent))

        total = enumerate_all(n, visit)
        lhs = acc / total
        rhs = _mean_over(n - 1, lambda s: Fraction(3**s.r) * stat(s)) / n
        assert lhs == rhs
