"""Column fills, extend/split inversion, and the exhaustive walk."""

from __future__ import annotations

import hashlib
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from staircase_tableaux import checks, core, enumerator
from staircase_tableaux.core import (
    FrozenCells,
    GreekSymbol,
    InvalidTableauError,
    Tableau,
    ag_row_indices,
    statistics,
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


def test_fill_count_guard_raises_without_assert(monkeypatch):
    real = enumerator.product
    monkeypatch.setattr(
        enumerator, "product", lambda *a, **k: list(real(*a, **k))[1:]
    )
    with pytest.raises(RuntimeError):
        legal_fills.__wrapped__(1)  # past the cache


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


@pytest.mark.parametrize("r", range(7))
def test_fill_counts_read_off_the_top_entry_match_their_definitions(r):
    # The O(1) properties lean on the filling rules (an alpha/gamma upper
    # entry is the topmost); these are their definitions, entry by entry.
    for f in legal_fills(r):
        assert f.has_ag_upper == any(s.is_ag for _, s in f.upper)
        bd_upper = sum(1 for _, s in f.upper if s.is_bd)
        assert f.r_change == (1 if f.bottom.is_ag else -bd_upper)


@pytest.mark.parametrize("n", range(1, 6))
def test_leaf_columns_are_the_cells_each_fill_writes(n):
    # Each cached last column holds the cells slot k writes on AG row
    # ag_rows[-k], bottom box first, keys in the same order.
    for mask in range(1 << (n - 1)):
        ag_rows = tuple(i for i in range(1, n) if mask >> (i - 1) & 1)
        above = [(row, 1) for row in ag_rows]
        want = [
            {(n, 1): f.bottom, **{above[-k]: s for k, s in f.upper}}
            for f in legal_fills(len(ag_rows))
        ]
        got = enumerator._leaf_items.__wrapped__(n, ag_rows)  # past the cache
        assert [list(c.items()) for c in got] == [list(c.items()) for c in want]


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walk_leaves_are_the_extensions_of_the_smaller_walk(n):
    parents = []
    if n == 1:
        parents.append(Tableau(0, {}))
    else:
        enumerate_all(n - 1, parents.append)
    expected = [
        extend(p, fill)
        for p in parents
        for fill in legal_fills(len(ag_row_indices(p)))
    ]
    leaves = []
    enumerate_all(n, leaves.append)
    assert len(leaves) == len(expected)
    for t, e in zip(leaves, expected):
        assert list(t.cells.items()) == list(e.cells.items())
        assert t._checked is True and t._stats == statistics(e)
        assert type(t.cells) is FrozenCells
        with pytest.raises(TypeError):
            t.cells[(n, 1)] = A


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


_WALK_5_DIGEST = "a0acd16fb8b0956c406d8fe78f71e5fe42eb4a1292fc56dcd9ab7e9931703b1d"


def test_walk_leaves_in_insertion_order_are_pinned_at_five(walk_record):
    # The digest runs over the leaves in order, each its cells in insertion
    # order and its stamp (`WalkRecord` in conftest.py).
    assert walk_record(5).digest == _WALK_5_DIGEST


def _leaf_table_sizes() -> tuple[int, int]:
    return (
        enumerator._leaf_items.cache_info().currsize,
        enumerator._leaf_stats.cache_info().currsize,
    )


def test_leaf_tables_are_shared_by_later_walks(leaf_digest):
    enumerator._leaf_items.cache_clear()
    enumerator._leaf_stats.cache_clear()
    first_3 = leaf_digest(3)
    after_3 = _leaf_table_sizes()
    assert leaf_digest(5) == _WALK_5_DIGEST
    after_5 = _leaf_table_sizes()
    # One last column per set of AG rows among rows 1..4, one stamp row per
    # (r, n_ag, size, a_diag) that a path of four columns reaches.
    assert (after_5[0] - after_3[0], after_5[1] - after_3[1]) == (16, 24)
    assert leaf_digest(3) == first_3
    assert leaf_digest(5) == _WALK_5_DIGEST
    assert _leaf_table_sizes() == after_5


# ------------------------------------------------- leaf cells, built on read


def test_leaves_kept_unread_own_their_cells():
    # Nothing is read during the walk, so each leaf's cells are built after
    # the walk's own dict has moved on: from the leaf's snapshot, not that
    # dict.
    lines = []
    enumerate_all(4, lambda t: lines.append(to_line(t)))
    leaves = []
    enumerate_all(4, leaves.append)
    assert all(t._parts is not None for t in leaves)
    assert [to_line(t) for t in leaves] == lines


def test_a_leaf_builds_its_cells_once():
    leaves = []
    enumerate_all(3, leaves.append)
    t = leaves[200]
    assert t._parts is not None
    first = t.cells
    assert type(first) is FrozenCells and t._parts is None
    assert t.cells is first


@pytest.fixture
def frozen_cells_built(monkeypatch):
    """How many `FrozenCells` the package builds while the fixture lives."""
    built = []

    class Counted(FrozenCells):
        __slots__ = ()

        def __init__(self, *args):
            built.append(None)
            super().__init__(*args)

    monkeypatch.setattr(core, "FrozenCells", Counted)
    return built


def test_a_statistics_walk_builds_no_cells(frozen_cells_built):
    assert enumerate_all(4, statistics) == 6144
    assert frozen_cells_built == []


def test_a_cells_reading_walk_builds_them_once_per_leaf(frozen_cells_built):
    assert enumerate_all(4, to_line) == 6144
    assert len(frozen_cells_built) == 6144


def test_the_census_builds_cells_only_when_a_kept_tableau_is_read(
    frozen_cells_built,
):
    _, kept = checks._census.__wrapped__(4)  # past the cache
    assert len(kept) == 6144 and frozen_cells_built == []
    kept[0].cells
    kept[0].cells
    assert len(frozen_cells_built) == 1
