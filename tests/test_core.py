"""Filling rules, u/q labeling, statistics and text round-trips."""

from __future__ import annotations

import ast
import pickle
from dataclasses import FrozenInstanceError
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import staircase_tableaux
from staircase_tableaux import asep, core
from staircase_tableaux.asep import PARAMETER_GRID, partition_functions
from staircase_tableaux.core import (
    GreekSymbol,
    InvalidTableauError,
    Label,
    Tableau,
    from_text,
    is_valid,
    label_uq,
    statistics,
    to_line,
    to_text,
    type_word,
    validate,
    weight,
)
from staircase_tableaux.enumerator import (
    ColumnFill,
    enumerate_all,
    extend,
    split_first_column,
)
from staircase_tableaux.sampler import sample_statistics, sample_uniform

A, B, G, D = (
    GreekSymbol.ALPHA,
    GreekSymbol.BETA,
    GreekSymbol.GAMMA,
    GreekSymbol.DELTA,
)


# ---------------------------------------------------------------- validity


@pytest.mark.parametrize("sym, bit", [(A, "1"), (B, "0"), (G, "0"), (D, "1")])
def test_singletons_valid_with_expected_type(sym, bit):
    t = Tableau(1, {(1, 1): sym})
    assert is_valid(t)
    assert type_word(t) == bit


@pytest.mark.parametrize("sym", list(GreekSymbol), ids=lambda s: s.value)
def test_symbol_flags_are_membership_in_the_class_tuples(sym):
    flags = (sym.is_ag, sym.is_bd, sym.fills_site)
    assert flags == (sym in core._AG, sym in core._BD, sym in core._SITE)
    assert flags == (sym.value in "AG", sym.value in "BD", sym.value in "AD")


def test_size_zero_is_the_empty_root():
    t = Tableau(0, {})
    assert is_valid(t)
    assert type_word(t) == ""
    s = statistics(t)
    assert (s.r, s.delta, s.gamma, s.a_diag, s.b_diag) == (0, 0, 0, 0, 0)


def test_missing_diagonal_box_is_flagged():
    t = Tableau(2, {(1, 2): A})
    rules = {v.rule for v in validate(t)}
    assert rules == {"empty-diagonal"}


def test_entry_left_of_beta_is_flagged():
    t = Tableau(2, {(1, 1): A, (1, 2): B, (2, 1): D})
    assert any(
        v.rule == "entry-left-of-bd" and v.cell == (1, 2) for v in validate(t)
    )


def test_entry_above_alpha_is_flagged():
    t = Tableau(2, {(1, 1): D, (1, 2): G, (2, 1): A})
    assert any(
        v.rule == "entry-above-ag" and v.cell == (2, 1) for v in validate(t)
    )


def test_cell_outside_shape_is_flagged():
    t = Tableau(2, {(1, 2): A, (2, 1): B, (2, 2): G})
    assert any(v.rule == "cell-outside-shape" for v in validate(t))


def test_validate_depends_only_on_the_tableau_value():
    # Empty diagonal boxes first, then the offending boxes in (row, column)
    # order, whatever order the cells were inserted in.
    cells = {
        (4, 1): B, (2, 1): G, (1, 2): B, (3, 2): A, (2, 2): D, (1, 1): A,
    }
    forward = Tableau(3, cells)
    backward = Tableau(3, dict(reversed(cells.items())))
    assert forward == backward
    assert validate(forward) == validate(backward) == [
        core.Violation("empty-diagonal", (1, 3)),
        core.Violation("empty-diagonal", (3, 1)),
        core.Violation("entry-left-of-bd", (1, 2)),
        core.Violation("entry-above-ag", (2, 1)),
        core.Violation("entry-left-of-bd", (2, 2)),
        core.Violation("cell-outside-shape", (3, 2)),
        core.Violation("cell-outside-shape", (4, 1)),
    ]


@given(
    n=st.integers(0, 4),
    cells=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.sampled_from(list(GreekSymbol)),
        max_size=12,
    ),
)
@settings(max_examples=200, deadline=None)
def test_validate_ignores_the_insertion_order(n, cells):
    reordered = dict(reversed(cells.items()))
    assert validate(Tableau(n, cells)) == validate(Tableau(n, reordered))


@pytest.mark.parametrize(
    "fn", [statistics, type_word, weight], ids=["statistics", "type_word", "weight"]
)
def test_invalid_tableau_raises_on_statistics(fn):
    with pytest.raises(InvalidTableauError):
        fn(Tableau(2, {(1, 2): A}))


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Tableau(-1, {})


# ------------------------------------------------- validation happens once


@pytest.fixture
def validate_calls(monkeypatch):
    calls = []
    real = core.validate

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(core, "validate", counted)
    return calls


@pytest.mark.parametrize(
    "run",
    [
        lambda: enumerate_all(3, statistics),
        lambda: sample_statistics(4, 50, 1),
        lambda: asep._enumerated_type_weights(2, PARAMETER_GRID[0]),
    ],
    ids=["walk", "sampler", "partition-functions"],
)
def test_grown_tableaux_are_never_validated(validate_calls, run):
    run()
    assert validate_calls == []


def test_user_built_tableau_is_validated_once(validate_calls):
    t = Tableau(2, {(1, 2): A, (2, 1): B})
    statistics(t)
    type_word(t)
    weight(t)
    assert validate_calls == [t]


def test_validate_ignores_the_checked_mark(validate_calls):
    t = sample_uniform(5, 0)
    assert core.validate(t) == [] and is_valid(t)
    assert validate_calls == [t, t]
    bad = Tableau(2, {(1, 2): A})
    object.__setattr__(bad, "_checked", True)
    assert core.validate(bad) and not is_valid(bad)


# ------------------------------------------------------- read-only cells


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.__setitem__((1, 1), B),
        lambda c: c.__delitem__((2, 1)),
        lambda c: c.pop((2, 1)),
        lambda c: c.popitem(),
        lambda c: c.clear(),
        lambda c: c.setdefault((1, 1), B),
        lambda c: c.update({(1, 1): B}),
        lambda c: c.__ior__({(1, 1): B}),
    ],
    ids=["setitem", "delitem", "pop", "popitem", "clear", "setdefault",
         "update", "ior"],
)
def test_cells_cannot_change_after_the_checked_mark(mutate):
    t = Tableau(2, {(1, 2): A, (2, 1): B})
    before = statistics(t)
    with pytest.raises(TypeError):
        mutate(t.cells)
    assert statistics(t) == before and len(t.cells) == 2


def test_cells_copy_the_caller_mapping():
    cells = {(1, 2): A, (2, 1): B}
    t = Tableau(2, cells)
    del cells[(2, 1)]
    assert t.cells == {(1, 2): A, (2, 1): B}


def test_pickle_round_trip_keeps_a_read_only_equal_tableau():
    t = sample_uniform(6, 2)
    back = pickle.loads(pickle.dumps(t))
    assert back == t and hash(back) == hash(t) and repr(back) == repr(t)
    assert statistics(back) == statistics(t)
    with pytest.raises(TypeError):
        back.cells.clear()


def _walk_leaf():
    leaves = []
    enumerate_all(3, leaves.append)
    return leaves[200]


def _read_walk_leaf():
    t = _walk_leaf()
    t.cells
    return t


@pytest.mark.parametrize(
    "build",
    [
        _walk_leaf,
        _read_walk_leaf,
        lambda: sample_uniform(6, 2),
        lambda: split_first_column(sample_uniform(6, 2))[0],
    ],
    ids=["walk", "walk-read", "sampler", "split"],
)
def test_grown_tableaux_equal_their_constructed_twins(build):
    # The twin comes from a second build, so each of `==`, `hash` and
    # `pickle` is the first to read a fresh walk leaf's cells.
    source = build()
    twin = Tableau(source.n, dict(source.cells))
    assert build() == twin and hash(build()) == hash(twin)
    t = build()
    back = pickle.loads(pickle.dumps(t))
    for u in (t, back):
        assert u == twin and hash(u) == hash(twin) and repr(u) == repr(twin)
        assert u._checked is True
        with pytest.raises(TypeError):
            u.cells.clear()


@pytest.mark.parametrize(
    "build",
    [lambda: Tableau(2, {(1, 2): A, (2, 1): B}), _walk_leaf, _read_walk_leaf,
     lambda: sample_uniform(6, 2),
     lambda: split_first_column(sample_uniform(6, 2))[0]],
    ids=["constructor", "walk", "walk-read", "sampler", "split"],
)
def test_tableaux_are_slotted(build):
    # Grown tableaux are built as `core._Draft`s; each must end a frozen
    # `Tableau`, unread walk leaves included.
    t = build()
    assert type(t) is Tableau
    assert not hasattr(t, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(t, "extra", 1)
    with pytest.raises(FrozenInstanceError):
        t.n = 7
    with pytest.raises(FrozenInstanceError):
        t._stats = None


def test_the_leaf_draft_has_the_tableau_slot_layout():
    assert core._Draft.__slots__ == Tableau.__slots__


def test_equality_and_hash_ignore_the_cells_type():
    cells = {(1, 2): A, (2, 1): B}
    t = Tableau(2, cells)
    assert t.cells == cells and cells == t.cells
    reverse = Tableau(2, dict(reversed(list(cells.items()))))
    assert t == reverse and hash(t) == hash(reverse)


# --------------------------------------------------- walk-stamped statistics


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_stamps_match_the_cells(n, walk_record):
    record = walk_record(n)
    assert record.count == 4**n * factorial(n)
    assert record.stamp_mismatches == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: Tableau(2, {(1, 2): A, (2, 1): B}),
        lambda: from_text("2;1 2 A;2 1 B"),
        lambda: extend(Tableau(1, {(1, 1): A}), ColumnFill(B, ((1, G),))),
        lambda: split_first_column(sample_uniform(5, 3))[0],
        lambda: sample_uniform(5, 3),
    ],
    ids=["constructor", "from-text", "extend", "split", "sampler"],
)
def test_only_the_walk_stamps(build):
    t = build()
    statistics(t)
    assert t._stats is None


def test_pickle_round_trip_keeps_the_stamp():
    walked = []
    enumerate_all(3, walked.append)
    for t in walked[::37]:
        back = pickle.loads(pickle.dumps(t))
        assert back._stats == t._stats is not None
        assert statistics(back) == statistics(t) == core._read_statistics(back)


def test_stat_vector_is_the_one_statvector_constructor():
    package = Path(core.__file__).parent
    callers = [
        path.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "StatVector"
    ]
    assert callers == ["core.py"]


# ---------------------------------------------------------------- labeling


def test_two_cell_example_labels_and_weight():
    t = Tableau(2, {(1, 2): A, (2, 1): B})
    assert is_valid(t)
    assert label_uq(t) == {(1, 1): Label.Q}
    w = weight(t)
    assert (w.e_alpha, w.e_beta, w.e_gamma, w.e_delta) == (1, 1, 0, 0)
    assert (w.e_u, w.e_q) == (0, 1)
    s = statistics(t)
    assert (s.r, s.delta, s.gamma, s.a_diag, s.b_diag) == (1, 1, 1, 1, 1)


def test_row_pass_takes_precedence_over_column_pass():
    # (1, 1) sits both left of a delta (row rule: Q) and above an alpha
    # (column rule would say U); the row pass must win.
    t = Tableau(2, {(1, 2): D, (2, 1): A})
    assert label_uq(t) == {(1, 1): Label.Q}


def test_row_pass_beta_u_and_delta_q():
    t = Tableau(3, {(1, 2): B, (1, 3): G, (2, 2): D, (3, 1): A})
    assert label_uq(t) == {(1, 1): Label.U, (2, 1): Label.Q}


def test_column_pass_uses_nearest_occupied_below():
    # Column 1 holds delta above beta; the box on top sees the delta.
    t = Tableau(3, {(1, 3): A, (2, 1): D, (2, 2): A, (3, 1): B})
    assert label_uq(t) == {(1, 1): Label.U, (1, 2): Label.U}


def test_label_rejects_invalid_input():
    with pytest.raises(InvalidTableauError):
        label_uq(Tableau(2, {(1, 2): A}))


@pytest.mark.parametrize(
    "name, wrap, run",
    [
        # With validation skipped, column 1 of this tableau has no bottom box.
        ("check_valid", lambda f: lambda t: None,
         lambda t: label_uq(Tableau(2, {(1, 2): A}))),
        # A phantom row left of a beta labels two boxes outside the shape.
        ("_leftmost", lambda f: lambda t: {**f(t), t.n + 1: (3, B)}, label_uq),
        ("label_uq", lambda f: lambda t: {}, weight),
        ("_leftmost", lambda f: lambda t: {}, statistics),
    ],
    ids=["label-bottom", "label-cover", "weight-degree", "statistics-split"],
)
def test_core_guards_raise_without_assert(monkeypatch, name, wrap, run):
    t = Tableau(2, {(1, 2): A, (2, 1): B})
    core.check_valid(t)
    monkeypatch.setattr(core, name, wrap(getattr(core, name)))
    with pytest.raises(RuntimeError):
        run(t)


# ----------------------------------------------------------- worked example

_WORKED = """
7
1 2 D
1 7 G
2 3 A
2 6 G
3 2 B
3 4 A
3 5 A
4 4 D
5 3 D
6 2 B
7 1 G
"""


def test_worked_example_full_profile():
    """A hand-checked size-7 tableau touching every derived quantity."""
    t = from_text(_WORKED)
    assert is_valid(t)
    assert type_word(t) == "0011100"
    s = statistics(t)
    assert (s.r, s.delta, s.gamma, s.a_diag, s.b_diag) == (2, 5, 6, 4, 3)
    w = weight(t)
    assert (w.e_alpha, w.e_beta, w.e_gamma, w.e_delta) == (3, 2, 3, 3)
    assert (w.e_u, w.e_q) == (8, 9)
    assert w.degree() == 7 * 8 // 2


# ------------------------------------------------------------- text forms


def test_text_round_trip_both_forms():
    t = from_text(_WORKED)
    assert from_text(to_text(t)) == t
    assert from_text(to_line(t)) == t
    assert to_line(t).count(";") == len(t.cells)


@pytest.mark.parametrize(
    "bad",
    ["", "x", "2;1 2", "2;1 2 X", "2;1 2 A;1 2 B"],
    ids=["empty", "header", "short-line", "bad-symbol", "duplicate"],
)
def test_from_text_rejects_malformed_input(bad):
    with pytest.raises(ValueError):
        from_text(bad)


# ------------------------------------------------------------- properties


@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sampled_tableaux_satisfy_all_invariants(n, seed):
    t = sample_uniform(n, seed)
    assert validate(t) == []
    s = statistics(t)
    assert s.r + s.delta == n
    assert s.a_diag + s.b_diag == n
    assert weight(t).degree() == n * (n + 1) // 2
    empties = set(t.boxes()) - set(t.cells)
    assert set(label_uq(t)) == empties
    assert from_text(to_line(t)) == t


@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_type_word_matches_diagonal_occupancy(n, seed):
    t = sample_uniform(n, seed)
    bits = type_word(t)
    for i in range(1, n + 1):
        sym = t.cells[(i, n + 1 - i)]
        assert bits[i - 1] == ("1" if sym in (A, D) else "0")


# --------------------------------------------------------- public surface


def test_public_surface_and_one_type_word_encoding():
    assert all(hasattr(staircase_tableaux, name) for name in staircase_tableaux.__all__)
    for gone in ("TypeWord", "LabeledTableau"):
        assert not hasattr(staircase_tableaux, gone) and not hasattr(core, gone)
    for n in range(1, 4):
        words = set()
        enumerate_all(n, lambda t: words.add(type_word(t)))
        assert words == set(partition_functions(n, PARAMETER_GRID[0])[1])
