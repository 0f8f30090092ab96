"""Defect witnesses: each entry puts one named defect into the code a check
certifies, never into the check, and requires the check to fail.  A gate
that passes under its witness cannot see the defect it names.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest

from staircase_tableaux import (
    asep,
    checks,
    cli,
    counting,
    enumerator,
    polyengine,
    sampler,
    stats,
)
from staircase_tableaux.checks import CHECK_NAMES, verify_suite
from staircase_tableaux.core import GreekSymbol
from staircase_tableaux.enumerator import ColumnFill

#: Checks with no witness yet.  Empty: every check has one below.
_NO_WITNESS: frozenset[str] = frozenset()


def _drop_last_fill(mp):
    # The walk's fill table loses one fill, so one branch is never walked.
    real = enumerator.legal_fills
    mp.setattr(enumerator, "legal_fills", lambda r: real(r)[:-1])


def _ag_upper_read_at_the_bottom(mp):
    # `has_ag_upper` reads the lowest upper entry, not the topmost, so a
    # fill with beta/delta below its alpha/gamma entry is miscounted.
    mp.setattr(
        ColumnFill,
        "has_ag_upper",
        property(lambda f: bool(f.upper) and f.upper[0][1].is_ag),
    )


def _r_law_third_difference(mp):
    # dist_r's weights gain the third difference (1, -3, 3, -1) on entries
    # 0..3 for n >= 3, so they keep their sum, mean and variance.  The
    # defect goes wherever the package binds `dist_r`.
    real = stats.dist_r

    def perturbed(n):
        d = real(n)
        if n < 3:
            return d
        w = [a + b for a, b in zip(d.weights, (1, -3, 3, -1))]
        return stats.ExactPMF(0, (*w, *d.weights[4:]), d.denominator)

    for module in (stats, checks):
        mp.setattr(module, "dist_r", perturbed)


def _wrong_harmonic_number(mp):
    # An H_n off by 1/7.  The defect goes wherever the package binds
    # `harmonic_pair`, so a check that derives its expected value from it
    # sees the same error and cannot catch it.
    real = stats.harmonic_pair

    def wrong_pair(n):
        h1, h2 = real(n)
        return h1 + Fraction(1, 7), h2

    for module in (stats, checks):
        if hasattr(module, "harmonic_pair"):
            mp.setattr(module, "harmonic_pair", wrong_pair)


def _stamps_one_diagonal_short(mp):
    # The walk's stamps are built with a_diag - 1.
    real = enumerator._stat_vector
    mp.setattr(
        enumerator,
        "_stat_vector",
        lambda n, r, size, n_ag, a_diag: real(n, r, size, n_ag, a_diag - 1),
    )


def _leaf_loses_its_diagonal_cell(mp):
    # The walk's last column loses the diagonal cell of its first fill, so
    # those leaves break r + delta = n while their stamps, made from the
    # path's counts, still split n.
    real = enumerator._leaf_items

    @lru_cache(maxsize=None)
    def dropped(n, ag_rows):
        first, *rest = real(n, ag_rows)
        return ({c: s for c, s in first.items() if c != (n, 1)}, *rest)

    mp.setattr(enumerator, "_leaf_items", dropped)


def _v_row_mass_moved(mp):
    # The diagonal law's V row has one unit moved from its last entry to its
    # first; the row still sums to 2**n n!.
    real = stats.v_row

    def moved(n):
        row = real(n)
        return (row[0] + 1, *row[1:-1], row[-1] - 1)

    mp.setattr(stats, "v_row", moved)


def _v_step_mass_moved_inward(mp):
    # Each V step moves one unit from entries 1 and m - 1 of row m inward,
    # for m >= 4; every row stays symmetric, starts with 1 and keeps its sum,
    # so `build_V`'s own row checks pass.
    real = polyengine._v_step

    def inward(prev, m):
        row = real(prev, m)
        if m >= 4:
            row[1] -= 1
            row[2] += 1
            row[-2] -= 1
            row[-3] += 1
        return row

    mp.setattr(polyengine, "_v_step", inward)


def _v_row_third_difference(mp):
    # Row 20 of the V triangle gains the third difference (1, -3, 3, -1) on
    # entries 2..5 and its mirror image on entries 18..15, so the row stays
    # symmetric and keeps its sum, mean and variance: a third difference
    # sums to zero against 1, m and m**2.  The defect goes wherever the
    # package binds `build_V`.
    real = polyengine.build_V

    def perturbed(n):
        rows = list(real(n))
        if n >= 20:
            row = list(rows[20])
            for m, d in zip(range(2, 6), (1, -3, 3, -1)):
                row[m] += d
                row[20 - m] += d
            rows[20] = tuple(row)
        return tuple(rows)

    for module in (polyengine, checks, cli):
        mp.setattr(module, "build_V", perturbed)


def _c_triangle_coefficient_raised(mp):
    # The z**0 coefficient of c[3][1] is raised by 1 in the triangle the
    # path oracle is compared with.
    real = polyengine.build_c

    def raised(n):
        rows = real(n)
        if n < 3:
            return rows
        row = list(rows[3])
        row[1] = (row[1][0] + 1, *row[1][1:])
        return (*rows[:3], tuple(row), *rows[4:])

    mp.setattr(checks, "build_c", raised)


def _c1_row_entry_raised(mp):
    # Entry 2 of row 4 of the c-triangle at z = 1 is raised by 1.  The
    # defect goes wherever the package binds `c1_rows`.
    real = polyengine.c1_rows

    def raised(n):
        rows = real(n)
        if n < 4:
            return rows
        row = list(rows[4])
        row[2] += 1
        return (*rows[:4], tuple(row), *rows[5:])

    for module in (polyengine, checks):
        mp.setattr(module, "c1_rows", raised)


def _with_ag_class_count_raised(mp):
    # The count of class-j fills with an alpha/gamma upper entry is 1 too
    # high; a draw's weights are built from the class counts, and
    # `probability_of` no longer reads them.  The defect goes wherever the
    # package binds `with_ag_multiplicity`.
    real = counting.with_ag_multiplicity
    for module in (counting, sampler, checks):
        mp.setattr(module, "with_ag_multiplicity", lambda r, j: real(r, j) + 1)


def _below_never_draws_its_last_value(mp):
    # `_below` draws below max(1, bound - 1), so the last slot subset of a
    # class is never drawn; no n <= 2 draw has two subsets to choose from.
    real = sampler._below
    mp.setattr(sampler, "_below", lambda bits, n: real(bits, max(1, n - 1)))


def _split_reads_ag_upper_as_beta(mp):
    # The decomposition the audit replays reads an alpha/gamma upper entry
    # of column 1 as beta.
    real = sampler.split_first_column

    def split(t):
        parent, fill = real(t)
        upper = tuple((k, GreekSymbol.BETA) for k, _ in fill.upper)
        return parent, ColumnFill(fill.bottom, upper)

    mp.setattr(sampler, "split_first_column", split)


def _upper_entries_take_the_first_letter(mp):
    # Every upper entry a draw writes gets its class's first letter (beta,
    # or alpha on top): only the bottom coin reaches `_fill`.  The defect
    # goes wherever the package binds `_fill`.
    real = sampler._fill

    def first_letter(r, j, with_ag, rank, coins):
        return real(r, j, with_ag, rank, coins & 1)

    for module in (sampler, checks):
        mp.setattr(module, "_fill", first_letter)


def _every_rank_unranks_the_first_subset(mp):
    # The slot subset of every draw is the lexicographically first one.
    real = sampler._unrank_subset
    mp.setattr(
        sampler, "_unrank_subset", lambda r, size, index: real(r, size, 0)
    )


def _upper_ag_counted_as_diagonal(mp):
    # The statistics-only draw counts every alpha/gamma upper entry as a
    # diagonal one: a_diag becomes the whole alpha/gamma count.
    real = sampler._grow_counts

    def counts(rng, n):
        r, size, n_ag, _ = real(rng, n)
        return r, size, n_ag, n_ag

    mp.setattr(sampler, "_grow_counts", counts)


def _slot_weight_raised(mp):
    # One weight of the one-slot table above a delta bottom is raised by 1.
    real = asep._slot_tables

    def heavier(*args):
        tables = real(*args)
        if len(tables) > 1:
            tables[1][0][0, 0] += 1
        return tables

    mp.setattr(asep, "_slot_tables", heavier)


#: (check name, n_max, defect, a failure the check must report or None).
#: Each n_max is the smallest whose ranges reach the defect.  A check may
#: have several witnesses, such as one per leg.
WITNESSES = [
    ("cardinality", 1, _drop_last_fill, None),
    ("r-histogram", 3, _ag_upper_read_at_the_bottom, None),
    ("bernoulli-convolution", 1, _r_law_third_difference, 3),
    ("r-moments", 6, _wrong_harmonic_number, ("r-closed", 1)),
    ("row-identity", 1, _stamps_one_diagonal_short, None),
    ("row-identity", 1, _leaf_loses_its_diagonal_cell, None),
    ("diagonal-distribution", 1, _v_row_mass_moved, None),
    ("diagonal-moments", 1, _v_step_mass_moved_inward, None),
    ("diagonal-moments", 1, _v_row_third_difference, ("irwin-hall", 20)),
    ("triangle-identities", 1, _v_step_mass_moved_inward, None),
    ("triangle-identities", 1, _c_triangle_coefficient_raised, ("oracle", 3, 1)),
    ("triangle-identities", 1, _c1_row_entry_raised, ("whitney", 4, 2)),
    ("bivariate-series", 1, _v_step_mass_moved_inward, None),
    ("sampler-exactness", 3, _split_reads_ag_upper_as_beta, None),
    ("sampler-exactness", 2, _upper_entries_take_the_first_letter, ("kernel", 2)),
    ("sampler-exactness", 3, _every_rank_unranks_the_first_subset, ("kernel", 3)),
    ("sampler-exactness", 1, _with_ag_class_count_raised, ("classes", 0)),
    ("sampler-exactness", 3, _below_never_draws_its_last_value, ("full_law", 3)),
    ("sampler-chi-square", 3, _upper_ag_counted_as_diagonal, None),
    ("asep-grid", 3, _slot_weight_raised, None),
]


def _witness_id(k: int) -> str:
    """The check's name, suffixed by the defect for a check's later witness."""
    name, _, defect, _ = WITNESSES[k]
    if any(w[0] == name for w in WITNESSES[:k]):
        return f"{name}:{defect.__name__.lstrip('_')}"
    return name


def _clear_walk_tables():
    # The census and the walk's leaf tables are cached per process; a defect
    # in the walk must neither read clean tables nor leave defective ones.
    for table in (checks._census, enumerator._leaf_items, enumerator._leaf_stats):
        table.cache_clear()


@pytest.fixture
def fresh_walk_tables():
    _clear_walk_tables()
    yield
    _clear_walk_tables()


@pytest.mark.parametrize(
    "name, n_max, defect, failure",
    WITNESSES,
    ids=[_witness_id(k) for k in range(len(WITNESSES))],
)
def test_check_fails_under_its_witness(
    name, n_max, defect, failure, monkeypatch, fresh_walk_tables
):
    # The same run passes on clean code, so the defect is what fails it.
    assert verify_suite(n_max, names=[name])[0].passed is True
    _clear_walk_tables()
    defect(monkeypatch)
    (res,) = verify_suite(n_max, names=[name])
    assert res.passed is False
    if failure is not None:
        assert failure in res.measured["failures"]


def test_every_check_has_a_witness():
    witnessed = {name for name, *_ in WITNESSES}
    assert witnessed == set(CHECK_NAMES) - _NO_WITNESS
    assert not _NO_WITNESS - set(CHECK_NAMES)
