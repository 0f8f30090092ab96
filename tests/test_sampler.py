"""Exact-uniform sampler: per-tableau probability, determinism, statistics."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from staircase_tableaux.core import (
    GreekSymbol,
    InvalidTableauError,
    Tableau,
    statistics,
    to_line,
    validate,
)
from staircase_tableaux.counting import Down, multiplicity, total_count
from staircase_tableaux.enumerator import enumerate_all
from staircase_tableaux.sampler import (
    RNG_ID,
    _class_weights,
    _unrank_subset,
    probability_of,
    sample_many,
    sample_statistics,
    sample_uniform,
)
from staircase_tableaux.stats import dist_r


def test_rng_identifier_is_pinned():
    assert RNG_ID == "python-random-mt19937"


# ------------------------------------------------------------ exact weights


@given(k=st.integers(1, 25), r=st.integers(0, 25))
@settings(max_examples=80)
def test_class_weights_close_the_telescope(k, r):
    total, weights = _class_weights(k, r)
    assert sum(weights) == total == 4 * k * (2 * k + 1) ** r
    assert weights[0] == 2 * (2 * k - 1) ** (r + 1)
    for j in range(r + 1):
        assert weights[1 + j] == multiplicity(r, Down(j)) * (2 * k - 1) ** (r - j)


@pytest.mark.parametrize("r, size", [(4, 0), (4, 1), (5, 2), (6, 3)])
def test_subset_unranking_is_a_lexicographic_bijection(r, size):
    all_subsets = list(combinations(range(1, r + 1), size))
    seen = [tuple(_unrank_subset(r, size, i)) for i in range(len(all_subsets))]
    assert seen == sorted(seen)
    assert set(seen) == set(all_subsets)


# ------------------------------------------------------- probability audit


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_tableau_is_equally_likely(n):
    target = Fraction(1, total_count(n))
    checked = 0

    def visit(t):
        nonlocal checked
        assert probability_of(n, t) == target
        checked += 1

    enumerate_all(n, visit)
    assert checked == total_count(n)


def test_sample_many_rejects_negative_count():
    assert sample_many(3, 0, seed=1) == []
    with pytest.raises(ValueError):
        sample_many(3, -1, seed=1)


def test_probability_rejects_invalid_tableaux():
    with pytest.raises(InvalidTableauError):
        probability_of(2, Tableau(2, {(1, 2): GreekSymbol.ALPHA}))


# ------------------------------------------------------------- determinism


def test_same_seed_reproduces_the_stream():
    a = sample_many(5, 8, seed=424242)
    b = sample_many(5, 8, seed=424242)
    assert a == b
    assert sample_many(5, 8, seed=424243) != a


def test_single_draw_is_the_stream_head():
    assert sample_uniform(6, seed=17) == sample_many(6, 3, seed=17)[0]


def test_sample_statistics_matches_resampling():
    stats = sample_statistics(4, 6, seed=5)
    tableaux = sample_many(4, 6, seed=5)
    assert stats == [statistics(t) for t in tableaux]


# ---------------------------------------------------------------- validity


@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_draws_are_valid(n, seed):
    assert validate(sample_uniform(n, seed)) == []


def test_small_size_draws_cover_the_whole_space():
    # 3000 draws over 32 equally likely tableaux: missing one has
    # probability < 1e-40 at this seed-pinned run.
    seen = {to_line(t) for t in sample_many(2, 3000, seed=8)}
    assert len(seen) == total_count(2)


def test_r_frequencies_pass_a_coarse_chi_square():
    from scipy.stats import chi2

    n, draws = 3, 5000
    d = dist_r(n)
    counts = {v: 0 for v in d.support()}
    for t in sample_many(n, draws, seed=1234):
        counts[statistics(t).r] += 1
    stat = sum(
        (counts[v] - float(d.p(v)) * draws) ** 2 / (float(d.p(v)) * draws)
        for v in d.support()
    )
    assert chi2.sf(stat, len(counts) - 1) > 1e-3
