"""Exact-uniform sampler: per-tableau probability, determinism, statistics."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import staircase_tableaux
from staircase_tableaux import sampler
from staircase_tableaux.core import (
    GreekSymbol,
    InvalidTableauError,
    Tableau,
    statistics,
    to_line,
    validate,
)
from staircase_tableaux.counting import multiplicity, total_count
from staircase_tableaux.enumerator import ColumnFill, enumerate_all, legal_fills
from staircase_tableaux.sampler import (
    RNG_ID,
    _below,
    _class_of,
    _columns,
    _fill,
    _unrank_subset,
    iter_samples,
    probability_of,
    sample_many,
    sample_statistics,
    sample_uniform,
)
from staircase_tableaux.stats import chi2_sf, dist_r


def test_rng_identifier_is_pinned():
    assert RNG_ID == "python-random-mt19937"


# ------------------------------------------------------------------- draws

# Bounds of one bit up to well past the widest class total drawn at n = 500.
_BOUNDS = [
    1, 2, 3, 5, 7, 8, 9, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1,
    2**53 + 3, 4 * 500 * 1001**12, 2**200 + 7,
]


def test_below_draws_what_randrange_draws():
    for seed in range(30):
        a, b = random.Random(seed), random.Random(seed)
        for n in _BOUNDS:
            assert _below(a.getrandbits, n) == b.randrange(n), (seed, n)
            assert a.getstate() == b.getstate(), (seed, n)


@pytest.mark.parametrize("n", [0, -3])
def test_below_refuses_a_bound_below_one_before_drawing(n):
    rng = random.Random(11)
    state = rng.getstate()
    with pytest.raises(ValueError):
        _below(rng.getrandbits, n)
    assert rng.getstate() == state


# ------------------------------------------------------------ exact weights


def _class_weights(k, r):
    """Class j = -1..r weights with the common factor of N(k-1, .) dropped,
    built term by term from `multiplicity`."""
    return [
        multiplicity(r, j) * (2 * k - 1) ** (r - j) for j in range(-1, r + 1)
    ]


@given(k=st.integers(1, 25), r=st.integers(0, 25))
@settings(max_examples=80)
def test_class_weights_close_the_telescope(k, r):
    assert sum(_class_weights(k, r)) == 4 * k * (2 * k + 1) ** r


def test_class_walk_returns_the_linear_scan_class():
    for k in range(1, 26):
        for r in range(26):
            weights = _class_weights(k, r)
            total = sum(weights)
            assert total == 4 * k * (2 * k + 1) ** r
            bounds = [sum(weights[: c + 1]) for c in range(len(weights) - 1)]
            xs = {0, total - 1}
            xs.update(x for b in bounds for x in (b - 1, b, b + 1) if x < total)
            for x in sorted(xs):
                cls = next(c for c, b in enumerate(bounds + [total]) if x < b)
                j, low, high, scale = _class_of(x, k, r)
                assert j == cls - 1
                if j >= 0:
                    assert (low, high) == (comb(r, j), comb(r, j + 1))
                assert scale == (2 * k - 1) ** (r + 1 if j < 0 else r - j)


def test_class_walk_overrun_raises():
    # No x below the total overruns; x = total stands for weights that do
    # not add up, and must be refused even under `python -O`.
    with pytest.raises(RuntimeError):
        _class_of(4 * 3 * 7**4, 3, 4)


class _WordLog:
    """A `random.Random` stand-in that logs the width of every
    `getrandbits` call it passes on to the seeded stream."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.widths = []

    def getrandbits(self, k):
        self.widths.append(k)
        return self.rng.getrandbits(k)


def _reference_columns(rng, n):
    """The draws of `_columns`, each through `_below`, with the class found
    by a linear scan over `_class_weights`."""
    bits = rng.getrandbits
    r = 0
    out = []
    for k in range(n, 0, -1):
        weights = _class_weights(k, r)
        x = _below(bits, 4 * k * (2 * k + 1) ** r)
        j = -1
        while x >= weights[j + 1]:
            x -= weights[j + 1]
            j += 1
        picks = [_below(bits, 2)]
        if j < 0:
            out.append((r, j, False, 0, picks))
            r += 1
            continue
        ag_w = comb(r, j + 1) << (j + 2)
        with_ag = _below(bits, ag_w + (comb(r, j) << (j + 1))) < ag_w
        size = j + with_ag
        rank = _below(bits, comb(r, size)) if size else 0
        picks += [_below(bits, 2) for _ in range(size)]
        out.append((r, j, with_ag, rank, picks))
        r -= j
    return out


@pytest.mark.parametrize("n", [1, 2, 5, 40, 300])
def test_columns_draw_the_words_of_the_below_reference(n):
    # The inline draws consume the words `_below` would, one for one, and
    # the coins are the reference's picks, the bottom one as bit 0.
    for seed in range(30 if n < 300 else 3):
        kernel, reference = _WordLog(seed), _WordLog(seed)
        got = list(_columns(kernel, n))
        want = _reference_columns(reference, n)
        assert kernel.widths == reference.widths, (n, seed)
        assert kernel.rng.getstate() == reference.rng.getstate(), (n, seed)
        assert [c[:4] for c in got] == [c[:4] for c in want], (n, seed)
        for (*_, coins), (*_, picks) in zip(got, want):
            assert coins == sum(b << i for i, b in enumerate(picks))


def _linear_unrank_subset(r, size, index):
    """index-th size-subset of {1..r}, skipping one candidate at a time."""
    out = []
    x = 1
    for remaining in range(size, 0, -1):
        while True:
            after = comb(r - x, remaining - 1)
            if index < after:
                out.append(x)
                x += 1
                break
            index -= after
            x += 1
    return out


@given(data=st.data(), r=st.integers(0, 400))
@settings(max_examples=200, deadline=None)
def test_subset_unranking_matches_the_linear_unranking(data, r):
    size = data.draw(st.integers(0, min(r, 8)))
    index = data.draw(st.integers(0, comb(r, size) - 1))
    assert _unrank_subset(r, size, index) == _linear_unrank_subset(r, size, index)


@pytest.mark.parametrize(
    "r, size", [(4, 0), (4, 1), (5, 2), (6, 3), (11, 5), (9, 9), (10, 1)]
)
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


@pytest.mark.parametrize(
    "n, count", [(0, 3), (10_001, 1), (3, -1), (3, 10**6 + 1)]
)
def test_iter_samples_refuses_at_the_call(n, count):
    # The checks run before the first draw is asked for, as in `sample_many`.
    with pytest.raises(ValueError):
        iter_samples(n, count, seed=1)


@pytest.mark.parametrize(
    "draw",
    [iter_samples, sample_many, sample_statistics,
     lambda n, count, seed: sample_uniform(n, seed)],
    ids=["iter_samples", "sample_many", "sample_statistics", "sample_uniform"],
)
def test_negative_seeds_are_refused_before_any_draw(draw, monkeypatch):
    # `random.Random` seeds with |seed|, so -7 would draw the stream of 7.
    monkeypatch.setattr(
        sampler.random, "Random", lambda seed: pytest.fail("a stream was seeded")
    )
    with pytest.raises(ValueError, match=r"^need seed >= 0, got -7$"):
        draw(4, 2, -7)


@pytest.mark.parametrize("n, count, seed", [(1, 5, 0), (5, 40, 3), (13, 6, 21)])
def test_sample_many_is_the_listed_stream(n, count, seed):
    lazy = iter_samples(n, count, seed)
    assert not isinstance(lazy, list)
    assert list(lazy) == sample_many(n, count, seed)


@pytest.mark.parametrize("draw", [sample_many, sample_statistics])
def test_counts_above_the_cap_are_refused(draw):
    with pytest.raises(ValueError, match=r"^need count <= 1000000, got 1000001$"):
        draw(3, 10**6 + 1, seed=1)


@pytest.mark.parametrize("draw", [iter_samples, sample_many, sample_statistics])
def test_columns_above_the_budget_are_refused(draw):
    with pytest.raises(ValueError, match=(
        r"^need n \* count <= 10000000 columns, got 10010000$"
    )):
        draw(10_000, 1001, seed=1)
    with pytest.raises(ValueError, match=r"^need n \* count .* got 11000000$"):
        draw(11, 10**6, seed=1)


def test_column_budget_keeps_a_million_small_draws():
    # Both calls sit at the budget or under it and are accepted; the lazy
    # stream draws nothing until it is asked.
    assert next(iter_samples(5, 10**6, seed=1)).n == 5
    iter_samples(10_000, 1000, seed=1)


def _sampled_fills(n, count, seed):
    """(r, (bottom, upper)) for each column `sample_many(n, count, seed)`
    writes, r being the AG-row count the fill is written above."""
    rng = random.Random(seed)
    for _ in range(count):
        for column in _columns(rng, n):
            yield column[0], _fill(*column)


def test_sampled_fills_equal_their_validated_twins():
    legal = {r: set(legal_fills(r)) for r in range(8)}
    cases = [(n, 20, seed) for n in range(1, 9) for seed in range(25)]
    for n, count, seed in cases + [(500, 1, 3)]:
        for r, pair in _sampled_fills(n, count, seed):
            # The checked constructor raises on an illegal pair.
            fill = ColumnFill(*pair)
            assert (fill.bottom, fill.upper) == pair
            if n <= 8:
                assert fill in legal[r]
            else:
                assert all(1 <= k <= r for k, _ in fill.upper)


def test_sampled_tableaux_have_the_uniform_probability():
    for n in range(1, 9):
        target = Fraction(1, total_count(n))
        for seed in range(25):
            for t in sample_many(n, 20, seed):
                assert probability_of(n, t) == target, (n, seed)


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


# Draw streams of the released sampler; a change to any of them changes what
# a published seed reproduces.
_PINNED_DRAWS = {
    (1, 0): [
        "1;1 1 D",
        "1;1 1 D",
        "1;1 1 D",
        "1;1 1 A",
    ],
    (6, 3): [
        "6;1 4 A;1 6 A;2 4 D;2 5 G;3 4 B;4 1 A;4 2 A;4 3 G;5 2 D;6 1 D",
        "6;1 3 D;1 6 A;2 5 A;3 1 A;3 4 G;4 3 D;5 2 G;6 1 B",
        "6;1 1 D;1 5 G;1 6 G;2 5 D;3 4 D;4 2 D;4 3 G;5 2 B;6 1 B",
        "6;1 2 G;1 6 A;2 1 G;2 5 G;3 1 D;3 4 G;4 3 G;5 2 B;6 1 B",
    ],
    (40, 11): [
        (
            "40;1 2 A;1 9 A;1 17 A;1 40 G;2 1 A;2 3 A;2 4 A;2 6 G;2 24 A;"
            "2 39 A;3 1 D;3 34 G;3 38 G;4 6 D;4 8 A;4 37 A;5 6 D;5 12 G;"
            "5 36 G;6 12 D;6 33 A;6 35 A;7 34 B;8 33 B;9 6 D;9 14 A;9 18 A;"
            "9 32 A;10 24 D;10 31 A;11 30 G;12 6 D;12 29 A;13 4 B;13 7 A;"
            "13 28 A;14 14 D;14 27 G;15 5 A;15 26 G;16 24 D;16 25 G;17 24 B;"
            "18 18 B;18 23 A;19 17 D;19 22 G;20 7 B;20 21 A;21 3 B;21 13 A;"
            "21 20 G;22 14 D;22 19 A;23 18 B;24 17 B;25 14 B;25 16 G;26 4 B;"
            "26 15 A;27 14 B;28 13 D;29 12 B;30 11 D;31 7 B;31 10 G;32 9 D;"
            "33 8 B;34 7 B;35 6 D;36 5 B;37 4 B;38 3 D;39 2 D;40 1 D"
        ),
        (
            "40;1 1 A;1 2 G;1 4 A;1 7 A;1 17 G;1 18 A;1 40 A;2 18 D;2 39 G;"
            "3 17 B;3 38 G;4 1 B;4 3 G;4 5 G;4 25 A;4 37 A;5 2 D;5 6 G;5 9 A;"
            "5 36 A;6 4 B;6 14 G;6 26 A;6 35 G;7 2 D;7 34 A;8 17 B;8 33 G;"
            "9 2 D;9 15 G;9 20 G;9 32 A;10 9 B;10 30 G;10 31 G;11 30 B;"
            "12 2 B;12 8 A;12 29 G;13 3 D;13 28 A;14 6 B;14 27 G;15 26 D;"
            "16 25 B;17 18 B;17 24 A;18 23 D;19 6 D;19 22 A;20 1 D;20 12 G;"
            "20 21 A;21 20 D;22 2 B;22 19 A;23 18 B;24 17 D;25 14 B;25 16 G;"
            "26 15 D;27 14 D;28 8 B;28 10 G;28 13 G;29 12 B;30 8 D;30 11 G;"
            "31 10 B;32 9 D;33 8 D;34 7 D;35 6 B;36 5 B;37 4 B;38 3 D;39 2 B;"
            "40 1 B"
        ),
        (
            "40;1 5 G;1 6 G;1 17 G;1 28 G;1 32 A;1 34 G;1 40 G;2 1 B;2 2 G;"
            "2 3 G;2 39 A;3 28 D;3 36 G;3 38 A;4 17 D;4 33 G;4 37 G;5 36 D;"
            "6 17 B;6 35 G;7 34 B;8 33 B;9 32 B;10 5 D;10 31 G;11 28 D;"
            "11 30 A;12 2 B;12 4 A;12 22 A;12 29 G;13 28 B;14 3 D;14 19 G;"
            "14 27 G;15 5 D;15 26 G;16 17 D;16 25 A;17 4 B;17 7 G;17 18 A;"
            "17 24 A;18 1 D;18 12 A;18 23 A;19 22 D;20 5 B;20 21 G;21 6 D;"
            "21 20 G;22 19 D;23 18 B;24 17 B;25 5 B;25 11 A;25 16 A;26 5 B;"
            "26 15 A;27 11 D;27 14 A;28 3 B;28 8 A;28 13 G;29 12 B;30 11 D;"
            "31 3 D;31 10 G;32 7 B;32 9 G;33 8 B;34 7 B;35 6 D;36 5 D;37 4 D;"
            "38 3 B;39 2 B;40 1 D"
        ),
        (
            "40;1 8 B;1 10 A;1 11 A;1 40 A;2 1 G;2 2 G;2 3 A;2 4 G;2 18 A;"
            "2 39 G;3 11 B;3 19 A;3 38 A;4 4 B;4 14 G;4 26 A;4 37 G;5 19 D;"
            "5 22 G;5 36 A;6 3 D;6 7 G;6 16 G;6 35 G;7 11 B;7 13 A;7 23 G;"
            "7 32 G;7 34 G;8 23 D;8 33 A;9 32 D;10 4 D;10 31 A;11 16 D;"
            "11 30 G;12 11 B;12 25 G;12 29 A;13 4 B;13 12 A;13 15 A;13 28 A;"
            "14 15 D;14 27 G;15 26 D;16 25 B;17 1 B;17 24 G;18 23 B;19 22 D;"
            "20 2 D;20 5 G;20 21 G;21 2 B;21 6 A;21 20 A;22 19 B;23 18 D;"
            "24 1 B;24 17 G;25 16 B;26 15 B;27 14 D;28 13 B;29 12 D;30 11 B;"
            "31 10 D;32 1 D;32 9 G;33 8 B;34 7 D;35 6 D;36 5 D;37 4 D;38 3 B;"
            "39 2 D;40 1 D"
        ),
    ],
}


@pytest.mark.parametrize("n, seed", sorted(_PINNED_DRAWS))
def test_seeded_draw_streams_are_pinned(n, seed):
    assert [to_line(t) for t in sample_many(n, 4, seed)] == _PINNED_DRAWS[n, seed]


# sha256 of `repr(sample_statistics(n, count, seed))` and of
# `repr(rng.getstate())` after `count` full passes of `_columns(rng, n)` from
# `random.Random(seed)`, as the sampler drew them before its coins and totals
# were drawn inline: the draws and the words they consume are unchanged.
_PINNED_STREAMS = {
    (1, 200, 0): (
        "bd47a1d29660c4e8325716c968e4a22674cc0bab62a3890ee239dcdc861eca80",
        "a18cb428c87fec94a0e15ffbe75b2788aedf6b0a611eabb9f83b5e3ddd27cb2e",
    ),
    (5, 3000, 7): (
        "b702e0d61b724d71315e034d3940a302194d3c4ed2e16e3a0daf87ef696d11cc",
        "45e67073746fe17e80832052621b69bdc9ea7f795010bf75e25d8982499be096",
    ),
    (40, 50, 3): (
        "ac5f2b74e758b94a1fbc4fcb2453f081a3031cf806ccf380649a6858659660d5",
        "a210ff1579698a710800c2290535ed6f4828afa512ba50787cc809edc0b45bcb",
    ),
    (500, 2, 11): (
        "c13e3ea3683304c1cdfa5cd590b61f922460da9823069b7436535a51a25a0c5b",
        "56de9530cf8e9e796b9d9e3e3e6ddad44c23bb72c5188d8ed67b33423050d582",
    ),
}


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("n, count, seed", sorted(_PINNED_STREAMS))
def test_statistics_streams_and_word_use_are_pinned(n, count, seed):
    stats_pin, state_pin = _PINNED_STREAMS[n, count, seed]
    assert _sha(sample_statistics(n, count, seed)) == stats_pin
    rng = random.Random(seed)
    for _ in range(count):
        for _ in _columns(rng, n):
            pass
    assert _sha(rng.getstate()) == state_pin


def _run_optimized_and_plain(*argv):
    src = Path(staircase_tableaux.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return [
        subprocess.run(
            [sys.executable, *flag, "-m", "staircase_tableaux", *argv],
            capture_output=True, text=True, env=env,
        )
        for flag in (["-O"], [])
    ]


def test_pinned_stream_draws_under_optimize_flag():
    # Neither the draws nor their guards may rest on `assert`.
    proc, _ = _run_optimized_and_plain(
        "sample", "--n", "6", "--count", "4", "--seed", "3"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(line + "\n" for line in _PINNED_DRAWS[6, 3])
    # `--format csv` reads `sample_statistics`, the counts path.
    optimized, plain = _run_optimized_and_plain(
        "sample", "--n", "5", "--count", "3000", "--seed", "7",
        "--format", "csv", "--no-timestamp",
    )
    assert optimized.returncode == plain.returncode == 0, optimized.stderr
    assert optimized.stdout.count("\n") > 3000
    assert optimized.stdout == plain.stdout


def test_sample_statistics_matches_resampling():
    cases = [(4, 6, 5)] + [
        (n, count, seed)
        for n, count in [(1, 50), (2, 50), (5, 200), (40, 20), (300, 3)]
        for seed in (0, 7, 20250823)
    ]
    for n, count, seed in cases:
        stats = sample_statistics(n, count, seed)
        tableaux = sample_many(n, count, seed)
        assert stats == [statistics(t) for t in tableaux], (n, count, seed)


def test_sample_statistics_refuses_a_walk_that_breaks_the_row_identity(
    monkeypatch,
):
    # The second column claims r = 0 AG rows where the first left one, so
    # the walk ends at r = 0 with one beta/delta entry: r + delta = 1 != 2.
    columns = [(0, -1, False, 0, 0), (0, 0, False, 0, 0)]
    monkeypatch.setattr(sampler, "_columns", lambda rng, n: iter(columns))
    with pytest.raises(RuntimeError, match="do not split n = 2"):
        sample_statistics(2, 1, seed=0)


def test_sample_statistics_rejects_bad_sizes():
    assert sample_statistics(3, 0, seed=1) == []
    with pytest.raises(ValueError):
        sample_statistics(0, 1, seed=1)
    with pytest.raises(ValueError):
        sample_statistics(3, -1, seed=1)


# ---------------------------------------------------------------- validity


@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_draws_are_valid(n, seed):
    assert validate(sample_uniform(n, seed)) == []


def test_a_large_draw_is_valid():
    t = sample_uniform(2000, seed=3)
    assert t.n == 2000 and validate(t) == []


def test_small_size_draws_cover_the_whole_space():
    # 3000 draws over 32 equally likely tableaux: missing one has
    # probability < 1e-40 at this seed-pinned run.
    seen = {to_line(t) for t in sample_many(2, 3000, seed=8)}
    assert len(seen) == total_count(2)


def test_r_frequencies_pass_a_coarse_chi_square():
    n, draws = 3, 5000
    d = dist_r(n)
    counts = {v: 0 for v in d.support()}
    for t in sample_many(n, draws, seed=1234):
        counts[statistics(t).r] += 1
    stat = sum(
        (counts[v] - float(d.p(v)) * draws) ** 2 / (float(d.p(v)) * draws)
        for v in d.support()
    )
    assert chi2_sf(stat, len(counts) - 1) > 1e-3
