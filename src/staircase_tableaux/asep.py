"""Open-boundary asymmetric exclusion chain and its tableaux steady state.

The chain lives on words of n sites, each empty or occupied.  A step picks
one of n+1 locations uniformly: location 0 toggles site 1 (fill with
probability alpha when empty, empty with probability gamma when occupied),
location n toggles site n (empty with probability beta, fill with delta),
and location i in 1..n-1 swaps an occupied/empty pair across the bond
(right hop with probability u, left hop with probability q).  Unused mass
stays put, so rows are stochastic by construction.

The stationary law is proportional to the tableaux partition functions:
pi(sigma) = Z_sigma / Z_n, with Z_sigma the total weight of the staircase
tableaux whose type word is sigma evaluated at the chain parameters.
`partition_functions` computes every Z_sigma by a column-growth transfer DP in
integers, for n up to the chain's own cap of 8;
`enumerated_partition_functions` sums over every tableau instead (n <= 6) and
is the DP's exact oracle.  `verify_steady_state` checks the identity
numerically (or exactly, in rational mode) and reports the solve's residual
max |pi P - pi| alongside.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .core import Tableau, type_word, weight
from .enumerator import _ENUM_LIMIT, enumerate_all

#: Largest n of the dense chain and of the partition-function DP alike.
_DENSE_LIMIT = 8


class ReducibleChainError(ValueError):
    """Stationary solve refused: some parameter is zero, so the chain may not
    visit every state, or the balance system turned out singular."""


@dataclass(frozen=True)
class ASEPParams:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    q: Fraction
    u: Fraction

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta", "q", "u"):
            value = Fraction(getattr(self, name))
            object.__setattr__(self, name, value)
            if not 0 <= value <= 1:
                raise ValueError(f"{name}={value} outside [0, 1]")

    def strictly_positive(self) -> bool:
        return all(
            getattr(self, name) > 0
            for name in ("alpha", "beta", "gamma", "delta", "q", "u")
        )

    @classmethod
    def from_strings(cls, *values: str) -> ASEPParams:
        return cls(*(Fraction(v) for v in values))


def state_bits(state: int, n: int) -> str:
    """Word of site occupancies, leftmost site first."""
    return format(state, f"0{n}b")


@dataclass(frozen=True)
class ASEPChain:
    n: int
    params: ASEPParams
    matrix: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return 1 << self.n

    def to_numpy(self) -> np.ndarray:
        """The matrix as a read-only float array, converted once per chain."""
        return self._dense

    @cached_property
    def _dense(self) -> np.ndarray:
        dense = np.array(
            [[float(p) for p in row] for row in self.matrix], dtype=float
        )
        dense.flags.writeable = False
        return dense


def build_chain(n: int, params: ASEPParams) -> ASEPChain:
    """Exact row-stochastic transition matrix on all 2**n words."""
    if not 1 <= n <= _DENSE_LIMIT:
        raise ValueError(
            f"need 1 <= n <= {_DENSE_LIMIT}, got {n}: the dense matrix has "
            "4**n entries; larger systems want a sparse treatment"
        )
    size = 1 << n
    loc = Fraction(1, n + 1)
    rows = []
    for s in range(size):
        row = [Fraction(0)] * size
        stay = Fraction(1)

        def hop(target: int, p: Fraction) -> None:
            nonlocal stay
            row[target] += loc * p
            stay -= loc * p

        left = 1 << (n - 1)
        if s & left:
            hop(s ^ left, params.gamma)
        else:
            hop(s | left, params.alpha)
        if s & 1:
            hop(s ^ 1, params.beta)
        else:
            hop(s | 1, params.delta)
        for i in range(1, n):
            hi = 1 << (n - i)
            lo = 1 << (n - i - 1)
            pair = (bool(s & hi), bool(s & lo))
            if pair == (True, False):
                hop(s ^ hi ^ lo, params.u)
            elif pair == (False, True):
                hop(s ^ hi ^ lo, params.q)
        row[s] += stay
        rows.append(tuple(row))
    chain = ASEPChain(n, params, tuple(rows))
    # Zeros skipped: a row has at most n + 3 nonzero entries.
    assert all(sum(filter(None, row)) == 1 for row in chain.matrix)
    return chain


def stationary(chain: ASEPChain, exact: bool = False) -> list[Fraction] | np.ndarray:
    """Solve pi P = pi, sum pi = 1.

    Float mode uses a dense linear solve; exact mode runs Fraction-valued
    Gaussian elimination and returns rationals (intended for small n).
    """
    if not chain.params.strictly_positive():
        raise ReducibleChainError(
            "all six parameters must be strictly positive for a unique "
            "stationary law"
        )
    size = chain.size
    if not exact:
        a = chain.to_numpy().T - np.eye(size)
        a[-1, :] = 1.0
        b = np.zeros(size)
        b[-1] = 1.0
        return np.linalg.solve(a, b)
    # (P^T - I) pi = 0 with the last balance equation swapped for sum = 1.
    m = [
        [chain.matrix[i][j] - (1 if i == j else 0) for i in range(size)]
        for j in range(size)
    ]
    m[-1] = [Fraction(1)] * size
    rhs = [Fraction(0)] * size
    rhs[-1] = Fraction(1)
    for col in range(size):
        pivot = next(
            (r for r in range(col, size) if m[r][col] != 0), None
        )
        if pivot is None:
            raise ReducibleChainError(
                "singular system: the chain has no unique stationary law"
            )
        m[col], m[pivot] = m[pivot], m[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / m[col][col]
        m[col] = [inv * v for v in m[col]]
        rhs[col] = inv * rhs[col]
        for r in range(size):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
                rhs[r] = rhs[r] - factor * rhs[col]
    return rhs


def _slot_tables(
    r_max: int, a: int, b: int, g: int, d: int, u: int, q: int
) -> list[tuple[dict[tuple[int, int], int], ...]]:
    """Weights of the fills of k AG slots above a beta/delta bottom, k <= r_max.

    ``tables[k][0]`` is for slots whose nearest occupied box below reads u
    (a delta bottom), ``tables[k][1]`` for one that reads q (a beta bottom).
    Each maps (betas placed, deltas placed) to the summed weight of those
    fills.  The slots are walked bottom-up: an empty slot takes the label of
    the nearest occupied box below, a beta makes the slots above read q, a
    delta makes them read u, and an alpha or gamma is the topmost occupied
    box, closing the column with u (alpha) or q (gamma) on every slot above.
    """
    tables = [({(0, 0): 1}, {(0, 0): 1})]
    for k in range(1, r_max + 1):
        below_u, below_q = tables[k - 1]
        placed = {(0, 0): a * u ** (k - 1) + g * q ** (k - 1)}
        for (nb, nd), w in below_q.items():
            placed[nb + 1, nd] = placed.get((nb + 1, nd), 0) + b * w
        for (nb, nd), w in below_u.items():
            placed[nb, nd + 1] = placed.get((nb, nd + 1), 0) + d * w
        rows = []
        for label, below in ((u, below_u), (q, below_q)):
            row = dict(placed)
            for key, w in below.items():  # the lowest slot left empty
                row[key] = row.get(key, 0) + label * w
            rows.append(row)
        tables.append(tuple(rows))
    return tables


def partition_functions(
    n: int, params: ASEPParams
) -> tuple[Fraction, dict[str, Fraction]]:
    """(Z_n, per-type Z_sigma) by a column-growth transfer DP, for n <= 8.

    Columns are prepended in the walk's order (column n-m gets its diagonal
    box in row m+1), and prepending one never relabels older boxes, so each
    tableau's weight is a product of per-column factors.  The state is (type
    word prefix, AG-row count r, beta-row count); the rows that are not AG
    rows have beta or delta leftmost, and their boxes in the new column are
    empty and read u (beta) or q (delta).  An alpha bottom adds alpha u^r and
    a gamma bottom gamma q^r; a beta or delta bottom adds its symbol times the
    fills of the r AG slots (`_slot_tables`).  Every rate is scaled to an
    integer over D, the lcm of their denominators; a size-n tableau has
    n(n+1)/2 boxes, so each Z_sigma is an integer over D**(n(n+1)/2).
    """
    if not 1 <= n <= _DENSE_LIMIT:
        raise ValueError(f"need 1 <= n <= {_DENSE_LIMIT}, got {n}")
    rates = (
        params.alpha, params.beta, params.gamma, params.delta, params.u,
        params.q,
    )
    den = lcm(*(x.denominator for x in rates))
    a, b, g, d, u, q = (x.numerator * (den // x.denominator) for x in rates)
    u_pow = [u**k for k in range(n)]
    q_pow = [q**k for k in range(n)]
    tables = _slot_tables(n - 1, a, b, g, d, u, q)
    # (type word so far, leftmost site as the high bit; r; beta rows) -> weight
    states: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    for m in range(n):
        grown: defaultdict[tuple[int, int, int], int] = defaultdict(int)
        for (word, r, n_beta), w in states.items():
            w *= u_pow[n_beta] * q_pow[m - r - n_beta]
            if not w:
                continue
            filled, empty = word << 1 | 1, word << 1
            grown[filled, r + 1, n_beta] += w * a * u_pow[r]
            grown[empty, r + 1, n_beta] += w * g * q_pow[r]
            below_u, below_q = tables[r]
            w_beta, w_delta = w * b, w * d
            for (nb, nd), t in below_q.items():
                grown[empty, r - nb - nd, n_beta + nb + 1] += w_beta * t
            for (nb, nd), t in below_u.items():
                grown[filled, r - nb - nd, n_beta + nb] += w_delta * t
        states = grown
    sums = [0] * (1 << n)
    for (word, _, _), w in states.items():
        sums[word] += w
    scale = den ** (n * (n + 1) // 2)
    by_type = {state_bits(s, n): Fraction(z, scale) for s, z in enumerate(sums)}
    return Fraction(sum(sums), scale), by_type


def enumerated_partition_functions(
    n: int, params: ASEPParams
) -> tuple[Fraction, dict[str, Fraction]]:
    """(Z_n, per-type Z_sigma) by full enumeration, for n <= 6.

    The exact oracle for `partition_functions`: it sums the weight monomial of
    every tableau, so it shares nothing with the DP but the filling rules.
    """
    if not 1 <= n <= _ENUM_LIMIT:
        raise ValueError(
            f"enumeration-backed partition functions need n <= {_ENUM_LIMIT}, got {n}"
        )
    by_type: dict[str, Fraction] = {
        format(s, f"0{n}b"): Fraction(0) for s in range(1 << n)
    }

    def visit(t: Tableau) -> None:
        w = weight(t).evaluate(
            params.alpha, params.beta, params.gamma, params.delta,
            params.u, params.q,
        )
        by_type[type_word(t).as_bits()] += w

    enumerate_all(n, visit)
    total = sum(by_type.values(), Fraction(0))
    return total, by_type


@dataclass(frozen=True)
class SteadyStateReport:
    """``max_deviation`` compares pi with Z_sigma / Z_n and decides ``passed``;
    ``residual`` is the solve's own error max |pi P - pi|, a float in float
    mode and a Fraction in exact mode."""

    n: int
    params: ASEPParams
    max_deviation: float
    residual: float | Fraction
    tol: float
    passed: bool
    exact: bool


def _residual(
    chain: ASEPChain, pi: list[Fraction] | np.ndarray, exact: bool
) -> float | Fraction:
    """max over states of |(pi P)_s - pi_s|."""
    if not exact:
        return float(np.max(np.abs(pi @ chain.to_numpy() - pi)))
    flow = [Fraction(0)] * chain.size
    for p_from, row in zip(pi, chain.matrix):
        for s, p in enumerate(row):
            if p:
                flow[s] += p_from * p
    return max(abs(f - p) for f, p in zip(flow, pi))


def verify_steady_state(
    n: int, params: ASEPParams, tol: float = 1e-10, exact: bool = False
) -> SteadyStateReport:
    """Compare the chain's stationary law against Z_sigma / Z_n."""
    chain = build_chain(n, params)
    pi = stationary(chain, exact=exact)
    total, by_type = partition_functions(n, params)
    if exact:
        devs = [
            abs(pi[s] - by_type[state_bits(s, n)] / total)
            for s in range(1 << n)
        ]
        max_dev = float(max(devs))
    else:
        max_dev = max(
            abs(float(pi[s]) - float(by_type[state_bits(s, n)] / total))
            for s in range(1 << n)
        )
    return SteadyStateReport(
        n, params, max_dev, _residual(chain, pi, exact), tol, max_dev < tol,
        exact,
    )


#: Fixed parameter settings used by the verification suite.  Chosen to cover
#: the symmetric point, unequal boundary rates, q != u in both directions, and
#: the all-ones corner where Z_n collapses to the tableau count.
PARAMETER_GRID: tuple[ASEPParams, ...] = (
    ASEPParams.from_strings("1/2", "1/2", "1/2", "1/2", "1/3", "2/3"),
    ASEPParams.from_strings("1/2", "1/2", "1/4", "1/4", "1/5", "3/5"),
    ASEPParams.from_strings("1/3", "2/3", "1/5", "2/5", "1/7", "3/7"),
    ASEPParams.from_strings("9/10", "1/10", "3/10", "7/10", "2/5", "4/5"),
    ASEPParams.from_strings("1", "1", "1", "1", "1", "1"),
)
