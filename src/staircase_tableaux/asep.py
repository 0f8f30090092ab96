"""Open-boundary asymmetric exclusion chain and its tableaux steady state.

The chain lives on words of n sites, each empty or occupied.  A step picks
one of n+1 locations uniformly: location 0 toggles site 1 (fill with
probability alpha when empty, empty with probability gamma when occupied),
location n toggles site n (empty with probability beta, fill with delta),
and location i in 1..n-1 swaps an occupied/empty pair across the bond
(right hop with probability u, left hop with probability q).  `ASEPChain`
holds each state's outgoing moves with integer weights over one
denominator; unused mass stays put, so rows are stochastic by construction.

The stationary law is proportional to the tableaux partition functions:
pi(sigma) = Z_sigma / Z_n, with Z_sigma the total weight of the staircase
tableaux whose type word is sigma evaluated at the chain parameters.
`_type_weights` computes every Z_sigma, times one known denominator, by a
column-growth transfer DP in integers, for n up to the chain's own cap of 8,
and `partition_functions` returns them as `Fraction`s;
`_enumerated_type_weights` sums over every tableau instead (n <= 6): it is
the DP's exact oracle, and `asep-grid` compares the two integer rows.
`stationary` solves for the law in floats, or returns Z_sigma / Z_n once it
passes global balance exactly, in integers, on the moves (`_balance_defect`).
`verify_steady_state` checks the identity and reports the residual
max |pi P - pi| alongside.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import TYPE_CHECKING

from .core import Tableau, WeightMonomial, type_word, weight
from .enumerator import _ENUM_LIMIT, enumerate_all

if TYPE_CHECKING:
    import numpy as np

#: Largest n of the chain and of the partition-function DP alike; the float
#: solve is dense in the 2**n states, so larger systems want a sparse one.
_DENSE_LIMIT = 8

#: Largest denominator of a rate given as text.  Every exact output is a
#: ratio of integers below 4**n n! D**(n(n+1)/2), D the lcm of the six
#: denominators, so D <= (10**9)**6 keeps it under 4228 digits at n = 12,
#: inside Python's 4300-digit limit for printing an integer.
_RATE_DENOMINATOR_LIMIT = 10**9

#: Longest rate text, and largest decimal exponent in it, that reaches
#: `Fraction`, which builds 10**e for an exponent e.  Within 100 characters
#: a mantissa is below 10**95, so a nonzero rate with an exponent beyond
#: +-110 has a denominator above 10**9 or a value above 1 anyway; only zero
#: written with such an exponent is refused for the exponent alone.
_RATE_TEXT_LIMIT = 100
_RATE_EXPONENT_LIMIT = 110
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")

_RATES = ("alpha", "beta", "gamma", "delta", "q", "u")


class ReducibleChainError(ValueError):
    """Stationary solve refused: some parameter is zero, so the chain may not
    visit every state and its stationary law need not be unique."""


@dataclass(frozen=True)
class ASEPParams:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    q: Fraction
    u: Fraction

    def __post_init__(self) -> None:
        for name in _RATES:
            value = Fraction(getattr(self, name))
            object.__setattr__(self, name, value)
            if not 0 <= value <= 1:
                raise ValueError(f"{name}={value} outside [0, 1]")

    def strictly_positive(self) -> bool:
        return all(getattr(self, name) > 0 for name in _RATES)

    def scaled(self) -> tuple[int, list[int]]:
        """(D, rates times D): the six rates, in field order, as integers over
        D, the lcm of their denominators."""
        rates = [getattr(self, name) for name in _RATES]
        den = lcm(*[x.denominator for x in rates])
        return den, [x.numerator * (den // x.denominator) for x in rates]

    @classmethod
    def from_strings(cls, *values: str) -> ASEPParams:
        """The six rates from strings such as "1/3", in field order; a zero
        denominator, or one above `_RATE_DENOMINATOR_LIMIT`, is a ValueError
        like any other malformed rate.  Text that would be slow to parse
        (`_RATE_TEXT_LIMIT`, `_RATE_EXPONENT_LIMIT`) is refused unparsed."""
        rates = []
        for name, text in zip(_RATES, values, strict=True):
            if len(text) > _RATE_TEXT_LIMIT:
                raise ValueError(
                    f"{name} is {len(text)} characters long, "
                    f"above {_RATE_TEXT_LIMIT}"
                )
            exponent = _EXPONENT.search(text)
            e = int(exponent.group(1).replace("_", "")) if exponent else 0
            if e < -_RATE_EXPONENT_LIMIT:
                raise ValueError(
                    f"{name}={text} has a denominator above {_RATE_DENOMINATOR_LIMIT}"
                )
            if e > _RATE_EXPONENT_LIMIT:
                raise ValueError(
                    f"{name}={text} has a decimal exponent above {_RATE_EXPONENT_LIMIT}"
                )
            try:
                rate = Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"{name}={text} has a zero denominator") from None
            except ValueError:
                raise ValueError(f"{name}={text} is not a rational number") from None
            if rate.denominator > _RATE_DENOMINATOR_LIMIT:
                raise ValueError(
                    f"{name}={text} has a denominator above {_RATE_DENOMINATOR_LIMIT}"
                )
            rates.append(rate)
        return cls(*rates)


def state_bits(state: int, n: int) -> str:
    """Word of site occupancies, leftmost site first."""
    return format(state, f"0{n}b")


@dataclass(frozen=True)
class ASEPChain:
    """The chain on all 2**n words, held as each state's outgoing moves.

    ``moves[s]`` lists (target, weight) pairs, one per target: the step from
    s to target has probability weight / ``denominator``, where the integer
    weights share the one denominator (n + 1) D, D the lcm of the rates'
    denominators.  The mass left over stays put.  The moves derive from
    (n, params) alone.
    """

    n: int
    params: ASEPParams
    moves: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if not 1 <= n <= _DENSE_LIMIT:
            raise ValueError(f"need 1 <= n <= {_DENSE_LIMIT}, got {n}")
        den, (a, b, g, d, q, u) = self.params.scaled()
        left = 1 << (n - 1)
        moves = []
        for s in range(1 << n):
            # A dict, because at n = 1 both boundaries toggle the one site.
            out: defaultdict[int, int] = defaultdict(int)
            out[s ^ left] += g if s & left else a
            out[s ^ 1] += b if s & 1 else d
            for i in range(n - 1):
                bond = (s >> i) & 3  # high bit: the left site of the bond
                if bond == 0b10:
                    out[s ^ (3 << i)] += u
                elif bond == 0b01:
                    out[s ^ (3 << i)] += q
            # A tuple of a list: growing one from a generator fragments the
            # heap enough to raise the peak RSS of many small chains.
            moves.append(tuple([(t, w) for t, w in out.items() if w]))
        object.__setattr__(self, "moves", tuple(moves))
        object.__setattr__(self, "denominator", (n + 1) * den)

    @property
    def size(self) -> int:
        return 1 << self.n

    def to_numpy(self) -> np.ndarray:
        """The transition matrix as a read-only float array, built once per
        chain; each entry is its exact probability rounded once."""
        return self._dense

    @cached_property
    def _dense(self) -> np.ndarray:
        import numpy as np

        den = self.denominator
        dense = np.zeros((self.size, self.size))
        for s, moves in enumerate(self.moves):
            for t, w in moves:
                dense[s, t] = w / den
            dense[s, s] = (den - sum(w for _, w in moves)) / den
        dense.flags.writeable = False
        return dense


def build_chain(n: int, params: ASEPParams) -> ASEPChain:
    """The chain on all 2**n words, for 1 <= n <= 8."""
    return ASEPChain(n, params)


def _require_positive(params: ASEPParams) -> None:
    if not params.strictly_positive():
        raise ReducibleChainError(
            "all six parameters must be strictly positive for a unique "
            "stationary law"
        )


def stationary(chain: ASEPChain, exact: bool = False) -> list[Fraction] | np.ndarray:
    """The unique law with pi P = pi, sum pi = 1.

    Float mode is one dense linear solve.  Exact mode returns
    Z_sigma / Z_n, accepted only once it passes global balance exactly on the
    chain's moves: the rates are strictly positive, so the chain is
    irreducible and a balanced law is the law.
    """
    _require_positive(chain.params)
    if not exact:
        import numpy as np

        a = chain.to_numpy().T - np.eye(chain.size)
        a[-1, :] = 1.0
        b = np.zeros(chain.size)
        b[-1] = 1.0
        return np.linalg.solve(a, b)
    weights = _type_weights(chain.n, chain.params)
    defect = _balance_defect(chain, weights)
    if defect:
        raise RuntimeError(
            f"Z_sigma / Z_n fails global balance on the n = {chain.n} chain "
            f"at {chain.params}: max |pi P - pi| = {defect}"
        )
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _balance_defect(chain: ASEPChain, weights: list[int]) -> Fraction:
    """max over states of |(pi P)_s - pi_s| for pi proportional to the
    integer `weights`, in integers: each move s -> t carries weights[s] w
    from s to t, and the stay mass carries none."""
    net = [0] * chain.size
    for s, moves in enumerate(chain.moves):
        for t, w in moves:
            net[t] += weights[s] * w
            net[s] -= weights[s] * w
    return Fraction(max(map(abs, net)), sum(weights) * chain.denominator)


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
    """(Z_n, per-type Z_sigma) from `_type_weights`, for n <= 8."""
    sums = _type_weights(n, params)
    scale = params.scaled()[0] ** (n * (n + 1) // 2)
    by_type = {state_bits(s, n): Fraction(z, scale) for s, z in enumerate(sums)}
    return Fraction(sum(sums), scale), by_type


def _type_weights(n: int, params: ASEPParams) -> list[int]:
    """Z_sigma D**(n(n+1)/2), listed by chain state (`state_bits`), by a
    column-growth transfer DP, for n <= 8.

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
    _, (a, b, g, d, q, u) = params.scaled()
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
    return sums


def _enumerated_type_weights(n: int, params: ASEPParams) -> list[int]:
    """`_type_weights` by full enumeration, for n <= 6: the DP's exact oracle.

    It sums the weight monomial of every tableau, so it shares nothing with
    the DP but the filling rules.  The monomials come from one walk per n
    (`_weight_census`); each distinct one is evaluated once per setting, on
    the rates scaled to integers over D.  Every monomial has degree
    n(n+1)/2, so each sum is Z_sigma D**(n(n+1)/2), the DP's integer.
    """
    if not 1 <= n <= _ENUM_LIMIT:
        raise ValueError(
            f"enumeration-backed partition functions need n <= {_ENUM_LIMIT}, got {n}"
        )
    _, (a, b, g, d, q, u) = params.scaled()
    sums = [0] * (1 << n)
    for (bits, w), count in _weight_census(n):
        sums[int(bits, 2)] += count * w.evaluate(a, b, g, d, u, q)
    return sums


@lru_cache(maxsize=None)
def _weight_census(n: int) -> tuple[tuple[tuple[str, WeightMonomial], int], ...]:
    """How many size-n tableaux have each (type word, weight monomial): one
    walk per n and process, free of any setting."""
    census: Counter[tuple[str, WeightMonomial]] = Counter()

    def visit(t: Tableau) -> None:
        census[type_word(t), weight(t)] += 1

    enumerate_all(n, visit)
    return tuple(census.items())


@dataclass(frozen=True)
class SteadyStateReport:
    """``max_deviation`` compares pi with Z_sigma / Z_n and decides ``passed``;
    ``residual`` is the law's own error max |pi P - pi|, a float in float
    mode and a Fraction in exact mode.  In exact mode pi is Z_sigma / Z_n
    itself, so ``max_deviation`` is that balance defect as a float."""

    n: int
    params: ASEPParams
    max_deviation: float
    residual: float | Fraction
    tol: float
    passed: bool
    exact: bool


def verify_steady_state(
    n: int, params: ASEPParams, tol: float = 1e-10, exact: bool = False
) -> SteadyStateReport:
    """Compare the chain's stationary law against Z_sigma / Z_n.

    Float mode solves for the law and compares; exact mode reports the exact
    balance defect of Z_sigma / Z_n on the chain's moves.
    """
    chain = build_chain(n, params)
    _require_positive(params)
    return _steady_state_report(chain, _type_weights(n, params), tol, exact)


def _steady_state_report(
    chain: ASEPChain, weights: list[int], tol: float, exact: bool
) -> SteadyStateReport:
    """`verify_steady_state` against already computed `_type_weights`, so a
    caller running both modes computes them once.  The rates must be
    strictly positive."""
    if exact:
        residual = _balance_defect(chain, weights)
        max_dev = float(residual)
    else:
        import numpy as np

        pi = stationary(chain)
        residual = float(np.max(np.abs(pi @ chain.to_numpy() - pi)))
        total = sum(weights)
        # int / int rounds once, as float(Fraction(w, total)) does.
        max_dev = max(abs(float(p) - w / total) for p, w in zip(pi, weights))
    return SteadyStateReport(
        chain.n, chain.params, max_dev, residual, tol, max_dev < tol, exact
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
