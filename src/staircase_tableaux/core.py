"""Staircase tableau data model: filling rules, type words, u/q labels, statistics.

A staircase tableau of size n fills the Young diagram of shape (n, n-1, ..., 1)
with symbols from {alpha, beta, gamma, delta}; boxes not holding a symbol are
empty.  A filling is legal when

* every diagonal box is filled,
* every box left of a beta or delta in the same row is empty,
* every box above an alpha or gamma in the same column is empty.

Coordinates are (row, column) pairs with rows 1..n numbered top to bottom and
row i spanning columns 1..n+1-i, so the diagonal box of row i is (i, n+1-i)
and the diagonal is read NE to SW by increasing row index.  Empty boxes are
absent from the cell mapping.  A size-0 tableau (no boxes) is admitted as the
growth root used by the enumerator and the sampler.  Validation happens once
per tableau: `check_valid`, behind every statistic, marks a tableau that
passes, and tableaux grown by the enumerator's walk or the sampler are born
marked, so never validated: `_leaf` fills a mutable `_Draft` with `Tableau`'s
slots and switches its class.  `validate` and `is_valid` always run the rules.
Beside the check mark, a tableau the walk yields carries its `StatVector`,
stamped from counts the walk keeps along the path; `statistics` returns that
stamp and reads the cells of every other tableau.  A tableau's `cells` is a
read-only `FrozenCells`, so a marked or stamped tableau cannot change after
its check, and tableaux compare and hash by (n, cells); `Tableau` is
slotted, so a tableau has no `__dict__`.  A walk leaf's cells are built on
their first read, so a visitor that reads only the stamp copies no cells.
What is read off a tableau is a plain value: `type_word` gives the diagonal
as a bit string, `label_uq` a dict from each empty box to its `Label`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping

Cell = tuple[int, int]


class GreekSymbol(Enum):
    ALPHA = "A"
    BETA = "B"
    GAMMA = "G"
    DELTA = "D"

    __hash__ = object.__hash__  # `==` is identity; Enum's hash runs in Python

    is_ag: bool  # alpha/gamma class: the column-restricted symbols
    is_bd: bool  # beta/delta class: the row-restricted symbols
    fills_site: bool  # reads as an occupied site in the type word


# Tuples, in the sampler's draw order: membership tests identity, no hash.
_AG = (GreekSymbol.ALPHA, GreekSymbol.GAMMA)
_BD = (GreekSymbol.BETA, GreekSymbol.DELTA)
_SITE = (GreekSymbol.ALPHA, GreekSymbol.DELTA)
for _s in GreekSymbol:  # set once, so reading one makes no call
    _s.is_ag, _s.is_bd, _s.fills_site = _s in _AG, _s in _BD, _s in _SITE
del _s


class Label(Enum):
    U = "u"
    Q = "q"


class InvalidTableauError(ValueError):
    """An operation that requires a valid tableau received one with violations."""


@dataclass(frozen=True)
class Violation:
    """A single broken filling rule, pointing at the offending box."""

    rule: str
    cell: Cell | None


class FrozenCells(dict):
    """A read-only dict of cells: every mutator raises `TypeError`.

    A tableau marked as checked is never validated again, so its cells must
    not change after the mark.  Reads run at plain-dict speed, it pickles by
    rebuilding from a plain dict, and, being read-only, it hashes as the
    frozenset of its items, so tableaux hash by value.
    """

    __slots__ = ()

    def _read_only(self, *args: object, **kwargs: object) -> None:
        raise TypeError("tableau cells are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self) -> tuple[type, tuple[dict]]:
        return (FrozenCells, (dict(self),))


@dataclass(frozen=True, slots=True)
class Tableau:
    """An immutable staircase filling.  `cells` maps occupied boxes to
    symbols, read-only.  Equality and hash are over (n, cells), so the
    insertion order and mapping type of the cells do not matter."""

    n: int
    cells: Mapping[Cell, GreekSymbol]
    _checked: bool = field(default=False, init=False, repr=False, compare=False)
    _stats: StatVector | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _parts: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"size must be non-negative, got {self.n}")
        object.__setattr__(self, "cells", FrozenCells(self.cells))

    def diagonal_cell(self, i: int) -> Cell:
        return (i, self.n + 1 - i)

    def in_shape(self, cell: Cell) -> bool:
        i, j = cell
        return 1 <= i <= self.n and 1 <= j <= self.n + 1 - i

    def boxes(self) -> Iterator[Cell]:
        """All boxes of the staircase shape, occupied or not, in row-major order."""
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 2 - i):
                yield (i, j)


@dataclass(frozen=True)
class WeightMonomial:
    """Exponent vector of a tableau weight; total degree is n(n+1)/2."""

    e_alpha: int
    e_beta: int
    e_gamma: int
    e_delta: int
    e_u: int
    e_q: int

    def degree(self) -> int:
        return (
            self.e_alpha + self.e_beta + self.e_gamma + self.e_delta
            + self.e_u + self.e_q
        )

    def evaluate(
        self,
        alpha: Fraction,
        beta: Fraction,
        gamma: Fraction,
        delta: Fraction,
        u: Fraction,
        q: Fraction,
    ) -> Fraction:
        return (
            alpha ** self.e_alpha
            * beta ** self.e_beta
            * gamma ** self.e_gamma
            * delta ** self.e_delta
            * u ** self.e_u
            * q ** self.e_q
        )


@dataclass(frozen=True)
class StatVector:
    """Per-tableau statistics.

    r:      rows whose leftmost entry is alpha/gamma
    delta:  total count of beta/delta entries
    gamma:  total count of alpha/gamma entries
    a_diag: alpha/gamma entries on the diagonal
    b_diag: beta/delta entries on the diagonal
    """

    r: int
    delta: int
    gamma: int
    a_diag: int
    b_diag: int


def _leftmost(t: Tableau) -> dict[int, tuple[int, GreekSymbol]]:
    """Each row's first occupied box, as row -> (column, symbol)."""
    first: dict[int, tuple[int, GreekSymbol]] = {}
    for (i, j), s in t.cells.items():
        seen = first.get(i)
        if seen is None or j < seen[0]:
            first[i] = (j, s)
    return first


def validate(t: Tableau) -> list[Violation]:
    """Check the three filling rules plus shape membership.

    Returns an empty list for a valid tableau.  Violations are reported per
    offending box; a tableau may accumulate several.  Empty diagonal boxes
    come first, top row first, then the offending boxes in (row, column)
    order, so the list depends only on the tableau's value.  In that order
    the first entry seen in a row is its leftmost and the first seen in a
    column its topmost; a box outside the shape still counts as seen.
    """
    cells = t.cells
    out = [
        Violation("empty-diagonal", t.diagonal_cell(i))
        for i in range(1, t.n + 1)
        if t.diagonal_cell(i) not in cells
    ]
    rows: set[int] = set()
    cols: set[int] = set()
    for (i, j), s in sorted(cells.items()):
        if not t.in_shape((i, j)):
            out.append(Violation("cell-outside-shape", (i, j)))
        elif s.is_bd and i in rows:
            out.append(Violation("entry-left-of-bd", (i, j)))
        elif s.is_ag and j in cols:
            out.append(Violation("entry-above-ag", (i, j)))
        rows.add(i)
        cols.add(j)
    return out


def is_valid(t: Tableau) -> bool:
    return not validate(t)


def check_valid(t: Tableau) -> None:
    """Raise InvalidTableauError unless `t` is valid; validates `t` at most once."""
    if not t._checked:
        violations = validate(t)
        if violations:
            raise InvalidTableauError(f"invalid tableau: {violations[:3]}")
        object.__setattr__(t, "_checked", True)


def _grown(n: int, cells: dict) -> Tableau:
    """A checked tableau, valid by construction, of a `FrozenCells` copy."""
    return _leaf(n, None, FrozenCells(cells), None)


class _Draft:
    """`Tableau`'s slot layout without its frozen `__setattr__`."""

    __slots__ = Tableau.__slots__


if _Draft.__slots__ != ("n", "cells", "_checked", "_stats", "_parts"):
    raise RuntimeError(f"_leaf does not set every slot of {_Draft.__slots__}")


def _leaf(n: int, stats: StatVector | None, cells: dict, column: dict | None) -> Tableau:
    """A checked tableau stamped with `stats`, built as a `_Draft` by plain
    slot stores, then switched to `Tableau`.  Unless `column` is None, its
    cells are `cells` joined with `column` on the first read."""
    t = _Draft()
    t.n = n
    t.cells = cells
    t._checked = True
    t._stats = stats
    t._parts = column
    t.__class__ = Tableau
    return t  # type: ignore[return-value]


# Slot descriptors, bound once: `Tableau.cells` becomes the property below.
_get_cells = Tableau.cells.__get__
_set_cells = Tableau.cells.__set__
_set_parts = Tableau._parts.__set__


def _cells(t: Tableau) -> Mapping[Cell, GreekSymbol]:
    """`Tableau.cells`, joined with the column in `_parts` on the first read."""
    column = t._parts
    if column is None:
        return _get_cells(t)
    cells = FrozenCells(_get_cells(t))
    dict.update(cells, column)
    _set_cells(t, cells)
    _set_parts(t, None)
    return cells


Tableau.cells = property(_cells, _set_cells)  # type: ignore[assignment]


def type_word(t: Tableau) -> str:
    """The diagonal read NE to SW as a bit string, "1" where alpha/delta
    fills the site: the ASEP state, in `asep.state_bits`' encoding."""
    check_valid(t)
    cells = t.cells
    return "".join(
        "1" if cells[t.diagonal_cell(i)].fills_site else "0"
        for i in range(1, t.n + 1)
    )


def label_uq(t: Tableau) -> dict[Cell, Label]:
    """The u/q label of every empty box.

    Row pass first: each empty box left of the row's beta gets U, left of the
    row's delta gets Q.  (A valid row has at most one beta/delta and it is the
    leftmost entry, so the pass is unambiguous.)  Column pass second, on boxes
    the row pass did not touch: the nearest occupied box below in the same
    column decides, U under an alpha/delta and Q under a beta/gamma.  The
    nearest-below convention also settles columns containing several symbols.
    Every column ends at an occupied diagonal box, so coverage of all empty
    boxes is structural; it is checked anyway, by a `RuntimeError` that holds
    under ``python -O``.
    """
    check_valid(t)
    cells = t.cells
    labels: dict[Cell, Label] = {}
    for i, (j0, s0) in _leftmost(t).items():
        if s0.is_bd:
            lab = Label.U if s0 is GreekSymbol.BETA else Label.Q
            for j in range(1, j0):
                labels[(i, j)] = lab
    for j in range(1, t.n + 1):
        nearest_below: GreekSymbol | None = None
        for i in range(t.n + 1 - j, 0, -1):
            s = cells.get((i, j))
            if s is not None:
                nearest_below = s
            elif (i, j) not in labels:
                if nearest_below is None:
                    raise RuntimeError(f"column {j} has no occupied bottom box")
                labels[(i, j)] = (
                    Label.U if nearest_below.fills_site else Label.Q
                )
    n_empty = t.n * (t.n + 1) // 2 - len(cells)
    if len(labels) != n_empty:
        raise RuntimeError(
            f"{len(labels)} labels for {n_empty} empty boxes of a size-{t.n} tableau"
        )
    return labels


def weight(t: Tableau) -> WeightMonomial:
    """Weight monomial: one factor per box, symbol or u/q label."""
    labels = label_uq(t)
    counts = {s: 0 for s in GreekSymbol}
    for s in t.cells.values():
        counts[s] += 1
    n_u = sum(1 for lab in labels.values() if lab is Label.U)
    n_q = len(labels) - n_u
    w = WeightMonomial(
        e_alpha=counts[GreekSymbol.ALPHA],
        e_beta=counts[GreekSymbol.BETA],
        e_gamma=counts[GreekSymbol.GAMMA],
        e_delta=counts[GreekSymbol.DELTA],
        e_u=n_u,
        e_q=n_q,
    )
    if w.degree() != t.n * (t.n + 1) // 2:
        raise RuntimeError(
            f"weight of degree {w.degree()} for a size-{t.n} tableau"
        )
    return w


def ag_row_indices(t: Tableau) -> list[int]:
    """Rows whose leftmost entry is alpha/gamma, in increasing row order."""
    return sorted(i for i, (_, s) in _leftmost(t).items() if s in _AG)


def statistics(t: Tableau) -> StatVector:
    """The tableau's `StatVector`: its stamp if it has one, else read off
    the cells."""
    if t._stats is not None:
        return t._stats
    return _read_statistics(t)


def _read_statistics(t: Tableau) -> StatVector:
    check_valid(t)
    n = t.n
    n_ag = a_diag = 0
    for (i, j), s in t.cells.items():
        if s in _AG:
            n_ag += 1
            a_diag += i + j == n + 1
    r = sum(s in _AG for _, s in _leftmost(t).values())
    return _stat_vector(n, r, len(t.cells), n_ag, a_diag)


def _stat_vector(n: int, r: int, size: int, n_ag: int, a_diag: int) -> StatVector:
    """The one `StatVector` constructor: r AG rows, `size` cells, n_ag of them
    alpha/gamma (a_diag on the diagonal).  Raises `RuntimeError`, even under
    ``python -O``, unless r + delta = n."""
    delta = size - n_ag
    if r + delta != n:
        raise RuntimeError(f"r = {r} and delta = {delta} do not split n = {n}")
    return StatVector(r, delta, n_ag, a_diag, n - a_diag)


_LETTER = {s.value: s for s in GreekSymbol}


def to_text(t: Tableau) -> str:
    """Canonical text form: size header, then one 'i j S' line per entry.

    Entries are sorted by (row, column); S is the letter A, B, G or D.
    """
    lines = [str(t.n)]
    for (i, j), s in sorted(t.cells.items()):
        lines.append(f"{i} {j} {s.value}")
    return "\n".join(lines)


def to_line(t: Tableau) -> str:
    """Single-line variant of the canonical form, fields joined by ';'."""
    return ";".join(to_text(t).split("\n"))


def from_text(text: str) -> Tableau:
    """Parse either the multi-line canonical form or the ';'-joined line form."""
    parts = [p.strip() for p in text.replace(";", "\n").split("\n")]
    parts = [p for p in parts if p]
    if not parts:
        raise ValueError("empty tableau text")
    try:
        n = int(parts[0])
    except ValueError as exc:
        raise ValueError(f"bad size header {parts[0]!r}") from exc
    cells: dict[Cell, GreekSymbol] = {}
    for p in parts[1:]:
        fields = p.split()
        if len(fields) != 3 or fields[2] not in _LETTER:
            raise ValueError(f"bad cell line {p!r}")
        cell = (int(fields[0]), int(fields[1]))
        if cell in cells:
            raise ValueError(f"duplicate cell {cell}")
        cells[cell] = _LETTER[fields[2]]
    return Tableau(n, cells)
