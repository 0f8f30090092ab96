"""Column-growth enumeration of staircase tableaux.

A size-n tableau is built from the size-0 root by prepending a full-height
column n times.  When the current tableau has r rows indexed by alpha/gamma
(AG rows), the new column admits exactly 4 * 3**r legal fills:

* bottom box alpha or gamma, all upper boxes empty (raises r by one);
* bottom box beta or delta, and each AG row's box in the new column either
  empty or beta/delta, except that at most one box may hold alpha/gamma and
  that box must be the topmost occupied one in the column.

Boxes of the new column at non-AG rows stay empty (anything there would sit
left of that row's beta/delta).  Upper boxes are addressed by slot index
1..r counting AG rows from the bottom.  Every tableau arises from exactly
one fill sequence, which is what makes the DFS below an exact enumeration
and gives the sampler its uniformity.  `_place` is the one code that writes
a fill: for `extend`, the sampler and every column of the walk.  The walk's
last column is read from two cached tables that every walk shares:
`_leaf_items` holds the cells `_place` writes there, keyed by the AG rows,
and `_leaf_stats` the `StatVector` of each leaf, keyed by three counts the
walk keeps along the path (the AG rows, the alpha/gamma entries and the
diagonal ones) and the number of cells.  The tableaux the walk and the
sampler finish are valid by construction, so `core._leaf` and `core._grown`
build them marked as checked, each a `core._Draft` filled by plain slot
stores and switched to `Tableau`, and they are never validated; `_place`
takes a fill's two parts, so the sampler writes the (bottom, upper) pairs it
draws without building a `ColumnFill`.  A walk leaf is also stamped with its
`StatVector`, and its cells are built on their first read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable

from .core import (
    _AG,
    _BD,
    Cell,
    GreekSymbol,
    InvalidTableauError,
    Tableau,
    _grown,
    _leaf,
    _stat_vector,
    ag_row_indices,
    check_valid,
)
from .counting import _completion_rows

#: Largest n of the user-facing exhaustive walks (`enumerate` and the
#: enumeration oracle for the ASEP partition functions; 82,575,360 tableaux
#: at 7).
_ENUM_LIMIT = 6


@dataclass(frozen=True)
class ColumnFill:
    """One legal filling of a prepended column.

    `bottom` is the symbol of the new diagonal box.  `upper` lists
    (slot, symbol) pairs for occupied boxes at the old AG rows, slot 1 being
    the lowest AG row; it is sorted by slot.
    """

    bottom: GreekSymbol
    upper: tuple[tuple[int, GreekSymbol], ...] = ()

    def __post_init__(self) -> None:
        slots = [k for k, _ in self.upper]
        if slots != sorted(set(slots)) or (slots and slots[0] < 1):
            raise ValueError(f"bad upper slots {slots}")
        if self.bottom.is_ag and self.upper:
            raise ValueError("alpha/gamma bottom requires an empty column above")
        ag_slots = [k for k, s in self.upper if s.is_ag]
        if len(ag_slots) > 1:
            raise ValueError("at most one alpha/gamma upper entry allowed")
        if ag_slots and ag_slots[0] != max(slots):
            raise ValueError("alpha/gamma upper entry must be the topmost occupied slot")

    @property
    def has_ag_upper(self) -> bool:
        # An alpha/gamma upper entry can only be the topmost one.
        return bool(self.upper) and self.upper[-1][1].is_ag

    @property
    def r_change(self) -> int:
        """Change in the AG-row count when this fill is applied: -j for a
        fill in class j of `counting`.  Each beta/delta upper entry covers
        one AG row."""
        if self.bottom.is_ag:
            return 1
        return self.has_ag_upper - len(self.upper)


@lru_cache(maxsize=None)
def legal_fills(r: int) -> tuple[ColumnFill, ...]:
    """All 4 * 3**r fills available above a tableau with r AG rows.

    Deterministic order: bottom symbol (A, B, G, D), then occupied-slot subset
    by ascending bitmask, then symbol assignments.
    """
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    fills: list[ColumnFill] = []
    for bottom in GreekSymbol:
        if bottom.is_ag:
            fills.append(ColumnFill(bottom))
            continue
        for mask in range(1 << r):
            slots = [k + 1 for k in range(r) if mask >> k & 1]
            for syms in product(_BD, repeat=len(slots)):
                fills.append(ColumnFill(bottom, tuple(zip(slots, syms))))
            if slots:
                top = slots[-1]
                for ag in _AG:
                    for syms in product(_BD, repeat=len(slots) - 1):
                        upper = tuple(zip(slots[:-1], syms)) + ((top, ag),)
                        fills.append(ColumnFill(bottom, upper))
    if len(fills) != 4 * 3**r:
        raise RuntimeError(f"{len(fills)} fills at r = {r}, not 4 * 3**{r}")
    return tuple(fills)


@lru_cache(maxsize=None)
def _leaf_items(n: int, ag_rows: tuple[int, ...]) -> tuple[dict, ...]:
    """Per fill of `legal_fills`, the cells `_place` writes into a size-n
    walk's last column above the AG rows `ag_rows`, in its order (dicts:
    `dict.update` merges them fastest)."""
    fills = legal_fills(len(ag_rows))
    columns = tuple({} for _ in fills)
    for column, f in zip(columns, fills):
        _place(column, list(ag_rows), n, 1, f.bottom, f.upper)
    return columns


@lru_cache(maxsize=None)
def _leaf_stats(n: int, r: int, n_ag: int, size: int, a_diag: int) -> tuple:
    """Per fill of `legal_fills(r)`, the `StatVector` of the leaf it ends
    when the path has r AG rows, n_ag alpha/gamma entries (a_diag on the
    diagonal) and `size` cells."""
    return tuple(
        _stat_vector(
            n, r + f.r_change, size + 1 + len(f.upper),
            n_ag + f.bottom.is_ag + f.has_ag_upper, a_diag + f.bottom.is_ag,
        )
        for f in legal_fills(r)
    )


def _place(
    cells: dict, ag_rows: list[int], bottom_row: int, col: int,
    bottom: GreekSymbol, upper: tuple[tuple[int, GreekSymbol], ...],
) -> list[int]:
    """Write the fill with parts `bottom` and `upper` (those of a
    `ColumnFill`) into column `col`, whose diagonal box is in `bottom_row`;
    maps the increasing AG rows before the step to those after it."""
    cells[(bottom_row, col)] = bottom
    if bottom.is_ag:
        return ag_rows + [bottom_row]
    r = len(ag_rows)
    kept = ag_rows.copy()
    # Slots ascend, so positions r - k descend and each deletion leaves the
    # positions still to come in place.
    for k, s in upper:
        cells[(ag_rows[r - k], col)] = s
        if s.is_bd:
            del kept[r - k]
    return kept


def extend(t: Tableau, fill: ColumnFill) -> Tableau:
    """Prepend a column filled per `fill`; returns the size n+1 tableau."""
    ag_rows = ag_row_indices(t)
    r = len(ag_rows)
    if any(k > r for k, _ in fill.upper):
        raise ValueError(f"fill references slot beyond the {r} AG rows")
    cells = {(i, j + 1): s for (i, j), s in t.cells.items()}
    _place(cells, ag_rows, t.n + 1, 1, fill.bottom, fill.upper)
    return Tableau(t.n + 1, cells)


def split_first_column(t: Tableau) -> tuple[Tableau, ColumnFill]:
    """Inverse of `extend`: strip column 1 of a valid tableau of size >= 1.

    The unique parent/fill decomposition underlies the sampler's probability
    audit; an undecomposable tableau (invalid input) raises
    InvalidTableauError.
    """
    check_valid(t)
    if t.n < 1:
        raise InvalidTableauError("size-0 tableau has no first column")
    bottom = t.cells[(t.n, 1)]
    # Stripping column 1 of a valid tableau leaves a valid one.
    parent = _grown(
        t.n - 1,
        {(i, j - 1): s for (i, j), s in t.cells.items() if j > 1},
    )
    ag_rows = ag_row_indices(parent)
    r = len(ag_rows)
    slot_of = {row: r - pos for pos, row in enumerate(ag_rows)}
    upper = []
    for (i, j), s in t.cells.items():
        if j == 1 and i < t.n:
            if i not in slot_of:
                raise InvalidTableauError(
                    f"column-1 entry at row {i} does not sit on a parent AG row"
                )
            upper.append((slot_of[i], s))
    return parent, ColumnFill(bottom, tuple(sorted(upper)))


def enumerate_all(n: int, visitor: Callable[[Tableau], None] | None = None) -> int:
    """Depth-first walk of the growth tree; every size-n tableau exactly once.

    Returns the leaf count.  Interior columns are written by `_place` and
    undone after their subtree; each leaf's last column and stamp are read
    from the cached tables `_leaf_items` and `_leaf_stats`, so a leaf makes
    no Python-level call but `core._leaf`, which makes none, and `visitor`:
    the leaves of a parent share one snapshot of the path's cells, and
    `Tableau.cells` joins it with a leaf's last column on the first read.
    Each leaf is born checked and stamped with its `StatVector`: r is the
    walk's AG-row count, gamma and a_diag are alpha/gamma counts kept along
    the path, and `core._stat_vector` takes delta as the number of cells
    minus gamma, so r + delta = n stays a real identity, checked per stamp.
    With `visitor=None` no Tableau objects are materialized: `legal_fills(r)`
    is tallied by class j = -r_change and `counting`'s completion recurrence
    runs on the tallies, never on its multiplicity formula or closed form.
    Single-threaded; the first-column fills partition the tree if a caller
    wants to shard the walk.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if visitor is None:
        tallies = [Counter(-f.r_change for f in legal_fills(r)) for r in range(n)]
        counts = [[t[j] for j in range(-1, r + 1)] for r, t in enumerate(tallies)]
        return _completion_rows(n, counts)[n][0]

    count = 0
    cells: dict[Cell, GreekSymbol] = {}

    def rec(m: int, ag_rows: list[int], n_ag: int, a_diag: int) -> None:
        nonlocal count
        r = len(ag_rows)
        if m == n - 1:
            items = _leaf_items(n, tuple(ag_rows))
            stats = _leaf_stats(n, r, n_ag, len(cells), a_diag)
            snapshot = dict(cells)
            for column, stamp in zip(items, stats):
                visitor(_leaf(n, stamp, snapshot, column))
            count += len(items)
            return
        depth = len(cells)
        for fill in legal_fills(r):
            rec(
                m + 1,
                _place(cells, ag_rows, m + 1, n - m, fill.bottom, fill.upper),
                n_ag + fill.bottom.is_ag + fill.has_ag_upper,
                a_diag + fill.bottom.is_ag,
            )
            # Dicts pop in reverse insertion order: this undoes the step.
            while len(cells) > depth:
                cells.popitem()

    rec(0, [], 0, 0)
    return count
