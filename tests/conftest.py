"""Walks shared across test modules.

`walk_record(n)` is one visitor walk of size n per session.  It records what
the stamp test in `test_core` and the leaf pin in `test_enumerator` assert,
so the n = 5 walk (122,880 leaves) runs once for both.  `leaf_digest(n)`
walks afresh at every call, for tests of the walk's cached tables.
`clean_verdict(name, n_max)` is one clean run of a registry check per
session, shared by the acceptance suite and the defect witnesses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

import pytest

from staircase_tableaux.checks import CheckResult, verify_suite
from staircase_tableaux.core import Tableau, statistics, to_line
from staircase_tableaux.enumerator import enumerate_all

#: The seed of every registry check run in the tests.
SEED = 20250823


@dataclass
class WalkRecord:
    """A walk visitor that keeps no leaf.  `sha` runs over the leaves in
    order, each its cells in insertion order (`to_line` would sort them) and
    its stamp.  With `check_stamps`, `stamp_mismatches` lists each leaf whose
    stamp is missing or differs from the statistics read off a copy of its
    cells."""

    check_stamps: bool
    sha: Any = field(default_factory=hashlib.sha256)
    stamp_mismatches: list[str] = field(default_factory=list)
    count: int = 0

    def __call__(self, t: Tableau) -> None:
        s = t._stats
        cells = ";".join(f"{i} {j} {c.value}" for (i, j), c in t.cells.items())
        stamp = "-" if s is None else (
            f"{s.r} {s.delta} {s.gamma} {s.a_diag} {s.b_diag}"
        )
        self.sha.update(f"{cells}|{stamp}\n".encode())
        if self.check_stamps and (
            s is None or s != statistics(Tableau(t.n, dict(t.cells)))
        ):
            self.stamp_mismatches.append(to_line(t))

    @property
    def digest(self) -> str:
        return self.sha.hexdigest()


def _walk(n: int, check_stamps: bool) -> WalkRecord:
    record = WalkRecord(check_stamps)
    record.count = enumerate_all(n, record)
    return record


@pytest.fixture(scope="session")
def walk_record() -> Callable[[int], WalkRecord]:
    return lru_cache(maxsize=None)(lambda n: _walk(n, check_stamps=True))


@pytest.fixture
def leaf_digest() -> Callable[[int], str]:
    return lambda n: _walk(n, check_stamps=False).digest


@pytest.fixture(scope="session")
def clean_verdict() -> Callable[[str, int], CheckResult]:
    """The result of check `name` at `n_max`, run once per session at `SEED`.
    Call it only on clean code; its `__wrapped__` runs past the cache."""

    @lru_cache(maxsize=None)
    def run(name: str, n_max: int) -> CheckResult:
        (result,) = verify_suite(n_max, seed=SEED, names=[name])
        return result

    return run
