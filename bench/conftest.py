"""Puts the package source and the benchmark modules on the import path for
the benchmark's self-tests (``python3 -m pytest bench``)."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
