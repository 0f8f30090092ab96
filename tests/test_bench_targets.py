"""The benchmark's layer table names only package callables that exist.

`bench/run.py --trace 1` wraps every target of `bench/layers.py::LAYERS`; a
renamed or deleted package name would break the traced run.  This test only
reads the table (no bytecode is written next to it) and runs nothing.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _resolves(target: str) -> bool:
    """``pkg.mod:attr`` names a module attribute, ``pkg.mod:attr[key]`` a
    slot of a dict the module holds; either must be callable."""
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    if attr.endswith("]"):
        table, _, key = attr[:-1].partition("[")
        slot = getattr(module, table, {}).get(key)
    else:
        slot = getattr(module, attr, None)
    return callable(slot)


def test_every_layer_target_resolves():
    layers = runpy.run_path(str(LAYERS_PY))["LAYERS"]
    targets = [t for layer in layers for t in layer.targets]
    assert len(targets) > 20
    assert [t for t in targets if not _resolves(t)] == []
