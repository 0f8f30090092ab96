"""Every name a package module imports is used in that module.

Each ``src/staircase_tableaux/*.py`` is parsed with `ast` and nothing is
imported or run.  Exempt are ``__future__`` imports, the re-exports a
module lists in ``__all__`` (those of ``__init__.py``) and the names that
``bench/layers.py`` wraps in a module's namespace (``pkg.mod:name``), which
stay bound for the traced benchmark run even where the module itself no
longer calls them (today ``sampler.statistics``, ``cli.build_c``,
``cli.dist_r`` and ``cli.dist_A``).  The layer table is read as
``tests/test_bench_targets.py`` reads it, so nothing is written under
``bench/``.
"""

from __future__ import annotations

import ast
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "staircase_tableaux"
LAYERS_PY = ROOT / "bench" / "layers.py"


def _wrapped_names() -> set[tuple[str, str]]:
    """(module, name) for every plain module-attribute target of the layer
    table; table slots (``pkg.mod:table[key]``) bind no imported name."""
    layers = runpy.run_path(str(LAYERS_PY))["LAYERS"]
    out = set()
    for layer in layers:
        for target in layer.targets:
            module, _, attr = target.partition(":")
            if not attr.endswith("]"):
                out.add((module.rpartition(".")[2], attr))
    return out


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A module's `__all__` re-exports the names it lists.
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.name}:{line}: {name}"
        for name, line in imported.items()
        if name not in used
    ]


def test_wrapped_names_are_read_from_the_layer_table():
    wrapped = _wrapped_names()
    assert {("sampler", "statistics"), ("cli", "build_c")} <= wrapped


def test_no_module_imports_a_name_it_never_uses():
    wrapped = _wrapped_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        unused += [
            entry
            for entry in _unused_imports(path)
            if (path.stem, entry.rpartition(": ")[2]) not in wrapped
        ]
    assert unused == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from math import comb, gcd as g\n"
        "from json import dumps, loads\n"
        "x: os.PathLike = g(4, 6)\n"
        "__all__ = ['dumps']\n"
    )
    assert _unused_imports(module) == ["mod.py:3: comb", "mod.py:4: loads"]
