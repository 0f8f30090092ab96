"""No package module guards anything with ``assert``.

``python -O`` strips every ``assert`` statement, so a check written as one
would vanish from an optimized run.  Each ``src/staircase_tableaux/*.py``
is parsed with `ast`; nothing is imported or run.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "staircase_tableaux"


def _asserts(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]


def test_no_module_guards_with_assert():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [entry for path in modules for entry in _asserts(path)]
    assert found == []


def test_the_check_sees_an_assert(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def f(x):\n"
        "    assert x, 'guard'\n"
        "    return [y for y in x if y]\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert self\n"
    )
    assert _asserts(module) == ["mod.py:2", "mod.py:6"]
