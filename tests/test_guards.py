"""No package module guards anything with ``assert``, and the guards that
no other test reaches refuse their inputs.

``python -O`` strips every ``assert`` statement, so a check written as one
would vanish from an optimized run.  Each ``src/staircase_tableaux/*.py``
is parsed with `ast`; nothing is imported or run for that test.  The
refusal test calls each remaining ``ValueError`` guard once with an input
it must refuse.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from staircase_tableaux.counting import total_count
from staircase_tableaux.enumerator import legal_fills
from staircase_tableaux.polyengine import (
    V_explicit,
    build_c,
    build_V,
    build_W,
    c1_rows,
    path_weight_oracle,
    v_row,
)
from staircase_tableaux.sampler import probability_of, sample_uniform

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


@pytest.mark.parametrize(
    "refused, message",
    [
        pytest.param(lambda: build_c(-1), "need n >= 0", id="build_c"),
        pytest.param(lambda: c1_rows(-1), "need n >= 0", id="c1_rows"),
        pytest.param(lambda: build_V(-1), "need n >= 0", id="build_V"),
        pytest.param(lambda: v_row(-1), "need n >= 0", id="v_row"),
        pytest.param(lambda: build_W(-1), "need n >= 0", id="build_W"),
        pytest.param(
            lambda: path_weight_oracle(3, 4), "need 0 <= l <= m",
            id="path_weight_oracle",
        ),
        pytest.param(
            lambda: V_explicit(3, 4, build_W(3)), "need 0 <= m <= n",
            id="V_explicit",
        ),
        pytest.param(lambda: total_count(-1), "need n >= 0", id="total_count"),
        pytest.param(
            lambda: legal_fills(-1), "r must be non-negative", id="legal_fills"
        ),
        pytest.param(
            lambda: probability_of(3, sample_uniform(2, 0)),
            "tableau has size 2, expected 3", id="probability_of",
        ),
    ],
)
def test_guard_refuses_its_input(refused, message):
    with pytest.raises(ValueError, match=message):
        refused()
