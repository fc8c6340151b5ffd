"""README's map of the paper's statements, and the two direct-method lemmas.

The map names, per statement, the functions that compute it, the tests
and CI steps that check it and the report fields that show it.  A name
that no longer exists fails here, so the map cannot rot.
"""

import ast
import importlib
import random
import re
from pathlib import Path

import pytest

from addcubic import (FuncModel, additive_residual, cubic_residual,
                      g_transform, h_transform, random_cubic, random_linear,
                      random_point)

ROOT = Path(__file__).resolve().parent.parent


def _rows() -> list[list[str]]:
    """The cells of each row of README's paper map."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## The paper, statement by statement\n")[1]
    section = section.split("\n## ")[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines[2:]]


def _names(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


ROWS = _rows()


def test_the_map_has_a_row_per_statement():
    assert [row[0].split(":")[0] for row in ROWS] == [
        "General solution", "Lemma", "Lemma", "Stability",
        "Corollary, sum of powers", "Corollary, product of powers"]
    assert all(len(row) == 5 and all(_names(cell) for cell in row[1:])
               for row in ROWS)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row[0][:24])
def test_every_name_in_the_map_exists(row):
    _, functions, tests, steps, fields = row
    for name in _names(functions):
        module, attribute = name.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(f"addcubic.{module}"),
                                attribute)), name
    for name in _names(tests):
        path, function = name.split("::")
        tree = ast.parse((ROOT / "tests" / path).read_text(encoding="utf-8"))
        assert function in {node.name for node in tree.body
                            if isinstance(node, ast.FunctionDef)}, name
    workflow = (ROOT / ".github/workflows/tests.yml").read_text(
        encoding="utf-8")
    for name in _names(steps):
        assert f"- name: {name}\n" in workflow, name
    # Each key of a report field is a key some runner writes.
    source = "".join(path.read_text(encoding="utf-8")
                     for path in (ROOT / "src/addcubic").glob("*.py"))
    for name in _names(fields):
        for key in re.findall(r"\w+", name):
            assert f'"{key}"' in source, (name, key)


def test_direct_method_lemmas_hold_on_solutions():
    # For a solution f = L + C, H(x) = f(2x) - 8 f(x) is additive and
    # G(x) = f(2x) - 2 f(x) is cubic: each satisfies its rule exactly, and
    # H = -6 L, G = 6 C, at points off the dyadic grid too.
    rng = random.Random(10)
    for d, m in ((1, 1), (2, 2), (3, 1)):
        linear, cubic = random_linear(rng, d, m), random_cubic(rng, d, m)
        f = FuncModel(d, m, (linear, cubic))
        H, G = h_transform(f), g_transform(f)
        for _ in range(5):
            x, y = [random_point(rng, d, max_denominator=7) for _ in range(2)]
            assert additive_residual(H, x, y).is_zero
            assert cubic_residual(G, x, y).is_zero
            assert H(x) == FuncModel(d, m, (linear,))(x).scale(-6)
            assert G(x) == FuncModel(d, m, (cubic,))(x).scale(6)
