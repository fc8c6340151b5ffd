"""README's map of the paper's statements, its library quick tour, the
general solution on polynomial maps, and the two direct-method lemmas.

The map names, per statement, the functions that compute it, the tests
and CI steps that check it and the report fields that show it.  A name
that no longer exists fails here, so the map cannot rot.
"""

import ast
import importlib
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from addcubic import (Constant, FuncModel, additive_iterate,
                      additive_residual, certify_phi, cubic_iterate,
                      cubic_residual, mixed_residual, point, random_cubic,
                      random_linear, random_point, random_rational)
from addcubic.models import Point

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


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour\n")[1]
    code = re.search(r"^```python\n(.*?)^```", tour,
                     re.MULTILINE | re.DOTALL).group(1)
    scope: dict = {}
    exec(compile(code, "README.md quick tour", "exec"), scope)
    assert scope["report"].ok
    phi, f = scope["phi"], scope["f"]
    assert phi == certify_phi(f) == Constant(Fraction(76, 1000))


def _c(r: int) -> int:
    """D P(0, y) / P(y) for a form P of degree r."""
    return 2 if r == 0 else 3 ** (r + 1) - 12 * 2 ** r + 3 - 12 * (-1) ** r


def test_general_solution_holds_for_polynomial_maps_of_every_degree():
    # A form P of degree r has D P(0, y) = c_r P(y), c_0 = 2 and
    # c_r = 3^(r+1) - 12 2^r + 3 - 12 (-1)^r: at x = 0 each term f(a y)
    # is a^r P(y), and f(0) = P(0) is 0 unless r = 0.  So a polynomial map
    # solves the equation only if its parts of degree other than 1 and 3
    # vanish: c_r = 0 exactly at r = 1 and 3.  Checked on random
    # rational forms in two variables for r <= 12; for r >= 4, with
    # d_r = 3^(r+1) - 12 2^r, d_4 = 51 and d_(r+1) = 3 d_r + 12 2^r > d_r,
    # so by induction c_r >= d_r - 9 >= 42 > 0.
    rng = random.Random(12)
    for r in range(13):
        coefficients = [random_rational(rng) for _ in range(r + 1)]
        assert any(coefficients)

        def form(p, r=r, coefficients=coefficients):
            u, v = p.coords
            return Point((sum(a * u ** q * v ** (r - q)
                              for q, a in enumerate(coefficients)),))

        for _ in range(3):
            y = random_point(rng, 2, max_denominator=7)
            residual = mixed_residual(form, point([0, 0]), y)
            assert residual.value == form(y).scale(_c(r))
    assert [r for r in range(13) if _c(r) == 0] == [1, 3]
    assert _c(2) == -30 and _c(4) == 42
    d = 3 ** 5 - 12 * 2 ** 4  # d_4
    assert d == 51
    for r in range(4, 200):
        assert _c(r) == d + 3 - 12 * (-1) ** r >= d - 9 > 0
        step = 3 * d + 12 * 2 ** r
        assert step == 3 ** (r + 2) - 12 * 2 ** (r + 1) > d
        d = step


def test_direct_method_lemmas_hold_on_solutions():
    # For a solution f = L + C, H(x) = f(2x) - 8 f(x) is additive and
    # G(x) = f(2x) - 2 f(x) is cubic: each satisfies its rule exactly, and
    # H = -6 L, G = 6 C, at points off the dyadic grid too.  H and G are
    # step 0 of the additive and cubic iterates.
    rng = random.Random(10)
    for d, m in ((1, 1), (2, 2), (3, 1)):
        linear, cubic = random_linear(rng, d, m), random_cubic(rng, d, m)
        f = FuncModel(d, m, (linear, cubic))

        def H(x, f=f):
            return additive_iterate(f, x, 1, 1).values[0]

        def G(x, f=f):
            return cubic_iterate(f, x, 1, 1).values[0]

        for _ in range(5):
            x, y = [random_point(rng, d, max_denominator=7) for _ in range(2)]
            assert additive_residual(H, x, y).is_zero
            assert cubic_residual(G, x, y).is_zero
            assert H(x) == FuncModel(d, m, (linear,))(x).scale(-6)
            assert G(x) == FuncModel(d, m, (cubic,))(x).scale(6)
