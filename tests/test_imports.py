"""Every name a module of ``src/addcubic`` imports is read in that module.

The toolchain has no linter, so this reads each module's syntax tree with
:mod:`ast`; an import that a deletion leaves behind fails here.
``__init__.py`` is left out: it imports names to export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "addcubic"
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the imports of ``source`` bind and nothing in it reads."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_modules_are_found():
    assert {"bounds.py", "config.py", "harness.py"} \
        <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from . import bounds as bounds_mod\n"
              "from .models import Point, norm\n"
              "def f(x: Point):\n"
              "    return bounds_mod.series_bound(x)\n")
    assert unused_imports(source) == ["norm", "os"]
