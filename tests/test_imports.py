"""Import hygiene of the package: no module imports a name it never uses,
and every import sits at the top level of its module, so the module graph is
the one the top-level imports show.

No linter is part of the toolchain, so this reads each module's syntax tree
with the standard library.  ``__init__.py`` is exempt: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mhdgevrey"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """The names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted("%s (line %d)" % (name, line) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import math\nfrom .spectral import fmt_s, geometry as g\nx = g(3)\n"
    assert unused_imports(source) == ["fmt_s (line 2)", "math (line 1)"]


def nested_imports(source: str) -> list:
    """The lines of the imports inside a function or class body."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted({node.lineno for scope in ast.walk(ast.parse(source))
                   if isinstance(scope, scopes) for node in ast.walk(scope)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_import_is_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_a_nested_import_is_found():
    source = ("import math\n"
              "def f():\n    def g():\n        from .solver import step\n"
              "class C:\n    import json\n")
    assert nested_imports(source) == [4, 6]
