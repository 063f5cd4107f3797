"""Every module of the package uses each name it imports, and no module
imports an underscore name from another."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "metalogic"
# __init__.py imports names to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports but never mentions, in sorted order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def private_imports(source: str) -> list:
    """Underscore names a module imports from others, in sorted order."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and node.module != "__future__"
    )


def test_the_package_modules_are_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from typing import Optional, Sequence as Seq\n"
        "def f(x: Seq) -> str:\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["Optional", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_private_import(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_private_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "from .engine import Bounds, _saturate\n"
        "from .library import _schema as schema\n"
    )
    assert private_imports(source) == ["_saturate", "_schema"]
