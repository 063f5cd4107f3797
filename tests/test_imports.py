"""Every module of the package uses each name it imports, no module
imports an underscore name from another, and the package exports only
names that something reads."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metalogic"
# __init__.py imports names to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the benchmark harness reads the package's exports as attributes
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))

# Exports that no module and no harness script reads, each with its reason.
UNREAD_EXPORTS = {
    "inference_closure": "the paper's closure of a premise set; the acceptance "
                         "battery calls it directly, in criteria 06 and 08",
    "validate_derivation": "the trusted checker that the acceptance battery and "
                           "the engine tests use to revalidate derivations",
}


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


def exported_names(source: str) -> set:
    """The names a package __init__ re-exports from its modules."""
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def read_names(source: str) -> set:
    """The names a module reads, as a bare name or an attribute, except
    where a def or class reads its own name inside its body."""
    found = set()

    def visit(node, own):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in own:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in own:
                found.add(node.attr)
        defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for field, value in ast.iter_fields(node):
            inner = own | {node.name} if defines and field == "body" else own
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, inner)

    visit(ast.parse(source), frozenset())
    return found


def unread_exports(init_source: str, reader_sources) -> list:
    """Exported names that none of the reader sources reads, in sorted order."""
    read = set().union(*map(read_names, reader_sources))
    return sorted(exported_names(init_source) - read)


def test_every_export_is_read_or_allowed_with_a_reason():
    unread = unread_exports((PACKAGE / "__init__.py").read_text(encoding="utf-8"),
                            [path.read_text(encoding="utf-8") for path in READERS])
    assert unread == sorted(UNREAD_EXPORTS)
    assert all(reason for reason in UNREAD_EXPORTS.values())


def test_the_check_sees_unread_exports():
    init = (
        "from .core import alias, helper, orphan, recurse, Shape, used, Used\n"
        "from .errors import Failure as Renamed\n"
    )
    module = (
        "def helper(): return 1\n"
        "alias = helper\n"
        "def orphan(): return 2\n"
        "def recurse(n): return recurse(n - 1) if n else used\n"
        "class Shape:\n"
        "    def copy(self): return Shape()\n"
        "def used(x: Used = None) -> Renamed: return x\n"
    )
    harness = "import metalogic as ml\nml.orphan()\n"
    assert unread_exports(init, [module]) == ["Shape", "alias", "orphan", "recurse"]
    assert unread_exports(init, [module, harness]) == ["Shape", "alias", "recurse"]
