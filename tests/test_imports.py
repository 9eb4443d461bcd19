"""Import structure of the package.

Every module imports what it needs at its top, so the dependency graph
between modules is visible there and has no cycles hidden inside
functions; and modules reach each other only through names without a
leading underscore, so a private helper can change without a sibling
noticing.  Dunder names such as ``__version__`` are public.
"""

import ast
from pathlib import Path

import pytest

import stabilitylab

MODULES = sorted(Path(stabilitylab.__file__).parent.glob("*.py"))


def _imports_in_functions(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            lines += [
                sub.lineno
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Import, ast.ImportFrom))
            ]
    return sorted(set(lines))


def _private_sibling_imports(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "stabilitylab"
        for alias in node.names:
            name = alias.name
            if sibling and name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                out.append(f"{node.lineno}: {name}")
    return out


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"critical", "structure", "enumeration", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_sit_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _imports_in_functions(tree) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_a_sibling(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _private_sibling_imports(tree) == []
