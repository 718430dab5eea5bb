"""Source hygiene of the package, read from its syntax trees: no module
imports a name it never uses, and no private top-level function or class
goes unreferenced."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "newton_transforms"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(node):
    """Every identifier read under node, with its count: bare names and attribute names."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def _imported_names(tree):
    """The names the module's import statements bind, but __future__ features."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(alias.asname or alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__"}))
def test_no_unused_imports(name):
    tree = MODULES[name]
    assert sorted(set(_imported_names(tree)) - set(_used_names(tree))) == []


def test_no_unreferenced_private_definitions():
    # a reference is a name, an attribute or an import anywhere in the
    # package outside the definition's own body
    references = sum((_used_names(tree) + _imported_names(tree) for tree in MODULES.values()), Counter())
    unreferenced = [f"{name}.{node.name}" for name, tree in MODULES.items() for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and references[node.name] == _used_names(node)[node.name]]
    assert unreferenced == []
