"""Import hygiene: every name a package module or a test module imports
is used there.

A name counts as used when the module reads it anywhere (a bare name or
the base of an attribute chain) or re-exports it through ``__all__``.
``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

import tunnelnoise

PACKAGE = sorted(Path(tunnelnoise.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
MODULES = PACKAGE + TESTS
IDS = [p.name for p in PACKAGE] + [f"tests/{p.name}" for p in TESTS]


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    unused = [
        f"{path.name}:{line} {name}"
        for line, name in _imported_names(tree)
        if name not in used
    ]
    assert unused == []
