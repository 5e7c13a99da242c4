"""Every name a module under ``src/duoc`` imports is read by that module.

A package ``__init__`` re-exports the names in its ``__all__``; those count
as read.  ``from __future__`` imports are directives, not names.
"""

import ast
import pathlib

import pytest

import duoc

SRC = pathlib.Path(duoc.__file__).resolve().parent


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name bound by an import and never read in ``source``."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def test_guard_sees_unused_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .x import A, B as C, D\n__all__ = ['D']\nnp.zeros(A)\n")
    assert unused_imports(source) == [(2, "os"), (4, "C")]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
