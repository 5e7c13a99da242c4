"""Every numerical threshold of the engine comes from the one table in ``duoc.linalg``."""

import ast
import pathlib

import pytest

import duoc
from duoc import linalg
from duoc.dsl import interpreter

SRC = pathlib.Path(duoc.__file__).resolve().parent
TABLE = ("DEFAULT_ATOL", "ZERO_ATOL", "INPUT_ATOL", "SPECTRAL_ATOL")
# the independent reference keeps its own thresholds
EXEMPT = {SRC / "oracle.py"}


def small_float_literals(source: str, table=()) -> list:
    """``(line, value)`` of float literals with 0 < |x| < 1e-6, except those defining ``table``."""
    tree = ast.parse(source)
    allowed = {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] in [[name] for name in table]
    }
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-6 and id(node) not in allowed
    ]


def test_table_values():
    assert [getattr(linalg, name) for name in TABLE] == [1e-10, 1e-12, 1e-9, 1e-8]
    assert interpreter.DEFAULT_TOL == linalg.INPUT_ATOL


def test_guard_sees_literals_outside_the_table():
    source = "DEFAULT_ATOL = 1e-10\nX = 1e-9\nif w < -1e-12:\n    f(atol=1e-8)\nY = 1e-3\n"
    assert small_float_literals(source, TABLE) == [(2, 1e-9), (3, 1e-12), (4, 1e-8)]
    assert small_float_literals(source) == [(1, 1e-10), (2, 1e-9), (3, 1e-12), (4, 1e-8)]


@pytest.mark.parametrize("path", sorted(p for p in SRC.rglob("*.py") if p not in EXEMPT),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_tolerance_literal_outside_the_table(path):
    table = TABLE if path == SRC / "linalg.py" else ()
    assert small_float_literals(path.read_text(), table) == []
