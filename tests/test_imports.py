"""Every name a module under ``src/duoc`` imports is read by that module, and
every top-level function or class it defines is read somewhere in the package.
No module but the oracle itself imports the test oracle, and the oracle imports
from the engine only an allow-list of samplers, builders and checks.

A package ``__init__`` re-exports the names in its ``__all__``; those count
as read.  ``from __future__`` imports are directives, not names.
"""

import ast
import pathlib

import pytest

import duoc

SRC = pathlib.Path(duoc.__file__).resolve().parent
SOURCES = sorted(SRC.rglob("*.py"))

# the test oracle is read by tests and the benchmark, not by the engine
ORPHAN_EXEMPT_MODULES = {"oracle.py"}


def _exported(tree) -> set:
    """The names listed in a module-level ``__all__``."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out.update(ast.literal_eval(node.value))
    return out


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
    read |= _exported(tree)
    return [(line, name) for line, name in bound if name not in read]


def _names_read(node) -> set:
    """Names a statement loads, reads as an attribute or imports from another module."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def orphans(sources: dict) -> list:
    """``(module, name)`` of each top-level function or class that no ``__all__`` lists and
    no statement of the package but its own definition reads.

    ``sources`` maps module names to source text; modules in ``ORPHAN_EXEMPT_MODULES``
    are read but not checked.  An attribute of the same name counts as a read, so the
    guard may miss an orphan but never flags a name in use.
    """
    defined, exported, reads = [], set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        exported |= _exported(tree)
        for node in tree.body:
            name = getattr(node, "name", None) if isinstance(
                node, (ast.FunctionDef, ast.ClassDef)) else None
            if name is not None and module not in ORPHAN_EXEMPT_MODULES:
                defined.append((module, name))
            reads.append(((module, name), _names_read(node)))
    return [(module, name) for module, name in defined if name not in exported
            and not any(name in names for owner, names in reads if owner != (module, name))]


def test_guard_sees_unused_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .x import A, B as C, D\n__all__ = ['D']\nnp.zeros(A)\n")
    assert unused_imports(source) == [(2, "os"), (4, "C")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_orphans():
    sources = {
        "a.py": "def used():\n    return 1\n\ndef self_only():\n    return self_only()\n\n"
                "class Exported:\n    pass\n\ndef _helper():\n    return used()\n",
        "b.py": "from .a import _helper\n__all__ = ['Exported']\n",
        "oracle.py": "def reference():\n    pass\n",
    }
    assert orphans(sources) == [("a.py", "self_only")]


def test_no_orphan_definition():
    sources = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in SOURCES}
    assert orphans(sources) == []


def imports_oracle(source: str, package: str = "duoc") -> bool:
    """Whether ``source``, a module of ``package`` (a dotted name), imports ``duoc.oracle``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name == "duoc.oracle" or a.name.startswith("duoc.oracle.")
                   for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            # resolve a relative import against the module's package
            parts = package.split(".")
            base = parts[: len(parts) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            if module == "duoc.oracle" or module.startswith("duoc.oracle."):
                return True
            if module == "duoc" and any(a.name == "oracle" for a in node.names):
                return True
    return False


@pytest.mark.parametrize("source, package", [
    ("from .oracle import x\n", "duoc"), ("from ..oracle import x\n", "duoc.dsl"),
    ("from . import oracle\n", "duoc"), ("from .. import oracle\n", "duoc.dsl"),
    ("import duoc.oracle\n", "duoc"), ("from duoc import oracle as o\n", "duoc.dsl"),
    ("def f():\n    from .oracle import x\n", "duoc")])
def test_guard_sees_oracle_imports(source, package):
    assert imports_oracle(source, package)


@pytest.mark.parametrize("source, package", [
    ("from .states import oracle\n", "duoc"), ("from .dsl import oracle\n", "duoc"),
    ("from . import states\n", "duoc.dsl"), ("import duoc.states\n", "duoc")])
def test_guard_passes_other_imports(source, package):
    assert not imports_oracle(source, package)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "oracle.py"],
                         ids=lambda p: str(p.relative_to(SRC)))
def test_engine_does_not_import_the_oracle(path):
    package = ".".join(("duoc",) + path.relative_to(SRC).parent.parts)
    assert not imports_oracle(path.read_text(encoding="utf-8"), package)


# the public DensityState(...) admits outside input: a script's classical weights, a separable
# spec and a channel's output; every state derived from admitted ones goes through
# DensityState._admitted, and so does a map's Choi state once its defects are checked.  The
# engine builds every effect and every POVM by construction, so no module calls the public
# Effect(...) or Povm(...) at all.
OUTSIDE_INPUT_SITES = {
    ("dsl/interpreter.py", "_state_ctor"),
    ("dynamics.py", "classical_channel_map"),
    ("states.py", "build_separable"),
}


def direct_calls(source: str, cls: str) -> list:
    """The name of the innermost function around each call ``cls(...)`` of the class ``cls``."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, ast.FunctionDef) else owner
            if isinstance(child, ast.Call) and (
                    isinstance(child.func, ast.Name) and child.func.id == cls
                    or isinstance(child.func, ast.Attribute) and child.func.attr == cls):
                out.append(owner)
            visit(child, name)

    visit(ast.parse(source), None)
    return out


def test_guard_sees_direct_state_calls():
    source = ("def a():\n    return DensityState(s, m)\n\nclass K:\n    def b(self):\n"
              "        return [states.DensityState(s, m)]\n\n"
              "def c():\n    return DensityState._admitted(s, m), DensityState.from_vector(s, v)\n")
    assert direct_calls(source, "DensityState") == ["a", "b"]


def test_derived_states_are_not_admitted_again():
    sites = {(str(p.relative_to(SRC)), owner) for p in SOURCES
             for owner in direct_calls(p.read_text(encoding="utf-8"), "DensityState")}
    assert sites == OUTSIDE_INPUT_SITES


def test_guard_sees_direct_effect_calls():
    source = ("def a():\n    return Effect(s, m)\n\nclass K:\n    def b(self):\n"
              "        return [effects.Effect(s, m), DensityState(s, m)]\n\n"
              "def c():\n    return Effect._admitted(s, m, None), Povm([e])\n")
    assert direct_calls(source, "Effect") == ["a", "b"]


def test_built_effects_are_not_admitted_again():
    sites = {(str(p.relative_to(SRC)), owner) for p in SOURCES
             for owner in direct_calls(p.read_text(encoding="utf-8"), "Effect")}
    assert sites == set()


def test_guard_sees_direct_povm_calls():
    source = ("def a():\n    return Povm([e])\n\nclass K:\n    def b(self):\n"
              "        return effects.Povm(es)\n\n"
              "def c():\n    return Povm._admitted([e]), Effect(s, m)\n")
    assert direct_calls(source, "Povm") == ["a", "b"]


def test_built_povms_are_not_checked_again():
    sites = {(str(p.relative_to(SRC)), owner) for p in SOURCES
             for owner in direct_calls(p.read_text(encoding="utf-8"), "Povm")}
    assert sites == set()


# the oracle may take from the engine only what draws or describes a scenario and the
# pure-state test it checks branches with; its contraction, effect scaling and per-trial
# loop are its own, so that its agreement with the engine counts as evidence
ORACLE_ENGINE_NAMES = {
    "as_rng", "build_pure_state", "corrupt_case", "draw_conditional_trials",
    "draw_valid_states", "random_valid_state", "validate_pure_state", "SystemSignature",
    "FactorPermutation",
}
ORACLE_FORBIDDEN = {"contract_effect", "contract_pure_effect", "partial_trace", "embed_operator",
                    "scaled_effects", "_stack_failures"}


def oracle_engine_imports(source: str) -> set:
    """The names ``duoc.oracle`` imports from the engine: each function or class, or the module
    itself when it imports a whole module.  The errors are not engine code."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.split(".")[0] == "duoc"}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("duoc")):
            if (node.module or "").split(".")[-1] != "errors":
                names |= {a.name for a in node.names}
    return names


@pytest.mark.parametrize("source", [
    "from .effects import scaled_effects\n", "from .linalg import contract_effect, as_vector\n",
    "from .effects import _stack_failures\n", "from . import linalg\n", "import duoc.linalg\n",
    "def f():\n    from duoc.linalg import partial_trace\n"])
def test_guard_sees_engine_kernels_in_the_oracle(source):
    assert oracle_engine_imports(source) - ORACLE_ENGINE_NAMES


def test_guard_passes_the_allowed_oracle_imports():
    source = ("import numpy as np\nfrom .errors import DomainError, ShapeError\n"
              "from .states import as_rng, validate_pure_state\nfrom .systems import SystemSignature\n")
    assert oracle_engine_imports(source) == {"as_rng", "validate_pure_state", "SystemSignature"}


def test_oracle_imports_no_engine_kernel():
    names = oracle_engine_imports((SRC / "oracle.py").read_text(encoding="utf-8"))
    assert names <= ORACLE_ENGINE_NAMES and not names & ORACLE_FORBIDDEN


# every Bell quantity reads the correlator kernel of duoc.nonlocality, the one place its Born
# rule is written; no operator there is embedded in the doubled composite
def embed_operator_uses(source: str) -> list:
    """Line of each import of ``embed_operator`` in ``source`` and of each name or attribute
    reading it (a call reads it too)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(a.name.split(".")[-1] == "embed_operator" for a in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Name) and node.id == "embed_operator"
              or isinstance(node, ast.Attribute) and node.attr == "embed_operator"):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("source, lines", [
    ("from .linalg import embed_operator\n", [1]),
    ("from .linalg import projector, embed_operator as emb\nemb(a, p, d)\n", [1]),
    ("from . import linalg\nx = linalg.embed_operator(a, p, d)\n", [2]),
    ("import duoc.linalg\n\ndef f():\n    return duoc.linalg.embed_operator(a, p, d)\n", [4]),
    ("def f(embed_operator):\n    return embed_operator(a, p, d)\n", [2]),
    ("from .linalg import contract_effect, projector\nprojector(v)\n", []),
])
def test_guard_sees_embed_operator(source, lines):
    assert embed_operator_uses(source) == lines


def test_bell_quantities_embed_no_operator():
    assert embed_operator_uses((SRC / "nonlocality.py").read_text(encoding="utf-8")) == []
