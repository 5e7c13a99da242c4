"""Syntax tree for the scripting language.

Nodes compare by content only: source positions (the line of a statement,
the line and column of each name it reads) ride along for error messages
but are excluded from equality, so a parse / pretty-print / re-parse cycle
yields an equal tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Str:
    value: str


@dataclass(frozen=True)
class Ref:
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ListV:
    items: tuple


@dataclass(frozen=True)
class Ctor:
    """Named constructor call with ordered keyword arguments."""

    name: str
    args: tuple  # of (key, value) pairs


@dataclass(frozen=True)
class SystemDecl:
    name: str
    args: tuple
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class StateDecl:
    """Either ``ctor on system`` or ``product(left, right)``."""

    name: str
    ctor: Ctor = None
    system: str = None
    product: tuple = None
    line: int = field(default=0, compare=False)
    system_at: tuple = field(default=(0, 0), compare=False)  # (line, col) of the system
    product_at: tuple = field(default=(), compare=False)  # (line, col) of each factor


@dataclass(frozen=True)
class MeasureDecl:
    name: str
    ctor: Ctor = None
    system: str = None
    line: int = field(default=0, compare=False)
    system_at: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class TransformDecl:
    name: str
    ctor: Ctor = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class RunDecl:
    kind: str
    args: tuple = ()
    result: str = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class AssertDecl:
    target: tuple  # dotted path, e.g. ("R", "F")
    op: str
    value: float
    tol: float = None
    line: int = field(default=0, compare=False)
    target_at: tuple = field(default=(0, 0), compare=False)  # (line, col) of the result name


@dataclass(frozen=True)
class EmitDecl:
    fmt: str
    path: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Script:
    statements: tuple


RUN_KINDS = ("born", "chsh", "activation", "witness", "conditional", "span")
