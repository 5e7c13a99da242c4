"""Line-oriented script language: lexer, parser, pretty-printer.

The language is deliberately tiny: seven statement forms, keyword
arguments everywhere, ``#`` comments, and rational-pi angle literals
(``pi/8``, ``-3*pi/4``).  Statements normally end at the newline, but a
line with open brackets continues onto the next.

``parse_script(pretty_print(parse_script(text)))`` returns a tree equal
to ``parse_script(text)``: the printer is a normal form, not a
transcript.
"""

from __future__ import annotations

import math
import re

from ..errors import ParseError
from .ast import (
    RUN_KINDS,
    AssertDecl,
    Ctor,
    EmitDecl,
    ListV,
    MeasureDecl,
    Num,
    Ref,
    RunDecl,
    Script,
    StateDecl,
    Str,
    SystemDecl,
    TransformDecl,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<cmp>==|!=|<=|>=|<|>)
  | (?P<punct>[=,(){}\[\].*/+-])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"system", "state", "measure", "transform", "run", "assert", "emit",
             "on", "as", "tol", "pi", "product"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"_Token({self.kind!r}, {self.text!r}, {self.line}, {self.col})"


def _tokenize(text: str):
    """One scan: every character falls in some token, so ``finditer`` leaves no gaps."""
    tokens = []
    line, line_start, depth = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            if depth == 0 and tokens and tokens[-1].kind != "newline":
                tokens.append(_Token("newline", "\n", line, col))
            line += 1
            line_start = m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", line, col)
        elif kind != "ws" and kind != "comment":
            if kind == "punct" and tok in "([{":
                depth += 1
            elif kind == "punct" and tok in ")]}":
                depth = max(0, depth - 1)
            tokens.append(_Token(kind, tok, line, col))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    # -- primitives ----------------------------------------------------
    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def _advance(self) -> _Token:
        t = self.tok
        if t.kind != "eof":
            self.i += 1
        return t

    def _error(self, expected: str):
        t = self.tok
        got = "end of input" if t.kind == "eof" else repr(t.text)
        raise ParseError(f"expected {expected}, got {got}", t.line, t.col)

    def _eat(self, kind: str, text: str = None) -> _Token:
        t = self.tok
        if t.kind != kind or (text is not None and t.text != text):
            self._error(text if text is not None else kind)
        return self._advance()

    def _skip_newlines(self):
        while self.tok.kind == "newline":
            self._advance()

    def _at(self, kind: str, text: str = None) -> bool:
        t = self.tok
        return t.kind == kind and (text is None or t.text == text)

    # -- values ---------------------------------------------------------
    def _number(self) -> float:
        t = self.tok
        try:
            value = self._literal()
        except ZeroDivisionError:
            value = math.nan
        if not math.isfinite(value):
            raise ParseError("number is not finite (overflow or division by zero)", t.line, t.col)
        return value

    def _literal(self) -> float:
        """number ::= ["-"] (NUM ["*" "pi" ["/" NUM]] | "pi" ["/" NUM])"""
        sign = 1.0
        if self._at("punct", "-"):
            self._advance()
            sign = -1.0
        if self._at("id", "pi"):
            self._advance()
            value = math.pi
            if self._at("punct", "/"):
                self._advance()
                value /= float(self._eat("number").text)
            return sign * value
        num = float(self._eat("number").text)
        if self._at("punct", "*"):
            save = self.i
            self._advance()
            if self._at("id", "pi"):
                self._advance()
                num *= math.pi
                if self._at("punct", "/"):
                    self._advance()
                    num /= float(self._eat("number").text)
            else:
                self.i = save
        return sign * num

    def _value(self):
        t = self.tok
        if t.kind == "string":
            self._advance()
            return Str(_unquote(t.text))
        if t.kind == "punct" and t.text == "[":
            self._advance()
            return ListV(self._sequence("]", self._value))
        if t.kind == "id" and t.text != "pi":
            self._advance()
            return Ref(t.text, t.line, t.col)
        # only a punct token reads "-" and only an id token reads "pi"
        if t.kind == "number" or t.text in ("-", "pi"):
            return Num(self._number())
        self._error("a value (number, string, identifier, or list)")

    def _kv(self) -> tuple:
        key = self._eat("id").text
        self._eat("punct", "=")
        return key, self._value()

    def _sequence(self, close: str, item) -> tuple:
        """``item ("," item)*`` or nothing, then ``close``."""
        items = []
        if not self._at("punct", close):
            items.append(item())
            while self._at("punct", ","):
                self._advance()
                items.append(item())
        self._eat("punct", close)
        return tuple(items)

    def _ctor(self) -> Ctor:
        name = self._eat("id").text
        self._eat("punct", "(")
        return Ctor(name, self._sequence(")", self._kv))

    def _ident(self, what="an identifier") -> tuple:
        """``(name, (line, col))`` of the next identifier."""
        t = self.tok
        if t.kind != "id" or t.text in _KEYWORDS:
            self._error(what)
        self._advance()
        return t.text, (t.line, t.col)

    # -- statements -----------------------------------------------------
    def parse(self) -> Script:
        stmts = []
        self._skip_newlines()
        while self.tok.kind != "eof":
            stmts.append(self._statement())
            if self.tok.kind not in ("newline", "eof"):
                self._error("end of statement")
            self._skip_newlines()
        return Script(tuple(stmts))

    def _statement(self):
        t = self.tok
        if t.kind != "id":
            self._error("a statement keyword")
        line = t.line
        word = t.text
        if word == "system":
            name = self._head("a system name")
            self._eat("id", "composite")
            self._eat("punct", "(")
            return SystemDecl(name, self._sequence(")", self._kv), line=line)
        if word == "state":
            name = self._head("a state name")
            if self._at("id", "product"):
                self._advance()
                self._eat("punct", "(")
                left, left_at = self._ident("a state name")
                self._eat("punct", ",")
                right, right_at = self._ident("a state name")
                self._eat("punct", ")")
                return StateDecl(name, product=(left, right), line=line,
                                 product_at=(left_at, right_at))
            ctor = self._ctor()
            self._eat("id", "on")
            system, at = self._ident("a system name")
            return StateDecl(name, ctor=ctor, system=system, line=line, system_at=at)
        if word == "measure":
            name = self._head("a measurement name")
            ctor = self._ctor()
            self._eat("id", "on")
            system, at = self._ident("a system name")
            return MeasureDecl(name, ctor=ctor, system=system, line=line, system_at=at)
        if word == "transform":
            name = self._head("a transform name")
            return TransformDecl(name, ctor=self._ctor(), line=line)
        if word == "run":
            self._advance()
            kind = self._eat("id").text
            if kind not in RUN_KINDS:
                raise ParseError(
                    f"unknown run kind {kind!r}, expected one of {', '.join(RUN_KINDS)}",
                    t.line, t.col)
            self._eat("punct", "{")
            args = self._sequence("}", self._kv)
            result = None
            if self._at("id", "as"):
                self._advance()
                result = self._ident("a result name")[0]
            return RunDecl(kind, args, result=result, line=line)
        if word == "assert":
            self._advance()
            first, at = self._ident("a result name")
            path = [first]
            while self._at("punct", "."):
                self._advance()
                path.append(self._eat("id").text)
            if self.tok.kind != "cmp":
                self._error("a comparison operator")
            op = self._advance().text
            value = self._number()
            tol = None
            if self._at("id", "tol"):
                self._advance()
                tt = self.tok
                tol = self._number()
                if tol < 0:
                    raise ParseError(f"tolerance must be >= 0, got {tol!r}", tt.line, tt.col)
            return AssertDecl(tuple(path), op, value, tol=tol, line=line, target_at=at)
        if word == "emit":
            self._advance()
            fmt = self._eat("id").text
            if fmt not in ("csv", "json"):
                raise ParseError(f"emit format must be csv or json, got {fmt!r}",
                                 t.line, t.col)
            path = _unquote(self._eat("string").text)
            return EmitDecl(fmt, path, line=line, col=t.col)
        self._error("a statement keyword (system/state/measure/transform/run/assert/emit)")

    def _head(self, what: str) -> str:
        """``KEYWORD NAME =``: the declared name."""
        self._advance()
        name = self._ident(what)[0]
        self._eat("punct", "=")
        return name


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _reads(st):
    """``(name, line, col)`` of each name a statement reads: its ``Ref`` arguments and list items
    one level deep, then its ``on`` system, its ``product`` factors and its assert root."""
    ctor = getattr(st, "ctor", None)
    for _, value in ctor.args if ctor is not None else getattr(st, "args", ()):
        for item in value.items if isinstance(value, ListV) else (value,):
            if isinstance(item, Ref):
                yield item.name, item.line, item.col
    if getattr(st, "system", None) is not None:
        yield st.system, *st.system_at
    for name, at in zip(getattr(st, "product", None) or (), getattr(st, "product_at", ())):
        yield name, *at
    if isinstance(st, AssertDecl):
        yield st.target[0], *st.target_at


def _check(script: Script):
    """Static checks: each name defined before a statement reads it, at most one emit."""
    defined = set()
    emits = 0
    for st in script.statements:
        for name, line, col in _reads(st):
            if name not in defined:
                raise ParseError(f"identifier {name!r} used before definition", line, col)
        if isinstance(st, EmitDecl):
            emits += 1
            if emits > 1:
                raise ParseError("at most one emit statement per script", st.line, st.col)
        # a declaration defines its name, a run its result; other statements define nothing
        defined.add(getattr(st, "name", None) or getattr(st, "result", None))


def parse_script(text: str) -> Script:
    """Parse script text to an AST, with static well-formedness checks."""
    script = _Parser(text).parse()
    _check(script)
    return script


def _fmt_num(x: float) -> str:
    if float(x).is_integer() and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _fmt_value(v) -> str:
    if isinstance(v, Num):
        return _fmt_num(v.value)
    if isinstance(v, Str):
        return _quote(v.value)
    if isinstance(v, Ref):
        return v.name
    if isinstance(v, ListV):
        return "[" + ", ".join(_fmt_value(x) for x in v.items) + "]"
    raise TypeError(f"not a value node: {v!r}")


def _fmt_args(args: tuple) -> str:
    return ", ".join(f"{k}={_fmt_value(v)}" for k, v in args)


def pretty_print(script: Script) -> str:
    """Canonical text for a script; reparses to an equal AST."""
    out = []
    for st in script.statements:
        if isinstance(st, SystemDecl):
            out.append(f"system {st.name} = composite({_fmt_args(st.args)})")
        elif isinstance(st, StateDecl):
            if st.product is not None:
                out.append(f"state {st.name} = product({st.product[0]}, {st.product[1]})")
            else:
                out.append(
                    f"state {st.name} = {st.ctor.name}({_fmt_args(st.ctor.args)}) on {st.system}"
                )
        elif isinstance(st, MeasureDecl):
            out.append(
                f"measure {st.name} = {st.ctor.name}({_fmt_args(st.ctor.args)}) on {st.system}"
            )
        elif isinstance(st, TransformDecl):
            out.append(f"transform {st.name} = {st.ctor.name}({_fmt_args(st.ctor.args)})")
        elif isinstance(st, RunDecl):
            text = f"run {st.kind} {{ {_fmt_args(st.args)} }}" if st.args else (
                f"run {st.kind} {{ }}")
            if st.result is not None:
                text += f" as {st.result}"
            out.append(text)
        elif isinstance(st, AssertDecl):
            text = f"assert {'.'.join(st.target)} {st.op} {_fmt_num(st.value)}"
            if st.tol is not None:
                text += f" tol {_fmt_num(st.tol)}"
            out.append(text)
        elif isinstance(st, EmitDecl):
            out.append(f"emit {st.fmt} {_quote(st.path)}")
        else:
            raise TypeError(f"not a statement node: {st!r}")
    return "\n".join(out) + ("\n" if out else "")
