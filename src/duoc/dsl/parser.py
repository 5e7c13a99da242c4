"""Line-oriented script language: lexer, parser, pretty-printer.

The language is deliberately tiny: seven statement forms, keyword
arguments everywhere, ``#`` comments, and rational-pi angle literals
(``pi/8``, ``-3*pi/4``).  Statements normally end at the newline, but a
line with open brackets continues onto the next.

A script goes through two passes.  The lexer is one ``findall`` over
the text: each match pairs the blanks and comment before a token with
the token (empty at the end).  A token is a plain ``(kind, text, line,
col)`` tuple, whose kind is read off its whole text if that is fixed
(punctuation, comparison, newline), else off its first character.  The
whole text is tokenized first, so an unexpected character anywhere wins
over a syntax error.  The parser then indexes the list and checks each
name at the token that reads it: it must be bound by an earlier
statement, and a second ``emit`` is refused.  The first such failure is
raised once the whole text has parsed, so a syntax error anywhere wins
over it.

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

# Every position starts a match, so the matches tile the text with no gaps.
_TOKEN_RE = re.compile(
    r"""
    ([ \t]*(?:\#[^\n]*)?)                      # blanks and a comment before the token
    ( [A-Za-z_][A-Za-z_0-9]*                  # id
    | [=!<>]=                                 # two-character comparison
    | [=,(){}\[\].*/+\-<>\n]                  # punctuation, < or >, newline
    | \d+(?:\.\d+)?(?:[eE][+-]?\d+)?          # number
    | "(?:[^"\\\n]|\\.)*"                     # string
    | .                                       # any other character: refused
    | \Z )                                    # end of the text: an empty token
    """,
    re.VERBOSE,
)

# kind of a token of fixed text (a lone ``!`` or ``"`` is refused), else by its first character
_FIXED_KIND = {**dict.fromkeys("=,(){}[].*/+-", "punct"),
               **dict.fromkeys(["==", "!=", "<=", ">=", "<", ">"], "cmp"),
               "\n": "newline", "": "eof", "!": "bad", '"': "bad"}
_FIRST_KIND = {**dict.fromkeys("0123456789", "number"), '"': "string",
               **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "id")}

_KEYWORDS = {"system", "state", "measure", "transform", "run", "assert", "emit",
             "on", "as", "tol", "pi", "product"}


def _tokenize(text: str) -> list:
    """``(kind, text, line, col)`` of each token, ending in one ``eof``.  A newline token ends
    a statement: newlines inside brackets, at the start and after another newline are dropped."""
    tokens = []
    append = tokens.append
    line, col, depth = 1, 1, 0
    for skip, tok in _TOKEN_RE.findall(text):
        col += len(skip)
        kind = (_FIXED_KIND.get(tok) or _FIRST_KIND.get(tok[0])
                or ("number" if tok[0].isdecimal() else "bad"))  # ``\d`` takes non-ASCII digits too
        if kind == "punct":
            if tok in "([{":
                depth += 1
            elif tok in ")]}" and depth:
                depth -= 1
        elif kind == "newline":
            if depth == 0 and tokens and tokens[-1][0] != "newline":
                append((kind, tok, line, col))
            line, col = line + 1, 1
            continue
        elif kind == "eof":
            break
        elif kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", line, col)
        append((kind, tok, line, col))
        col += len(tok)
    append(("eof", "", line, col))
    return tokens


class _Parser:
    """Recursive descent over the token list; ``self.i`` indexes the next token, never past
    ``eof``.  Punctuation and keywords are told apart from every other token by text alone."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.bound = set()  # names bound by the statements parsed so far
        self.emitted = False
        self.failure = None  # the first name or emit failure in statement order

    # -- primitives ----------------------------------------------------
    def _error(self, expected: str, at: int = None):
        kind, text, line, col = self.tokens[self.i if at is None else at]
        got = "end of input" if kind == "eof" else repr(text)
        raise ParseError(f"expected {expected}, got {got}", line, col)

    def _eat(self, kind: str, expected: str = None) -> str:
        """The text of the next token, which must be of ``kind``."""
        t = self.tokens[self.i]
        if t[0] != kind:
            self._error(expected or kind)
        self.i += 1
        return t[1]

    def _expect(self, text: str):
        """Step over the next token, which must read ``text``."""
        if self.tokens[self.i][1] != text:
            self._error(text)
        self.i += 1

    def _at(self, text: str) -> bool:
        return self.tokens[self.i][1] == text

    def _fail(self, message: str, line: int, col: int):
        if self.failure is None:
            self.failure = ParseError(message, line, col)

    def _read(self, name: str, line: int, col: int):
        if name not in self.bound:
            self._fail(f"identifier {name!r} used before definition", line, col)

    # -- values ---------------------------------------------------------
    def _number(self) -> float:
        """number ::= ["-"] (NUM ["*" "pi" ["/" NUM]] | "pi" ["/" NUM]), and finite"""
        tokens, i = self.tokens, self.i
        first = tokens[i]
        sign = 1.0
        if first[1] == "-":
            i += 1
            sign = -1.0
        kind, text = tokens[i][0], tokens[i][1]
        if kind == "number":
            value = float(text)
            if tokens[i + 1][1] == "*" and tokens[i + 2][1] == "pi":
                value *= math.pi
                i += 2
        elif text == "pi":
            value = math.pi
        else:
            self._error("number", i)
        self.i = i + 1
        if tokens[i][1] == "pi" and tokens[i + 1][1] == "/":
            self.i = i + 2
            divisor = float(self._eat("number"))
            value = value / divisor if divisor else math.nan
        value = sign * value
        if not math.isfinite(value):
            raise ParseError("number is not finite (overflow or division by zero)", *first[2:])
        return value

    def _value(self, depth: int = 0):
        """A value ``depth`` lists deep; a name at most one list deep must be bound."""
        kind, text, line, col = self.tokens[self.i]
        if kind == "id" and text != "pi":
            self.i += 1
            if depth < 2:
                self._read(text, line, col)
            return Ref(text)
        # only a punct token reads "-" and only an id token reads "pi"
        if kind == "number" or text == "-" or text == "pi":
            return Num(self._number())
        if kind == "string":
            self.i += 1
            return Str(_unquote(text))
        if text == "[":
            self.i += 1
            return ListV(self._sequence("]", lambda: self._value(depth + 1)))
        self._error("a value (number, string, identifier, or list)")

    def _kv(self) -> tuple:
        key = self._eat("id")
        self._expect("=")
        return key, self._value()

    def _sequence(self, close: str, item) -> tuple:
        """``item ("," item)*`` or nothing, then ``close``."""
        tokens = self.tokens
        items = []
        if tokens[self.i][1] != close:
            items.append(item())
            while tokens[self.i][1] == ",":
                self.i += 1
                items.append(item())
        self._expect(close)
        return tuple(items)

    def _ctor(self) -> Ctor:
        name = self._eat("id")
        self._expect("(")
        return Ctor(name, self._sequence(")", self._kv))

    def _ident(self, what: str, reads: bool = False) -> str:
        """The next identifier, which must be bound if the statement ``reads`` it."""
        kind, text, line, col = self.tokens[self.i]
        if kind != "id" or text in _KEYWORDS:
            self._error(what)
        self.i += 1
        if reads:
            self._read(text, line, col)
        return text

    # -- statements -----------------------------------------------------
    def parse(self) -> Script:
        tokens = self.tokens
        stmts = []
        while tokens[self.i][0] != "eof":
            st = self._statement()
            stmts.append(st)
            # a declaration binds its name, a run its result; other statements bind nothing
            self.bound.add(getattr(st, "name", None) or getattr(st, "result", None))
            kind = tokens[self.i][0]
            if kind == "newline":
                self.i += 1
            elif kind != "eof":
                self._error("end of statement")
        if self.failure is not None:
            raise self.failure
        return Script(tuple(stmts))

    def _statement(self):
        kind, word, line, col = self.tokens[self.i]
        if kind != "id":
            self._error("a statement keyword")
        if word == "system":
            name = self._head("a system name")
            self._expect("composite")
            self._expect("(")
            return SystemDecl(name, self._sequence(")", self._kv), line=line)
        if word == "state":
            name = self._head("a state name")
            if self._at("product"):
                self.i += 1
                self._expect("(")
                left = self._ident("a state name", reads=True)
                self._expect(",")
                right = self._ident("a state name", reads=True)
                self._expect(")")
                return StateDecl(name, product=(left, right), line=line)
            ctor = self._ctor()
            self._expect("on")
            return StateDecl(name, ctor=ctor, system=self._ident("a system name", reads=True),
                             line=line)
        if word == "measure":
            name = self._head("a measurement name")
            ctor = self._ctor()
            self._expect("on")
            return MeasureDecl(name, ctor=ctor, system=self._ident("a system name", reads=True),
                               line=line)
        if word == "transform":
            name = self._head("a transform name")
            return TransformDecl(name, ctor=self._ctor(), line=line)
        if word == "run":
            self.i += 1
            run = self._eat("id")
            if run not in RUN_KINDS:
                raise ParseError(
                    f"unknown run kind {run!r}, expected one of {', '.join(RUN_KINDS)}",
                    line, col)
            self._expect("{")
            args = self._sequence("}", self._kv)
            result = None
            if self._at("as"):
                self.i += 1
                result = self._ident("a result name")
            return RunDecl(run, args, result=result, line=line)
        if word == "assert":
            self.i += 1
            path = [self._ident("a result name", reads=True)]
            while self._at("."):
                self.i += 1
                path.append(self._eat("id"))
            op = self._eat("cmp", "a comparison operator")
            value = self._number()
            tol = None
            if self._at("tol"):
                self.i += 1
                tt = self.tokens[self.i]
                tol = self._number()
                if tol < 0:
                    raise ParseError(f"tolerance must be >= 0, got {tol!r}", tt[2], tt[3])
            return AssertDecl(tuple(path), op, value, tol=tol, line=line)
        if word == "emit":
            self.i += 1
            fmt = self._eat("id")
            if fmt not in ("csv", "json"):
                raise ParseError(f"emit format must be csv or json, got {fmt!r}", line, col)
            path = _unquote(self._eat("string"))
            if self.emitted:
                self._fail("at most one emit statement per script", line, col)
            self.emitted = True
            return EmitDecl(fmt, path, line=line)
        self._error("a statement keyword (system/state/measure/transform/run/assert/emit)")

    def _head(self, what: str) -> str:
        """``KEYWORD NAME =``: the declared name."""
        self.i += 1
        name = self._ident(what)
        self._expect("=")
        return name


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def parse_script(text: str) -> Script:
    """Parse script text to an AST, with static well-formedness checks."""
    return _Parser(text).parse()


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
