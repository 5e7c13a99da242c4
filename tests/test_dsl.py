import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from duoc.cli import main as cli_main
from duoc.dsl import (
    DEMOS,
    ResultTable,
    RunConfig,
    parse_result_json,
    parse_script,
    pretty_print,
    render_csv,
    render_json,
    run_script,
)
from duoc.dsl import interpreter
from duoc.dsl.ast import (
    AssertDecl,
    EmitDecl,
    ListV,
    MeasureDecl,
    Num,
    Ref,
    RunDecl,
    Script,
    StateDecl,
    SystemDecl,
    TransformDecl,
)
from duoc.effects import conditional_failures
from duoc.errors import AssertionFailure, DomainError, DuocError, ParseError, ScriptError
from duoc.systems import SystemSignature

CORPUS = sorted((pathlib.Path(__file__).parent / "corpus").glob("*.duoc"))
SCRIPTS = ([pytest.param(p.read_text(), id=p.stem) for p in CORPUS]
           + [pytest.param(text, id=f"demo-{name}") for name, text in sorted(DEMOS.items())])


def parse(text):
    return parse_script(text)


class TestLexerAndNumbers:
    def test_number_forms(self):
        s = parse(
            "system S = composite(d=2, bits=1, antibits=0)\n"
            "state A = classical(weights=[0.5, 0.5]) on S\n"
            "measure M = computational() on S\n"
            "run born { state=A, measure=M } as R\n"
            "assert R.p0 == 5e-1\n"
            "assert R.p0 <= 1.0\n"
        )
        assert s.statements[4].value == 0.5

    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi", math.pi),
            ("pi/8", math.pi / 8),
            ("3*pi/4", 3 * math.pi / 4),
            ("-pi/2", -math.pi / 2),
            ("-2.5", -2.5),
            ("1e-9", 1e-9),
            ("2", 2.0),
        ],
    )
    def test_pi_literals(self, text, value):
        s = parse(f"run chsh {{ a0 = {text} }} as R\n")
        assert s.statements[0].args[0][1].value == pytest.approx(value, rel=1e-15)

    def test_comments_and_blank_lines(self):
        s = parse("# a comment\n\nsystem S = composite(d=2)\n# trailing\n")
        assert len(s.statements) == 1

    def test_bracket_continuation(self):
        s = parse(
            "system S = composite(d=2, bits=1, antibits=0)\n"
            "state A = classical(weights=[\n"
            "    0.25,\n"
            "    0.75\n"
            "]) on S\n"
        )
        ctor = s.statements[1].ctor
        assert ctor.args[0][1] == ListV((Num(0.25), Num(0.75)))

    @pytest.mark.parametrize(
        "text,line,col,char",
        [
            ("system $ = composite(d=2)\n", 1, 8, "$"),
            ("# header\n# second\nsystem $ = composite(d=2)\n", 3, 8, "$"),
            ("system S = composite(d=2)\n\n\n\nrun span { system=$ } as R\n", 5, 19, "$"),
            ("system S = composite(d=2, bits=1, antibits=0)\n"
             "state A = classical(weights=[\n"
             "    0.25,\n"
             "    0.75]) on S\n"
             "measure M = $\n", 5, 13, "$"),
            ("system S = composite(d=2)\r\n", 1, 26, "\r"),
            ('system S = composite(d=2)\nemit csv "out.csv\n', 2, 10, '"'),
        ],
        ids=["line1", "after-comments", "after-blank-lines", "after-continuation", "carriage-return",
             "unterminated-string"],
    )
    def test_unexpected_character(self, text, line, col, char):
        with pytest.raises(ParseError, match=f"unexpected character {re.escape(repr(char))}") as e:
            parse(text)
        assert (e.value.line, e.value.col) == (line, col)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as e:
            parse("system S = composite(d=2)\nstate B =\n")
        assert e.value.line == 2

    SYS = "system S = composite(d=2, bits=1, antibits=0)\n"
    RUN = SYS + "run span { system=S } as R\n"

    # the end of the text, comments, one- and two-character operators, bracket depth and tabs
    # are where a change to the scan could move a message or its position
    @pytest.mark.parametrize(
        "text,line,col,message",
        [
            (SYS + "run span { system=S } as R $", 2, 28, "unexpected character '$'"),
            (SYS + "# note\n%", 3, 1, "unexpected character '%'"),
            ("system S = composite(d=2,\n# still open", 2, 13, "expected id, got end of input"),
            (SYS + "state A = # dangling", 2, 21, "expected id, got end of input"),
            (RUN + "assert R.dim ! 2\n", 3, 14, "unexpected character '!'"),
            (RUN + "assert R.dim !!= 2\n", 3, 14, "unexpected character '!'"),
            (RUN + "assert R.dim !=! 2\n", 3, 16, "unexpected character '!'"),
            (RUN + "assert R.dim === 2\n", 3, 16, "expected number, got '='"),
            (RUN + "assert R.dim = 2\n", 3, 14, "expected a comparison operator, got '='"),
            ("system S == composite(d=2)\n", 1, 10, "expected =, got '=='"),
            (SYS + ")\n", 2, 1, "expected a statement keyword, got ')'"),
            ("system S = composite(d=2))\nstate A = basis(digits=[0]) on S\n", 1, 26,
             "expected end of statement, got ')'"),
            (SYS + "state A = classical(weights=[[0.5,\n 0.5],\n\n 3\n)\n", 6, 1,
             "expected ], got ')'"),
            ("system S = composite(d=[(\n\n 2\n", 1, 25,
             "expected a value (number, string, identifier, or list), got '('"),
            (SYS + "\t\t$\n", 2, 3, "unexpected character '$'"),
            (SYS + "run span {\tsystem=S\t@ } as R\n", 2, 21, "unexpected character '@'"),
            (SYS + 'emit csv "out.csv', 2, 10, "unexpected character '\"'"),
            (SYS + 'emit csv "', 2, 10, "unexpected character '\"'"),
            ("system S = composite(d=2, bits=1", 1, 33, "expected ), got end of input"),
            ("system S = composite(d=2,\n bits=1,\n", 3, 1, "expected id, got end of input"),
            (SYS + "state A = classical(weights=[0.5, \n", 3, 1,
             "expected a value (number, string, identifier, or list), got end of input"),
            ("run chsh { a0=0,   ", 1, 20, "expected id, got end of input"),
            ("system = = =\n$", 2, 1, "unexpected character '$'"),
        ],
        ids=["bad-char-at-end-no-newline", "bad-char-after-comment-no-newline",
             "comment-last-inside-brackets", "comment-last-after-open-statement", "lone-bang",
             "bang-before-neq", "bang-after-neq", "eq-before-eqeq", "eq-as-comparison",
             "eqeq-as-binding", "unmatched-close-line-start", "unmatched-close-after-statement",
             "newline-in-nested-brackets", "newline-in-open-brackets", "tab-before-bad-char",
             "tab-inside-line-before-bad-char", "unterminated-string-at-end",
             "lone-quote-at-end", "end-inside-brackets", "end-inside-brackets-after-newlines",
             "end-inside-list", "end-after-blanks-inside-brackets",
             "bad-char-wins-over-earlier-syntax-error"],
    )
    def test_error_position_pinned(self, text, line, col, message):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert (e.value.line, e.value.col) == (line, col)
        assert str(e.value) == f"line {line}, col {col}: {message}"

    def test_digits_beyond_ascii_read_as_a_number(self):
        # the number pattern's ``\d`` matches any decimal digit, and float() reads it
        s = parse("run chsh { a0 = \u0663, a1 = 1\u0665 } as R\n")
        assert [v.value for _, v in s.statements[0].args] == [3.0, 15.0]

    def test_string_escapes(self):
        s = parse('emit csv "a \\"b\\" c.csv"\n')
        assert s.statements[0].path == 'a "b" c.csv'


class TestStaticChecks:
    PRELUDE = (
        "system S = composite(d=2, bits=1, antibits=1)\n"
        "state E = entpair(p=0.5) on S\n"
        "transform T = reversible(shifts=[1])\n"
    )

    # the name's own line and column, also where the statement runs onto a second line
    @pytest.mark.parametrize(
        "statement,name,line,col",
        [
            ("run born { state=X } as R", "X", 4, 18),
            ("transform U = reversible(shifts=[1, X])", "X", 4, 37),
            ("state A = basis(digits=[0, 0]) on X", "X", 4, 35),
            ("state A = product(X, E)", "X", 4, 19),
            ("state A = product(E, X)", "X", 4, 22),
            ("state A = apply(state=X, transform=T) on S", "X", 4, 23),
            ("state A = apply(state=E, transform=X) on S", "X", 4, 36),
            ("state A = purify(of=X) on S", "X", 4, 21),
            ("run span { system=X } as R", "X", 4, 19),
            ("assert X.F == 2", "X", 4, 8),
            ("state A = product(A, A)", "A", 4, 19),
            ("measure M = witness(p=0.3) on X", "X", 4, 31),
            ("run born { state=E,\n  measure=X } as R", "X", 5, 11),
            ("state A = basis(digits=[0,\n 0]) on X", "X", 5, 9),
            ("state A = product(E,\n   X)", "X", 5, 4),
        ],
        ids=["ref-argument", "list-item", "on-system", "product-left", "product-right",
             "apply-state", "apply-transform", "purify-of", "span-system", "assert-root",
             "reads-own-name", "measure-system", "second-line-argument", "second-line-system",
             "second-line-factor"],
    )
    def test_used_before_definition(self, statement, name, line, col):
        with pytest.raises(ParseError, match=f"identifier '{name}' used before definition") as e:
            parse(self.PRELUDE + statement + "\n")
        assert (e.value.line, e.value.col) == (line, col)
        assert str(e.value).startswith(f"line {line}, col {col}: ")

    # the first failure in statement order is raised, and only once the whole text has parsed
    @pytest.mark.parametrize(
        "tail,line,col,message",
        [
            ("run born { state=Q } as R\nsystem = \n", 5, 8, "expected a system name, got '='"),
            ('emit csv "a"\nemit csv "b"\nrun born { state=Q } as R\n', 5, 1,
             "at most one emit statement per script"),
            ('run born { state=Q } as R\nemit csv "a"\nemit csv "b"\n', 4, 18,
             "identifier 'Q' used before definition"),
            ("state A = classical(weights=[[Y], X]) on S\n", 4, 35,
             "identifier 'X' used before definition"),
        ],
        ids=["syntax-error-after-undefined-name", "second-emit-before-undefined-name",
             "undefined-name-before-second-emit", "list-item-after-nested-list"],
    )
    def test_first_failure_wins(self, tail, line, col, message):
        with pytest.raises(ParseError) as e:
            parse(self.PRELUDE + tail)
        assert str(e.value) == f"line {line}, col {col}: {message}"

    def test_names_two_lists_deep_are_left_to_the_interpreter(self):
        s = parse(self.PRELUDE + "state A = classical(weights=[[X]]) on S\n")
        assert s.statements[-1].ctor.args[0][1] == ListV((ListV((Ref("X"),)),))

    def test_ref_inside_args_checked(self):
        with pytest.raises(ParseError, match="before definition"):
            parse(
                "system S = composite(d=2, bits=1, antibits=1)\n"
                "measure M = witness(p=0.3) on S\n"
                "run born { state=missing, measure=M } as R\n"
            )

    def test_single_emit_enforced(self):
        with pytest.raises(ParseError, match="one emit") as e:
            parse('emit csv "a.csv"\n  emit json "b.json"\n')
        assert (e.value.line, e.value.col) == (2, 3)

    def test_unknown_run_kind(self):
        with pytest.raises(ParseError):
            parse("run teleport { } as R\n")

    def test_assert_requires_known_result(self):
        with pytest.raises(ParseError, match="before definition"):
            parse("assert R.f == 2\n")


class TestRoundTrip:
    @pytest.mark.parametrize("text", SCRIPTS)
    def test_corpus_round_trips(self, text):
        script = parse(text)
        printed = pretty_print(script)
        assert parse(printed) == script
        assert pretty_print(parse(printed)) == printed

    def test_corpus_is_populated(self):
        assert len(CORPUS) == 30

    def test_ast_equality_ignores_line_numbers(self):
        a = parse("system S = composite(d=2)\n")
        b = parse("# shifted down\n\nsystem S = composite(d=2)\n")
        assert a == b


_KEYWORD = {SystemDecl: "system", StateDecl: "state", MeasureDecl: "measure",
            TransformDecl: "transform", RunDecl: "run", AssertDecl: "assert", EmitDecl: "emit"}


def _word_at(lines, word, line, col):
    """``word`` stands whole at 1-based ``(line, col)`` of the source lines."""
    assert line >= 1 and col >= 1, (word, line, col)
    text = f" {lines[line - 1]} "  # pad: the word sits at text[col:col + len(word)]
    around = text[col - 1] + text[col + len(word)]
    return (text[col:col + len(word)] == word
            and not any(ch.isalnum() or ch == "_" for ch in around))


def _refs(value):
    if isinstance(value, Ref):
        yield value
    elif isinstance(value, ListV):
        for item in value.items:
            yield from _refs(item)


class TestPositions:
    """Each position the parser records names the word it belongs to in the source text,
    read with plain string slicing and no tokenizer."""

    @pytest.mark.parametrize("text", SCRIPTS)
    def test_positions_point_at_their_words(self, text):
        lines = text.split("\n")
        for st in parse(text).statements:
            head = lines[st.line - 1]
            col = len(head) - len(head.lstrip(" \t")) + 1
            assert _word_at(lines, _KEYWORD[type(st)], st.line, col), st
            if isinstance(st, EmitDecl):
                assert st.col == col
            ctor = getattr(st, "ctor", None)
            for _, value in ctor.args if ctor is not None else getattr(st, "args", ()):
                for ref in _refs(value):
                    assert _word_at(lines, ref.name, ref.line, ref.col), ref
            if getattr(st, "system", None) is not None:
                assert _word_at(lines, st.system, *st.system_at), st
            for name, at in zip(getattr(st, "product", None) or (), getattr(st, "product_at", ())):
                assert _word_at(lines, name, *at), st
            if isinstance(st, AssertDecl):
                assert _word_at(lines, st.target[0], *st.target_at), st

    def test_positions_cover_every_kind(self):
        """The corpus and demos hold every kind of position the oracle above checks."""
        statements = [st for p in SCRIPTS for st in parse(p.values[0]).statements]
        kinds = {type(st) for st in statements}
        assert kinds == set(_KEYWORD)
        assert any(st.product is not None for st in statements if isinstance(st, StateDecl))
        assert any(isinstance(v, Ref) for st in statements if isinstance(st, RunDecl)
                   for _, v in st.args)


class TestResultTable:
    def test_rows_must_be_rectangular(self):
        with pytest.raises(DomainError):
            ResultTable(rows=[("a", "born", "p0")])

    def test_value_lookup(self):
        t = ResultTable(rows=[("r1", "born", "p0", 0.25)])
        assert t.value("r1", "p0") == 0.25

    def test_csv_empty_is_header_only(self):
        assert render_csv(ResultTable()) == "run,kind,metric,value\n"

    def test_csv_quoting_and_floats(self):
        t = ResultTable(rows=[('we, "x"', "born", "p0", 0.1)])
        out = render_csv(t)
        assert '"we, ""x"""' in out
        assert "0.10000000000000001" in out

    def test_csv_newlines_are_unix(self):
        out = render_csv(ResultTable(rows=[("a", "chsh", "F", 2.0)]))
        assert out.endswith("\n") and "\r" not in out

    def test_json_round_trip(self):
        t = ResultTable(
            rows=[("a", "span", "product_span", 4), ("a", "span", "state_span", 8)],
            metadata={"seed": 3, "script": "demo"},
        )
        back = parse_result_json(render_json(t))
        assert back.rows == t.rows
        assert back.metadata == t.metadata

    def test_json_is_sorted_and_indented(self):
        blob = render_json(ResultTable(metadata={"b": 1, "a": 2}))
        parsed = json.loads(blob)
        assert list(parsed) == ["metadata", "rows"]
        assert blob == json.dumps(parsed, indent=2, sort_keys=True) + "\n"

    def test_emit_to_unwritable_path_is_domain_error(self, tmp_path):
        from duoc.dsl import emit_results

        with pytest.raises(DomainError):
            emit_results(ResultTable(), "csv", str(tmp_path / "no" / "dir" / "x.csv"))


class TestRunConfig:
    def test_explicit_tolerance_wins(self, monkeypatch):
        monkeypatch.setenv("DUOC_TOL", "0.5")
        assert RunConfig(tolerance=1e-6).resolved_tolerance() == 1e-6

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("DUOC_TOL", "1e-3")
        assert RunConfig().resolved_tolerance() == 1e-3

    def test_default(self, monkeypatch):
        monkeypatch.delenv("DUOC_TOL", raising=False)
        assert RunConfig().resolved_tolerance() == 1e-9

    @pytest.mark.parametrize("tol, env", [(math.inf, None), (math.nan, None), (-1e-12, None),
                                          ("abc", None), (None, "1e400"), (None, "inf"),
                                          (None, "nan"), (None, "-1e-9"), (None, "abc")])
    def test_tolerance_must_be_finite_and_nonnegative(self, monkeypatch, tol, env):
        monkeypatch.setenv("DUOC_TOL", env or "")  # empty reads as unset
        source = "DUOC_TOL" if env else "tolerance"
        with pytest.raises(ScriptError, match=f"^{source} must be a finite number >= 0"):
            RunConfig(tolerance=tol).resolved_tolerance()

    def test_zero_tolerance_accepted(self, monkeypatch):
        monkeypatch.setenv("DUOC_TOL", "0")
        assert RunConfig().resolved_tolerance() == 0.0
        assert RunConfig(tolerance=0).resolved_tolerance() == 0.0

    def test_bad_tolerance_refused_before_any_statement(self, tmp_path):
        out = tmp_path / "r.csv"
        script = parse_script(f'run span {{ }} as S\nemit csv "{out}"\n')
        with pytest.raises(ScriptError, match="tolerance"):
            run_script(script, RunConfig(tolerance=math.inf))
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.0, "3", None, True])
    def test_bad_seed_refused_before_any_statement(self, tmp_path, seed):
        out = tmp_path / "r.csv"
        script = parse_script(f'run span {{ }} as S\nemit csv "{out}"\n')
        message = f"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
        with pytest.raises(ScriptError, match=message):
            run_script(script, RunConfig(seed=seed))
        assert not out.exists()

    def test_numpy_integer_seed_runs_as_its_int(self):
        script = parse_script("run conditional { trials=15, d=2, bits=2, antibits=2 } as C\n")
        a, b = (run_script(script, RunConfig(seed=seed)) for seed in (np.uint32(5), 5))
        assert a.rows == b.rows and a.metadata == b.metadata

    def test_generator_made_at_the_first_conditional(self, monkeypatch):
        made, default_rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a) or default_rng(*a))
        run_script(parse_script("run span { d=2, bits=1, antibits=1 } as S\n"), RunConfig(seed=3))
        assert made == []
        text = "run conditional { trials=5 } as C\nrun conditional { trials=5 } as D\n"
        lazy = run_script(parse_script(text), RunConfig(seed=3))
        assert made == [(3,)]
        # the one generator is read in statement order, as one made up front would be
        rng = default_rng(3)
        assert [row[3] for row in lazy.rows if row[2] == "failures"] == [
            conditional_failures(5, SystemSignature(2, 1, 1), rng) for _ in range(2)]


class TestInterpreter:
    def run(self, text, **kw):
        return run_script(parse(text), RunConfig(**kw))

    def test_born_run_rows(self):
        t = self.run(
            "system S = composite(d=2, bits=1, antibits=1)\n"
            "state E = entpair(p=0.5) on S\n"
            "measure M = parity() on S\n"
            "run born { state=E, measure=M } as R\n"
            "assert R.p0 == 1\n"
        )
        assert t.value("R", "p0") == pytest.approx(1.0)
        assert {row[1] for row in t.rows} == {"born"}

    @pytest.mark.parametrize(
        "node,line,message",
        [(RunDecl("teleport", line=3), 3, "unknown run kind 'teleport'"),
         (Num(1.0), 0, "cannot execute Num")],
        ids=["run-kind", "statement-node"],
    )
    def test_unknown_node_is_script_error(self, node, line, message):
        with pytest.raises(ScriptError, match=message) as e:
            run_script(Script((node,)))
        assert e.value.line == line

    def test_assert_failure_carries_context(self):
        with pytest.raises(AssertionFailure, match="p0"):
            self.run(
                "system S = composite(d=2, bits=1, antibits=0)\n"
                "state A = basis(digits=[0]) on S\n"
                "measure M = computational() on S\n"
                "run born { state=A, measure=M } as R\n"
                "assert R.p0 == 0.25\n"
            )

    def test_assert_tolerance_band(self):
        self.run(
            "system S = composite(d=2, bits=1, antibits=0)\n"
            "state A = classical(weights=[0.3333333333, 0.6666666667]) on S\n"
            "measure M = computational() on S\n"
            "run born { state=A, measure=M } as R\n"
            "assert R.p0 == 0.3333333 tol 1e-6\n"
        )

    @pytest.mark.parametrize("op,holds", [("<", False), (">", False), ("<=", True),
                                          (">=", True), ("==", True), ("!=", False)])
    def test_assert_at_the_bound(self, op, holds):
        # strict comparisons ignore the tolerance; the others widen by it
        span = "run span { d=2, bits=1, antibits=1 } as D\n"
        text = span + f"assert D.product_span {op} 4\n"
        if holds:
            self.run(text)
        else:
            with pytest.raises(AssertionFailure):
                self.run(text)

    def test_strict_assert_at_computed_chsh_value(self):
        f = self.run("run chsh { } as R\n").value("R", "F")
        for op in ("<", ">"):
            with pytest.raises(AssertionFailure):
                self.run(f"run chsh {{ }} as R\nassert R.F {op} {f!r}\n")
        self.run(f"run chsh {{ }} as R\nassert R.F <= {f!r} tol 0\nassert R.F >= {f!r} tol 0\n")

    def test_domain_violation_becomes_script_error(self):
        with pytest.raises(ScriptError, match="line 2"):
            self.run(
                "system S = composite(d=2, bits=1, antibits=1)\n"
                "state E = entpair(p=1.5) on S\n"
            )

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(ScriptError, match="unknown argument"):
            self.run("system S = composite(d=2, bogus=3)\n")

    def test_duplicate_binding_rejected(self):
        with pytest.raises(ScriptError):
            self.run("system S = composite(d=2)\nsystem S = composite(d=3)\n")

    def test_conditional_run_seeded(self):
        text = (
            "run conditional { trials=15, d=2, bits=1, antibits=1 } as C\n"
            "assert C.failures == 0\n"
        )
        a = run_script(parse(text), RunConfig(seed=5))
        b = run_script(parse(text), RunConfig(seed=5))
        assert a.rows == b.rows

    def test_product_state_spans(self):
        t = self.run(
            "system P = composite(d=2, bits=1, antibits=1)\n"
            "state E = entpair(p=0.5) on P\n"
            "state F = entpair(p=0.5, parity=1) on P\n"
            "state G = product(E, F)\n"
            "run span { d=2, bits=2, antibits=2 } as S\n"
            "assert S.product_span == 16\n"
        )
        # cross-checked against the rank of random valid projectors
        assert t.value("S", "state_span") == 96

    def test_transform_applied(self):
        t = self.run(
            "system S = composite(d=2, bits=1, antibits=1)\n"
            "state E = entpair(p=0.4) on S\n"
            "transform X = reversible(shifts=[0, 1])\n"
            "state E2 = apply(state=E, transform=X) on S\n"
            "measure M = parity() on S\n"
            "run born { state=E2, measure=M } as R\n"
            "assert R.p1 == 1\n"
        )
        assert t.value("R", "p0") == pytest.approx(0.0, abs=1e-12)

    def test_transform_applied_by_index_map(self):
        import numpy as np

        from duoc.dsl.interpreter import _Interpreter
        from duoc.dynamics import ReversibleSpec, apply_reversible, build_reversible

        interp = _Interpreter(RunConfig())
        interp.execute(parse(
            "system S = composite(d=3, bits=1, antibits=1)\n"
            "state E = entstate(coeffs=[0.6, 0.8, 0], parity=1) on S\n"
            "transform T = reversible(shifts=[1, 2], phases=[2, 1])\n"
            "state E2 = apply(state=E, transform=T) on S\n"
        ))
        before, after = interp.env["E"][1], interp.env["E2"][1]
        u = build_reversible(ReversibleSpec(x_shifts=(1, 2), z_phases=(2, 1)), before.sig)
        assert np.array_equal(after.matrix, apply_reversible(u, before).matrix)

    def test_computational_effects_certified_in_index_order(self):
        import numpy as np

        from duoc.dsl.interpreter import _Interpreter
        from duoc.effects import validate_effect
        from duoc.states import build_pure_state

        interp = _Interpreter(RunConfig())
        interp.execute(parse(
            "system S = composite(d=3, bits=1, antibits=1)\n"
            "measure M = computational() on S\n"
        ))
        effects = interp.env["M"][1].effects
        assert len(effects) == 9
        for idx, e in enumerate(effects):
            assert validate_effect(e).witness == "certificate" and validate_effect(e).valid
            assert np.array_equal(build_pure_state(e.certificate[0][1]), np.eye(9)[idx])

    def test_witness_run_metrics(self):
        t = self.run("run witness { p=0.3, grid=0.05 } as W\n")
        assert t.value("W", "min_p_no") == pytest.approx(0.3, abs=1e-12)
        assert t.value("W", "bound") == pytest.approx(0.3)
        assert t.value("W", "p_no_entangled") == pytest.approx(0.0, abs=1e-12)

    def test_emit_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.run(
            "system S = composite(d=2, bits=1, antibits=1)\n"
            "run span { system=S } as T\n"
            'emit csv "out.csv"\n'
        )
        body = (tmp_path / "out.csv").read_text()
        assert body.startswith("run,kind,metric,value\n")
        assert "T,span,product_span,4" in body


class TestDemos:
    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_demo_parses_and_passes(self, name):
        table = run_script(parse_script(DEMOS[name]), RunConfig(seed=0))
        assert len(table.rows) > 0

    def test_demo_csv_byte_stable(self):
        a = render_csv(run_script(parse_script(DEMOS["chsh"]), RunConfig(seed=0)))
        b = render_csv(run_script(parse_script(DEMOS["chsh"]), RunConfig(seed=0)))
        assert a == b


class TestCli:
    def write(self, tmp_path, text, name="s.duoc"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_run_success_exit_zero(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "system S = composite(d=2, bits=1, antibits=1)\n"
            "run span { system=S } as T\n"
            "assert T.product_span == 4\n",
        )
        assert cli_main(["run", path]) == 0
        assert "T,span,product_span,4" in capsys.readouterr().out

    def test_span_with_four_of_each_kind_printed(self, tmp_path, capsys):
        path = self.write(tmp_path, "run span { d=2, bits=4, antibits=4 } as T\n")
        assert cli_main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "T,span,product_span,256" in out and "T,span,state_span,17920" in out

    def test_assertion_failure_exit_one(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "system S = composite(d=2, bits=1, antibits=1)\n"
            "run span { system=S } as T\n"
            "assert T.product_span == 5\n",
        )
        assert cli_main(["run", path]) == 1
        assert "assert" in capsys.readouterr().err.lower()

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = self.write(tmp_path, "system = composite(d=2)\n")
        assert cli_main(["run", path]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_negative_seed_exit_two(self, tmp_path, capsys):
        path = self.write(tmp_path, "run span { } as S\n")
        assert cli_main(["run", "--seed", "-1", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be an integer >= 0, got -1\n"
        assert captured.out == ""

    def test_domain_error_exit_two(self, tmp_path):
        path = self.write(
            tmp_path,
            "system S = composite(d=2, bits=1, antibits=1)\n"
            "state E = entpair(p=0.0) on S\n",
        )
        assert cli_main(["run", path]) == 2

    @pytest.mark.parametrize("text,stage", [
        ("run conditional { trials=-1 } as C\n", ScriptError),
        ("run conditional { trials=0 } as C\n", ScriptError),
        ("run chsh { a0=1e400 } as R\n", ParseError),
        ("run chsh { a0=-3*pi/0 } as R\n", ParseError),
        ("run span { } as S\nassert S.state_span == 8 tol 1e999\n", ParseError),
        ("run span { } as S\nassert S.state_span == 8 tol -1\n", ParseError),
    ])
    def test_out_of_range_inputs_exit_two_without_warnings(self, tmp_path, capsys, text, stage):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(stage) as exc:
                run_script(parse_script(text))
            assert isinstance(exc.value, DuocError)
            assert cli_main(["run", self.write(tmp_path, text)]) == 2
        assert "Warning" not in capsys.readouterr().err

    # huge magnitudes used to escape as a raw OverflowError (a Python power of the amplitude)
    # or to print a numpy overflow warning (a norm, a sum) before the error
    @pytest.mark.parametrize("text,message", [
        ("system S = composite(d=2, bits=1, antibits=1)\n"
         "state A = entstate(coeffs=[1e200, 0]) on S\n", "squared norm inf"),
        ("run activation { coeffs=[1e200, 1] } as R\n", "must be normalized"),
        ("system S = composite(d=2, bits=1, antibits=0)\n"
         "state A = classical(weights=[1e308, 1e308]) on S\n", "probability vector"),
    ], ids=["entstate", "activation", "classical"])
    def test_huge_inputs_exit_two_without_warnings(self, tmp_path, capsys, text, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScriptError, match=message):
                run_script(parse_script(text))
            assert cli_main(["run", self.write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "Warning" not in err and "Traceback" not in err

    # each of these used to crash with a raw numpy or math exception (channel), or to run on
    # a silently changed input: a wrapped anti-dit digit, or a truncated integer
    @pytest.mark.parametrize("text,message", [
        ("transform T = channel(rows=[[1, 0], [0]], d=2)\n", "equal length"),
        ("transform T = channel(rows=[[]], d=2)\n", "non-empty"),
        ("transform T = channel(rows=[], d=2)\n", "non-empty"),
        ("transform T = channel(rows=[[1]], d=1)\n", "d >= 2"),
        ("transform T = channel(rows=[[1]], d=0)\n", "d >= 2"),
        ("system S = composite(d=2, bits=1, antibits=1)\n"
         "state A = basis(digits=[0, 7]) on S\n", "must lie in 0..1"),
        ("system S = composite(d=2, bits=1, antibits=1)\n"
         "state A = basis(digits=[0, -1]) on S\n", "must lie in 0..1"),
        ("system S = composite(d=2, bits=1, antibits=1)\n"
         "state A = basis(digits=[0.9, 1]) on S\n", "'digits' .* integer list"),
        ("transform T = reversible(shifts=[0, 1.5])\n", "'shifts' .* integer list"),
        ("transform T = reversible(phases=[0.5, 1])\n", "'phases' .* integer list"),
        ("system S = composite(d=2, bits=1, antibits=1)\n"
         "state A = basis(digits=[0, 1]) on S\nmeasure M = parity() on S\n"
         "run born { state=A, measure=M, marginal=[1.7] } as B\n",
         "'marginal' .* integer list"),
        ("system C = composite(d=2, bits=1)\nsystem S = composite(d=2, bits=1, antibits=1)\n"
         "state A = classical(weights=[0.5, 0.5]) on C\n"
         "state P = purify(of=A, parity=[0.5]) on S\n", "'parity' .* integer list"),
        ("system C = composite(d=2, bits=1)\nsystem S = composite(d=2, bits=1, antibits=2)\n"
         "state A = classical(weights=[0.5, 0.5]) on C\n"
         "state P = purify(of=A, tail=[1.5]) on S\n", "'tail' .* integer list"),
    ], ids=["ragged-rows", "empty-row", "no-rows", "d1", "d0", "digit7", "digit-1",
            "digits", "shifts", "phases", "marginal", "parity", "tail"])
    def test_bad_transform_and_list_inputs_exit_two(self, tmp_path, capsys, text, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScriptError, match=message):
                run_script(parse_script(text))
            assert cli_main(["run", self.write(tmp_path, text)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    # the state built from the weights checks its trace at DEFAULT_ATOL (1e-10), so the
    # weight check itself must refuse a larger excess, naming the weights, not a matrix
    @pytest.mark.parametrize("ctor,bits,antibits", [
        ("classical(weights=[0.5, {w}])", 1, 0),
        ("classical(weights=[{w}, 0.5])", 0, 1),
        ("separable(weights=[0.5, {w}, 0, 0])", 1, 1),
    ])
    @pytest.mark.parametrize("excess,accepted", [(5e-10, False), (5e-11, True)])
    def test_weight_excess_refused_at_the_trace_tolerance(self, tmp_path, capsys, ctor, bits,
                                                          antibits, excess, accepted):
        text = (f"system C = composite(d=2, bits={bits}, antibits={antibits})\n"
                f"state A = {ctor.format(w=repr(0.5 + excess))} on C\n")
        assert cli_main(["run", self.write(tmp_path, text)]) == (0 if accepted else 2)
        err = capsys.readouterr().err
        if not accepted:
            assert "weights" in err and "matrix" not in err and "Traceback" not in err

    # one dense effect per basis state: at dimension 729 that used to be 6.2 GB of effects
    def test_computational_refused_above_its_dimension_cap(self, tmp_path, capsys):
        text = ("system S = composite(d=2, bits=4, antibits=4)\n"
                "measure M = computational() on S\n")
        tracemalloc.start()
        try:
            assert cli_main(["run", self.write(tmp_path, text)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "refused above dimension 128" in capsys.readouterr().err and peak < 1e6

    # every angle 0 gives F = 2, so F == 7 holds only under a vacuous tolerance
    @pytest.mark.parametrize("flags, env", [(["--tol", "inf"], None), (["--tol", "1e400"], None),
                                            (["--tol", "nan"], None), (["--tol", "-1"], None),
                                            ([], "1e400"), ([], "abc")],
                             ids=["inf", "1e400", "nan", "negative", "env-1e400", "env-abc"])
    def test_bad_run_tolerance_exit_two(self, tmp_path, monkeypatch, capsys, flags, env):
        monkeypatch.setenv("DUOC_TOL", env or "")  # empty reads as unset
        path = self.write(tmp_path, "run chsh { a0=0, a1=0, b0=0, b1=0 } as C\nassert C.F == 7\n")
        assert cli_main(["run", path, *flags]) == 2
        err = capsys.readouterr().err
        assert "must be a finite number >= 0" in err and "Traceback" not in err

    def test_import_does_not_load_scipy(self):
        # nor the test oracle, which no engine module imports
        code = ("import sys, duoc.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules),"
                " 'duoc.oracle' in sys.modules)")
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert out.stdout.strip() == "False False"

    def test_consistency_demo_and_corpus_runs_leave_the_oracle_unloaded(self, tmp_path):
        # run conditional is the engine's batched check, not the oracle's sweep
        corpus = pathlib.Path(__file__).resolve().parent / "corpus"
        code = ("import contextlib, io, pathlib, sys\nfrom duoc.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = [main(['demo', 'consistency'])] + [main(['run', str(p)]) for p in"
                " sorted(pathlib.Path(sys.argv[1]).glob('*.duoc'))]\n"
                "print(set(codes), 'duoc.oracle' in sys.modules)")
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", code, str(corpus)], capture_output=True,
                             text=True, cwd=tmp_path, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "{0} False"

    def test_missing_file_exit_two(self, capsys):
        assert cli_main(["run", "/definitely/not/here.duoc"]) == 2
        capsys.readouterr()

    def test_check_validates_without_running(self, tmp_path):
        path = self.write(
            tmp_path,
            "system S = composite(d=2, bits=1, antibits=1)\n"
            "state E = entpair(p=1.5) on S\n",  # would fail at runtime
        )
        assert cli_main(["check", path]) == 0

    def test_check_rejects_bad_syntax(self, tmp_path):
        path = self.write(tmp_path, "run born {\n")
        assert cli_main(["check", path]) == 2

    def test_out_flag_writes_json(self, tmp_path):
        path = self.write(
            tmp_path,
            "system S = composite(d=2, bits=1, antibits=1)\n"
            "run span { system=S } as T\n",
        )
        out = tmp_path / "r.json"
        assert cli_main(["run", path, "--out", str(out), "--format", "json"]) == 0
        assert parse_result_json(out.read_text()).value("T", "state_span") == 8

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_demo_exit_zero(self, name, capsys):
        assert cli_main(["demo", name]) == 0
        capsys.readouterr()

    def test_unknown_demo_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli_main(["demo", "nonexistent"])
        assert e.value.code == 2
        capsys.readouterr()


class TestRunBounds:
    finite = st.floats(allow_nan=False, allow_infinity=False)

    @settings(max_examples=150, deadline=None)
    @given(p=st.one_of(st.floats(0, 1), finite), grid=st.one_of(st.floats(0, 0.2), finite))
    @example(p=0.5, grid=1e-7)
    def test_witness_is_exact_minimum_or_domain_error(self, p, grid):
        text = f"run witness {{ p={p!r}, grid={grid!r} }} as W\n"
        start = time.process_time()
        try:
            table = run_script(parse_script(text))
        except DuocError:
            assert not (0 < p < 1 and 0 < grid <= 0.1), text
            return
        assert time.process_time() - start < 0.5
        assert abs(table.value("W", "min_p_no") - min(p, 1 - p)) <= 1e-9

    # the heaviest admitted inputs at dimensions 16, 64 and 1024, at or just below
    # trials x dim^2 = 2^22
    @pytest.mark.parametrize("args", ["trials=10000, d=2, bits=2, antibits=2",
                                      "trials=1024, d=2, bits=3, antibits=3",
                                      "trials=4, d=4, bits=3, antibits=2"])
    def test_conditional_work_bound_admits_only_quick_runs(self, args):
        start = time.process_time()
        table = run_script(parse_script(f"run conditional {{ {args} }} as C\n"))
        assert time.process_time() - start < 5.0
        assert table.value("C", "failures") == 0

    # an admitted input that leaves five factors of each kind unmeasured
    def test_conditional_with_large_sides_answers_quickly(self):
        start = time.process_time()
        table = run_script(parse_script(
            "run conditional { trials=1, d=2, bits=6, antibits=5, corrupt=1 } as C\n"))
        assert time.process_time() - start < 5.0
        assert table.value("C", "failures") == 1

    # (4,3,3) took 4.2 s and 632 MB for two trials before the work bound
    @pytest.mark.parametrize("args", ["trials=1, d=4, bits=3, antibits=3",
                                      "trials=1025, d=2, bits=3, antibits=3"])
    def test_conditional_work_bound_refuses_before_any_trial(self, args, tmp_path):
        text = f"run conditional {{ {args} }} as C\n"
        start = time.process_time()
        with pytest.raises(ScriptError, match="trials x dim\\^2"):
            run_script(parse_script(text))
        assert time.process_time() - start < 0.5
        path = tmp_path / "s.duoc"
        path.write_text(text)
        assert cli_main(["run", str(path)]) == 2

    # any other value used to run as corrupt=1
    @pytest.mark.parametrize("corrupt", ["7", "-3", "2", "0.5"])
    def test_conditional_corrupt_flag_is_zero_or_one(self, corrupt, tmp_path):
        text = f"run conditional {{ trials=5, corrupt={corrupt} }} as C\n"
        with pytest.raises(ScriptError, match="corrupt"):
            run_script(parse_script(text))
        path = tmp_path / "s.duoc"
        path.write_text(text)
        assert cli_main(["run", str(path)]) == 2

    @pytest.mark.parametrize("corrupt, failures", [("0", 0), ("1", 5)])
    def test_conditional_corrupt_flag_zero_and_one_run(self, corrupt, failures):
        text = f"run conditional {{ trials=5, corrupt={corrupt} }} as C\n"
        table = run_script(parse_script(text))
        assert table.value("C", "failures") == failures

    def test_conditional_trials_capped_before_any_work(self, tmp_path):
        text = "run conditional { trials=1000000000 } as C\n"
        start = time.process_time()
        with pytest.raises(ScriptError, match="10000"):
            run_script(parse_script(text))
        assert time.process_time() - start < 0.5
        path = tmp_path / "s.duoc"
        path.write_text(text)
        assert cli_main(["run", str(path)]) == 2

    # 32 coefficients took 2.8 s of CPU before the bound, and 64 would hold 2 GB of effects
    def test_activation_refused_above_the_bound_before_any_setup(self, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("activation_setup called")

        monkeypatch.setattr(interpreter, "activation_setup", fail)
        text = f"run activation {{ coeffs=[{', '.join(['0.2'] * 25)}] }} as A\n"
        start = time.process_time()
        with pytest.raises(ScriptError, match="above 24 coefficients, got 25"):
            run_script(parse_script(text))
        assert time.process_time() - start < 0.5
        path = tmp_path / "s.duoc"
        path.write_text(text)
        assert cli_main(["run", str(path)]) == 2

    def test_activation_at_the_bound_runs(self):
        coeffs = ", ".join(["0.6", "0.8"] + ["0"] * 22)  # F_simulated = F_closed on two terms
        start = time.process_time()
        table = run_script(parse_script(f"run activation {{ coeffs=[{coeffs}], r=5 }} as A\n"))
        assert time.process_time() - start < 5.0
        assert table.value("A", "F_simulated") == pytest.approx(table.value("A", "F_closed"))
