import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings

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
from duoc.dsl.ast import ListV, Num
from duoc.errors import AssertionFailure, DomainError, DuocError, ParseError, ScriptError

CORPUS = sorted((pathlib.Path(__file__).parent / "corpus").glob("*.duoc"))


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

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as e:
            parse("system $ = composite(d=2)\n")
        assert e.value.line == 1 and e.value.col == 8

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as e:
            parse("system S = composite(d=2)\nstate B =\n")
        assert e.value.line == 2

    def test_string_escapes(self):
        s = parse('emit csv "a \\"b\\" c.csv"\n')
        assert s.statements[0].path == 'a "b" c.csv'


class TestStaticChecks:
    def test_used_before_definition(self):
        with pytest.raises(ParseError, match="before definition"):
            parse("run born { state=A } as R\n")

    def test_ref_inside_args_checked(self):
        with pytest.raises(ParseError, match="before definition"):
            parse(
                "system S = composite(d=2, bits=1, antibits=1)\n"
                "measure M = witness(p=0.3) on S\n"
                "run born { state=missing, measure=M } as R\n"
            )

    def test_single_emit_enforced(self):
        with pytest.raises(ParseError, match="one emit"):
            parse('emit csv "a.csv"\nemit json "b.json"\n')

    def test_unknown_run_kind(self):
        with pytest.raises(ParseError):
            parse("run teleport { } as R\n")

    def test_assert_requires_known_result(self):
        with pytest.raises(ParseError, match="before definition"):
            parse("assert R.f == 2\n")


class TestRoundTrip:
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_corpus_round_trips(self, path):
        text = path.read_text()
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
        np.testing.assert_allclose(after.vector, u @ before.vector, rtol=0, atol=1e-15)
        assert np.array_equal(after.density.matrix, apply_reversible(u, before.density).matrix)

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
    ])
    def test_out_of_range_inputs_exit_two_without_warnings(self, tmp_path, capsys, text, stage):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(stage) as exc:
                run_script(parse_script(text))
            assert isinstance(exc.value, DuocError)
            assert cli_main(["run", self.write(tmp_path, text)]) == 2
        assert "Warning" not in capsys.readouterr().err

    def test_import_does_not_load_scipy(self):
        code = "import sys, duoc.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert out.stdout.strip() == "False"

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
        start = time.perf_counter()
        try:
            table = run_script(parse_script(text))
        except DuocError:
            assert not (0 < p < 1 and 0 < grid <= 0.1), text
            return
        assert time.perf_counter() - start < 0.5
        assert abs(table.value("W", "min_p_no") - min(p, 1 - p)) <= 1e-9

    def test_conditional_trials_capped_before_any_work(self, tmp_path):
        text = "run conditional { trials=1000000000 } as C\n"
        start = time.perf_counter()
        with pytest.raises(ScriptError, match="10000"):
            run_script(parse_script(text))
        assert time.perf_counter() - start < 0.5
        path = tmp_path / "s.duoc"
        path.write_text(text)
        assert cli_main(["run", str(path)]) == 2
