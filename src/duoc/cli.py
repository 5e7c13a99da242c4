"""Command-line interface.

``duoc run <script>`` executes a script file, ``duoc check <script>``
parses it without running, ``duoc demo <name>`` runs a built-in
demonstration.  Exit codes: 0 success, 1 assertion failure, 2 parse or
domain error.
"""

from __future__ import annotations

import argparse
import sys

from .dsl.demos import DEMOS
from .dsl.emit import emit_results, render_csv
from .dsl.interpreter import RunConfig, run_script
from .dsl.parser import parse_script
from .errors import AssertionFailure, DuocError, ParseError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duoc",
        description="dit / anti-dit composite calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a script file")
    run.add_argument("script", help="path to the script")
    _add_run_options(run)

    check = sub.add_parser("check", help="parse a script without running it")
    check.add_argument("script", help="path to the script")

    demo = sub.add_parser("demo", help="run a built-in demo script")
    demo.add_argument("name", choices=sorted(DEMOS), help="demo name")
    _add_run_options(demo)

    return parser


def _add_run_options(sub: argparse.ArgumentParser):
    sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    sub.add_argument("--tol", type=float, default=None,
                     help="default assert tolerance, finite and >= 0 (default: DUOC_TOL or 1e-9)")
    sub.add_argument("--out", default=None, help="also write the result table here")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="format for --out (default csv)")


def _execute(text: str, name: str, args) -> int:
    script = parse_script(text)
    table = run_script(script, RunConfig(seed=args.seed, tolerance=args.tol, script_name=name))
    sys.stdout.write(render_csv(table))
    if args.out:
        emit_results(table, args.format, args.out)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            with open(args.script, "r", encoding="utf-8") as fh:
                text = fh.read()
            script = parse_script(text)
            print(f"ok: {len(script.statements)} statements")
            return 0
        if args.command == "run":
            with open(args.script, "r", encoding="utf-8") as fh:
                text = fh.read()
            return _execute(text, args.script, args)
        if args.command == "demo":
            return _execute(DEMOS[args.name], f"demo:{args.name}", args)
    except AssertionFailure as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DuocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
