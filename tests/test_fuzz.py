"""Random scripts either run or raise a ``DuocError``, quickly and without numpy warnings.

A script declares a transform, then a system, states (some of them the
transform applied to another state), measurements, runs and asserts
over a few names.  Every argument is drawn from values in its valid range
and, about one time in twelve, from values outside it (negative,
fractional, huge, missing), so that scripts often get past their first
statements while every statement still meets bad input.  Composites have at most two factors of
each kind, so a product of two states stays at dimension 2187 or below
(0.6 s, 0.4 GB); a dense state at the cap's top rung, dimension 4096,
costs 2.4 s and 1.2 GB on its own (ROADMAP item 4, the memory-based cap).
``run conditional`` draws few trials, so that every valid script
finishes well inside the time budget.
"""

import time
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from duoc.dsl import parse_script, run_script
from duoc.errors import DuocError

BUDGET_S = 2.0


def _val(good, bad):
    """One of ``good``, or one of ``bad`` about one time in twelve."""
    return st.integers(0, 11).flatmap(lambda i: st.sampled_from(bad if i == 11 else good))


def _list(elements, max_size=5):
    return st.lists(elements, max_size=max_size).map(lambda xs: "[" + ", ".join(xs) + "]")


def _args(**fields):
    """``a=x, b=y`` over the given fields, each drawn from its strategy; sometimes one is
    missing."""
    keys = sorted(fields)
    return _val([keys], [[k for k in keys if k != gone] for gone in keys]).flatmap(
        lambda chosen: st.tuples(*[fields[k].map(lambda v, k=k: f"{k}={v}") for k in chosen])
    ).map(", ".join)


def _name(prefix):
    """A name of the kind: the first is always declared, the second only sometimes."""
    return _val([f"{prefix}0"], [f"{prefix}1"])


NUMBER = _val(["0.5", "0.3", "0.8", "pi/4"],
                ["0", "1", "-1", "1.5", "1e-12", "1e9", "1e200", "1e-200"])
DIGIT = _val(["0", "1"], ["2", "-1", "1.5"])
FACTORS = _val(["1", "2", "0"], ["-1", "1.5"])
DIM = _val(["2", "3"], ["1", "-1", "2.5", "5000"])
UNIT = _val(["[0.6, 0.8]", "[1, 0]", "[0.6, 0, 0.8]", "[0.5, 0.5, 0.5, 0.5]"],
            ["[]", "[1, 1]", "[-1, 0]"])
WEIGHTS = st.one_of(_val(["[0.5, 0.5]", "[0.25, 0.25, 0.25, 0.25]", "[1, 0, 0, 0]"],
                         ["[0.5, 0.6]", "[-0.5, 1.5]"]), _list(NUMBER, 9))

# channel tables over d=2: 2 x 2, 2 x 1 and 1 x 2 are valid; ragged, empty and non-stochastic
ROWS = _val(["[[0.9, 0.2], [0.1, 0.8]]", "[[1, 0], [0, 1]]", "[[0.5], [0.5]]", "[[1, 1]]"],
            ["[[1, 0], [0]]", "[[]]", "[]", "[[1, 0.5], [0, 0.6]]", "[[-1, 0], [2, 1]]"])
CHANNEL_D = _val(["2"], ["1", "0", "-1", "2.5", "3"])

_system_args = st.builds("composite(d={}, bits={}, antibits={})".format, DIM, FACTORS, FACTORS)

_transform = st.one_of(
    _args(shifts=_list(DIGIT, 3), phases=_list(DIGIT, 3)).map("reversible({})".format),
    _args(rows=ROWS, d=CHANNEL_D).map("channel({})".format),
)

_state_ctor = st.one_of(
    _args(p=NUMBER, parity=DIGIT).map("entpair({})".format),
    _args(coeffs=st.one_of(UNIT, _list(NUMBER)), parity=DIGIT).map("entstate({})".format),
    _args(digits=_list(DIGIT, 7)).map("basis({})".format),
    _args(weights=WEIGHTS).map("classical({})".format),
    _args(weights=WEIGHTS).map("separable({})".format),
    _args(of=_name("A"), parity=_list(DIGIT, 3), tail=_list(DIGIT, 3)).map("purify({})".format),
)
_state_on = st.builds("{} on {}".format, _state_ctor, _name("S"))
_apply = _args(state=_name("A"), transform=_name("T")).map("apply({})".format)
_state = st.one_of(_state_on, st.builds("product(A0, {})".format, _name("A")),
                   st.builds("{} on {}".format, _apply, _name("S")))

_measure = st.builds(
    "{} on {}".format,
    st.one_of(st.just("computational()"), st.just("parity()"),
              _args(p=NUMBER, parity=DIGIT).map("witness({})".format)),
    _name("S"))

_run_args = {
    "born": _args(state=_name("A"), measure=_name("M"), marginal=_list(DIGIT, 3)),
    "chsh": _args(**{k: NUMBER for k in ("a0", "a1", "b0", "b1")}),
    "activation": _args(coeffs=st.one_of(UNIT, _list(NUMBER, 7)), r=DIGIT),
    "witness": _args(p=NUMBER, grid=_val(["0.01", "0.1"], ["0", "0.5", "-1", "1e-9"])),
    "conditional": _args(trials=_val(["1", "3"], ["-1", "0", "10001", "1e9"]), d=DIM,
                         bits=FACTORS, antibits=FACTORS, corrupt=DIGIT),
    "span": st.one_of(_args(system=_name("S")), _args(d=DIM, bits=FACTORS, antibits=FACTORS)),
}
_run = st.sampled_from(sorted(_run_args)).flatmap(
    lambda kind: _run_args[kind].map(f"run {kind} {{{{ {{}} }}}}".format))

_assert = st.builds(
    "assert {}.{} {} {}{}".format, _name("R"),
    st.sampled_from(["p0", "p1", "F", "F_simulated", "min_p_no", "failures", "state_span", "x"]),
    st.sampled_from(["==", "!=", "<=", ">=", "<", ">"]), NUMBER,
    st.sampled_from(["", " tol 0", " tol 1e-3", " tol 1e9"]))


def _declare(template, first, rest, max_size):
    """One statement from ``first``, then up to ``max_size - 1`` from ``rest``; the i-th is
    ``template.format(i, body)``."""
    return st.tuples(first, st.lists(rest, max_size=max_size - 1)).map(
        lambda items: [template.format(i, body) for i, body in enumerate([items[0], *items[1]])])


# declared in order, the first of each kind always, so that most references resolve; the
# transform needs no system, so it comes first, where a failing system cannot hide its input
_script = st.tuples(
    _declare("transform T{} = {}", _transform, _transform, 1),
    _declare("system S{} = {}", _system_args, _system_args, 2),
    _declare("state A{} = {}", _state_on, _state, 3),
    _declare("measure M{} = {}", _measure, _measure, 2),
    _declare("{1} as R{0}", _run, _run, 3),
    st.lists(_assert, max_size=2),
).map(lambda blocks: "".join(line + "\n" for block in blocks for line in block))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_script)
def test_random_script_runs_or_raises_duoc_error(text):
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            run_script(parse_script(text))
        except DuocError:
            pass
    assert time.perf_counter() - start < BUDGET_S, text
