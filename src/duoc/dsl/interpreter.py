"""Execute parsed scripts against the engine modules.

Each script runs against a fresh environment: systems, states,
measurements and transforms are bound by name, ``run`` blocks append
rows to the result table, ``assert`` statements compare a stored metric
against a literal, and an ``emit`` statement writes the table so far.
Runs are deterministic for a fixed seed: a single PCG64 generator is
created up front and consumed in statement order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from .. import __version__
from ..effects import (
    Effect,
    Povm,
    born_probabilities,
    witness_povm,
    worst_case_no_probability,
)
from ..dynamics import (
    ClassicalChannel,
    ReversibleSpec,
    _conjugate_monomial,
    _reversible_index_map,
    classical_channel_map,
)
from ..errors import AssertionFailure, DomainError, DuocError, ScriptError
from ..linalg import DEFAULT_ATOL, INPUT_ATOL
from ..nonlocality import LocalBasis, activation_F, activation_setup, chsh_value
from ..oracle import brute_force_conditional_check
from ..states import (
    DensityState,
    PureStateSpec,
    SeparableSpec,
    basis_state_spec,
    build_pure_state,
    build_separable,
    marginal_state,
    purify_classical_state,
    span_dimensions,
)
from ..systems import SystemSignature, parity_projector
from .ast import (
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
    SystemDecl,
    TransformDecl,
)
from .emit import ResultTable, emit_results

DEFAULT_TOL = INPUT_ATOL
# bounds the run time of ``run conditional``: every trial samples, contracts and validates
MAX_CONDITIONAL_TRIALS = 10_000
# bounds ``computational()``: dim effects of dim^2 entries each, 33 MB at dimension 128
MAX_COMPUTATIONAL_DIM = 128


@dataclass
class RunConfig:
    seed: int = 0
    tolerance: float = None
    script_name: str = "script"

    def resolved_tolerance(self) -> float:
        """``tolerance``, else ``DUOC_TOL``, else ``DEFAULT_TOL``; it must be finite and >= 0."""
        value, source = self.tolerance, "tolerance"
        if value is None:
            value, source = os.environ.get("DUOC_TOL") or DEFAULT_TOL, "DUOC_TOL"
        try:
            tol = float(value)
        except (TypeError, ValueError):
            tol = math.nan
        if not (math.isfinite(tol) and tol >= 0):
            raise ScriptError(f"{source} must be a finite number >= 0, got {value!r}")
        return tol


@dataclass
class StateBinding:
    sig: SystemSignature
    density: DensityState


def _err(line: int, msg: str) -> ScriptError:
    return ScriptError(msg, line)


class _Args:
    """Keyword-argument reader with one-shot consumption checking."""

    def __init__(self, pairs: tuple, line: int, what: str):
        self.map = {}
        self.line = line
        self.what = what
        for k, v in pairs:
            if k in self.map:
                raise _err(line, f"duplicate argument {k!r} in {what}")
            self.map[k] = v
        self.seen = set()

    def done(self):
        extra = set(self.map) - self.seen
        if extra:
            raise _err(self.line,
                       f"unknown argument(s) {', '.join(sorted(extra))} in {self.what}")

    def _get(self, key, default, node, what):
        """The value of ``key``, which must be a ``node``; ``default`` when absent."""
        self.seen.add(key)
        if key not in self.map:
            if default is ...:
                raise _err(self.line, f"{self.what} needs argument {key!r}")
            return default
        v = self.map[key]
        if not isinstance(v, node):
            raise _err(self.line, f"argument {key!r} of {self.what} must be {what}")
        return v

    def number(self, key, default=...):
        v = self._get(key, default, Num, "a number")
        return v.value if isinstance(v, Num) else v

    def integer(self, key, default=...):
        v = self.number(key, default)
        if v is default and not isinstance(v, float):
            return v
        if not float(v).is_integer():
            raise _err(self.line, f"argument {key!r} of {self.what} must be an integer")
        return int(v)

    def ref(self, key, default=...):
        v = self._get(key, default, Ref, "a name")
        return v.name if isinstance(v, Ref) else v

    def number_list(self, key, default=...):
        v = self._get(key, default, ListV, "a number list")
        if isinstance(v, ListV) and any(not isinstance(x, Num) for x in v.items):
            raise _err(self.line, f"argument {key!r} of {self.what} must be a number list")
        return [x.value for x in v.items] if isinstance(v, ListV) else v

    def nested_number_list(self, key):
        v = self._get(key, ..., ListV, "a list of lists")
        if any(not isinstance(row, ListV) for row in v.items):
            raise _err(self.line, f"argument {key!r} of {self.what} must be a list of lists")
        out = []
        for row in v.items:
            if any(not isinstance(x, Num) for x in row.items):
                raise _err(self.line, f"argument {key!r} of {self.what} must hold numbers")
            out.append([x.value for x in row.items])
        return out


class _Interpreter:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.tol = cfg.resolved_tolerance()
        self.rng = np.random.default_rng(cfg.seed)
        self.env = {}
        self.rows = []
        self.results = {}
        self.run_index = 0

    # -- environment ------------------------------------------------
    def _lookup(self, kind: str, name: str, line: int):
        if name not in self.env:
            raise _err(line, f"{name!r} is not defined")
        tag, value = self.env[name]
        if tag != kind:
            raise _err(line, f"{name!r} is a {tag}, expected a {kind}")
        return value

    def _bind(self, kind: str, name: str, value):
        self.env[name] = (kind, value)

    # -- statements ---------------------------------------------------
    def execute(self, script: Script) -> ResultTable:
        for st in script.statements:
            try:
                self._statement(st)
            except AssertionFailure:
                raise
            except ScriptError:
                raise
            except DuocError as exc:
                raise ScriptError(str(exc), getattr(st, "line", 0)) from exc
        return self.table()

    def table(self) -> ResultTable:
        return ResultTable(
            rows=tuple(self.rows),
            metadata={
                "script": self.cfg.script_name,
                "seed": int(self.cfg.seed),
                "tolerance": float(self.tol),
                "version": __version__,
            },
        )

    def _statement(self, st):
        if isinstance(st, SystemDecl):
            self._system(st)
        elif isinstance(st, StateDecl):
            self._state(st)
        elif isinstance(st, MeasureDecl):
            self._measure(st)
        elif isinstance(st, TransformDecl):
            self._transform(st)
        elif isinstance(st, RunDecl):
            self._run(st)
        elif isinstance(st, AssertDecl):
            self._assert(st)
        elif isinstance(st, EmitDecl):
            emit_results(self.table(), st.fmt, st.path)
        else:
            raise _err(getattr(st, "line", 0), f"cannot execute {type(st).__name__}")

    def _system(self, st: SystemDecl):
        args = _Args(st.args, st.line, "composite(...)")
        d = args.integer("d", 2)
        m = args.integer("bits", 0)
        n = args.integer("antibits", 0)
        args.done()
        self._bind("system", st.name, SystemSignature(d, m, n))

    # -- states ---------------------------------------------------------
    def _state(self, st: StateDecl):
        if st.product is not None:
            left = self._lookup("state", st.product[0], st.line)
            right = self._lookup("state", st.product[1], st.line)
            self._bind("state", st.name, _product_state(left, right))
            return
        sig = self._lookup("system", st.system, st.line)
        binding = self._state_ctor(st.ctor, sig, st.line)
        if binding.sig != sig:
            raise _err(st.line,
                       f"constructor {st.ctor.name!r} produced a state on "
                       f"{binding.sig}, not on the declared system {sig}")
        self._bind("state", st.name, binding)

    def _state_ctor(self, ctor: Ctor, sig: SystemSignature, line: int) -> StateBinding:
        args = _Args(ctor.args, line, f"{ctor.name}(...)")
        if ctor.name == "entpair":
            p = args.number("p")
            parity = args.integer("parity", 0)
            args.done()
            if not 0 < p < 1:
                raise _err(line, f"entpair weight p must lie in (0, 1), got {p}")
            if (sig.m, sig.n) != (1, 1):
                raise _err(line, "entpair needs a (1, 1) composite")
            return _pure_binding(PureStateSpec(
                sig, {(0,): math.sqrt(p), (1,): math.sqrt(1 - p)}, parity=(parity,)))
        if ctor.name == "entstate":
            coeffs = args.number_list("coeffs")
            parity = args.integer("parity", 0)
            args.done()
            if (sig.m, sig.n) != (1, 1):
                raise _err(line, "entstate needs a (1, 1) composite")
            if len(coeffs) != sig.d:
                raise _err(line, f"entstate needs {sig.d} coefficients, got {len(coeffs)}")
            return _pure_binding(PureStateSpec(
                sig, {(i,): c for i, c in enumerate(coeffs)}, parity=(parity,)))
        if ctor.name == "basis":
            digits = [int(x) for x in args.number_list("digits")]
            args.done()
            return _pure_binding(basis_state_spec(sig, tuple(digits)))
        if ctor.name == "classical":
            weights = args.number_list("weights")
            args.done()
            if sig.m and sig.n:
                raise _err(line, "classical(...) needs a single-kind composite")
            if len(weights) != sig.dim:
                raise _err(line, f"classical needs {sig.dim} weights, got {len(weights)}")
            w = np.array(weights, dtype=float)
            # the state's trace check decides at DEFAULT_ATOL, so the weights are held to it
            if np.min(w) < 0 or abs(float(np.sum(w)) - 1.0) > DEFAULT_ATOL:
                raise _err(line, "classical weights must be a probability vector")
            return StateBinding(sig, DensityState(sig, np.diag(w).astype(complex)))
        if ctor.name == "separable":
            weights = args.number_list("weights")
            args.done()
            if (sig.m, sig.n) != (1, 1):
                raise _err(line, "separable(...) needs a (1, 1) composite")
            if len(weights) != sig.d * sig.d:
                raise _err(line, f"separable needs {sig.d * sig.d} weights")
            gamma = {}
            for i in range(sig.d):
                for j in range(sig.d):
                    gamma[(i, j)] = float(weights[i * sig.d + j])
            rho = build_separable(SeparableSpec(gamma=gamma), sig)
            return StateBinding(sig, rho)
        if ctor.name == "purify":
            of = args.ref("of")
            parity = args.number_list("parity", None)
            tail = args.number_list("tail", None)
            args.done()
            inner = self._lookup("state", of, line)
            spec = purify_classical_state(
                inner.density, sig.n,
                parity=None if parity is None else tuple(int(x) for x in parity),
                tail=None if tail is None else tuple(int(x) for x in tail))
            if spec.sig != sig:
                raise _err(line, f"purification lives on {spec.sig}, not {sig}")
            return _pure_binding(spec)
        if ctor.name == "apply":
            state_name = args.ref("state")
            transform_name = args.ref("transform")
            args.done()
            inner = self._lookup("state", state_name, line)
            kind, spec = self._lookup("transform", transform_name, line)
            if kind == "reversible":
                src, ph = _reversible_index_map(spec, inner.sig)
                return StateBinding(inner.sig, _conjugate_monomial(src, ph, inner.density))
            out = classical_channel_map(spec, inner.density)
            return StateBinding(out.sig, out)
        raise _err(line, f"unknown state constructor {ctor.name!r}")

    # -- measurements ----------------------------------------------------
    def _measure(self, st: MeasureDecl):
        sig = self._lookup("system", st.system, st.line)
        args = _Args(st.ctor.args, st.line, f"{st.ctor.name}(...)")
        if st.ctor.name == "computational":
            args.done()
            if sig.dim > MAX_COMPUTATIONAL_DIM:
                raise _err(st.line, f"computational() holds one dense effect per basis state; "
                                    f"refused above dimension {MAX_COMPUTATIONAL_DIM}, "
                                    f"got {sig.dim}")
            effects = []
            for idx, digits in enumerate(product(range(sig.d), repeat=sig.num_factors)):
                spec = basis_state_spec(sig, digits)
                op = np.zeros((sig.dim, sig.dim), dtype=complex)
                op[idx, idx] = 1.0
                effects.append(Effect(sig, op, certificate=[(1.0, spec)]))
            povm = Povm(effects)
        elif st.ctor.name == "witness":
            p = args.number("p")
            parity = args.integer("parity", 0)
            args.done()
            povm = witness_povm(p, parity=parity)
            if povm.sig != sig:
                raise _err(st.line, f"witness measurement lives on {povm.sig}, not {sig}")
        elif st.ctor.name == "parity":
            args.done()
            if (sig.m, sig.n) != (1, 1):
                raise _err(st.line, "parity measurement needs a (1, 1) composite")
            effects = []
            for k in range(sig.d):
                cert = [(1.0, basis_state_spec(sig, (i, (i + k) % sig.d)))
                        for i in range(sig.d)]
                effects.append(Effect(sig, parity_projector(sig.d, k), certificate=cert))
            povm = Povm(effects)
        else:
            raise _err(st.line, f"unknown measurement constructor {st.ctor.name!r}")
        self._bind("measure", st.name, povm)

    def _transform(self, st: TransformDecl):
        args = _Args(st.ctor.args, st.line, f"{st.ctor.name}(...)")
        if st.ctor.name == "reversible":
            shifts = args.number_list("shifts", None)
            phases = args.number_list("phases", None)
            spec = ReversibleSpec(
                x_shifts=() if shifts is None else tuple(int(x) for x in shifts),
                z_phases=() if phases is None else tuple(int(x) for x in phases))
            args.done()
            self._bind("transform", st.name, ("reversible", spec))
            return
        if st.ctor.name == "channel":
            rows = args.nested_number_list("rows")
            d = args.integer("d", 2)
            args.done()
            table = np.array(rows, dtype=float)
            m_out = round(math.log(table.shape[0], d))
            m_in = round(math.log(table.shape[1], d))
            ch = ClassicalChannel(table, d, m_in, m_out)
            self._bind("transform", st.name, ("channel", ch))
            return
        raise _err(st.line, f"unknown transform constructor {st.ctor.name!r}")

    # -- run blocks --------------------------------------------------------
    def _run(self, st: RunDecl):
        self.run_index += 1
        label = st.result if st.result is not None else f"run{self.run_index}"
        handler = getattr(self, f"_run_{st.kind}")
        metrics = handler(_Args(st.args, st.line, f"run {st.kind}"), st.line)
        for metric, value in metrics:
            self.rows.append((label, st.kind, metric, value))
        if st.result is not None:
            self._bind("result", st.result, dict(metrics))

    def _run_born(self, args: _Args, line: int):
        state = self._lookup("state", args.ref("state"), line)
        povm = self._lookup("measure", args.ref("measure"), line)
        marginal = args.number_list("marginal", None)
        args.done()
        rho = state.density
        if marginal is not None:
            rho = marginal_state(rho, tuple(int(x) for x in marginal))
        probs = born_probabilities(povm, rho)
        return [(f"p{i}", float(x)) for i, x in enumerate(probs)]

    def _run_chsh(self, args: _Args, line: int):
        angles = [args.number("a0", 0.0), args.number("a1", math.pi / 4),
                  args.number("b0", math.pi / 8), args.number("b1", -math.pi / 8)]
        args.done()
        alice = (LocalBasis.rotation(angles[0]), LocalBasis.rotation(angles[1]))
        bob = (LocalBasis.rotation(angles[2]), LocalBasis.rotation(angles[3]))
        res = chsh_value(alice, bob)
        out = [(f"A{x}B{y}", float(res.expectations[x, y]))
               for x in range(2) for y in range(2)]
        out.append(("F", float(res.f_value)))
        return out

    def _run_activation(self, args: _Args, line: int):
        coeffs = args.number_list("coeffs")
        r = args.integer("r", 0)
        args.done()
        setup = activation_setup(np.array(coeffs, dtype=float), r)
        f_sim, f_closed = activation_F(setup)
        return [("alpha_prime", setup.alpha_prime),
                ("beta_prime", setup.beta_prime),
                ("theta", setup.theta),
                ("F_simulated", float(f_sim)),
                ("F_closed", float(f_closed))]

    def _run_witness(self, args: _Args, line: int):
        p = args.number("p")
        grid = args.number("grid", 0.01)
        args.done()
        min_no, _ = worst_case_no_probability(p, grid_step=grid)
        povm = witness_povm(p)
        sig = povm.sig
        spec = PureStateSpec(sig, {(0,): math.sqrt(p), (1,): math.sqrt(1 - p)})
        rho = DensityState.from_vector(sig, build_pure_state(spec))
        p_yes, p_no = born_probabilities(povm, rho)
        return [("min_p_no", float(min_no)),
                ("bound", float(min(p, 1 - p))),
                ("p_yes_entangled", float(p_yes)),
                ("p_no_entangled", float(p_no))]

    def _run_conditional(self, args: _Args, line: int):
        trials = args.integer("trials")
        d = args.integer("d", 2)
        m = args.integer("bits", 1)
        n = args.integer("antibits", 1)
        corrupt = args.integer("corrupt", 0)
        args.done()
        if not 1 <= trials <= MAX_CONDITIONAL_TRIALS:
            raise _err(line, f"conditional needs trials in 1..{MAX_CONDITIONAL_TRIALS}, "
                             f"got {trials}")
        sig = SystemSignature(d, m, n)
        failures = brute_force_conditional_check(trials, sig, self.rng,
                                                 corrupt=bool(corrupt))
        return [("trials", int(trials)), ("failures", int(failures))]

    def _run_span(self, args: _Args, line: int):
        name = args.ref("system", None)
        if name is not None:
            args.done()
            sig = self._lookup("system", name, line)
        else:
            d = args.integer("d", 2)
            m = args.integer("bits", 1)
            n = args.integer("antibits", 1)
            args.done()
            sig = SystemSignature(d, m, n)
        prod, full = span_dimensions(sig)
        return [("product_span", int(prod)), ("state_span", int(full))]

    # -- asserts ----------------------------------------------------------
    def _assert(self, st: AssertDecl):
        if len(st.target) != 2:
            raise _err(st.line, "assert targets look like RESULT.metric")
        name, metric = st.target
        result = self._lookup("result", name, st.line)
        if metric not in result:
            raise _err(st.line,
                       f"result {name!r} has no metric {metric!r} "
                       f"(has: {', '.join(result)})")
        actual = float(result[metric])
        expected = float(st.value)
        tol = self.tol if st.tol is None else float(st.tol)
        ok = {
            "==": abs(actual - expected) <= tol,
            "!=": abs(actual - expected) > tol,
            "<=": actual <= expected + tol,
            ">=": actual >= expected - tol,
            "<": actual < expected,
            ">": actual > expected,
        }[st.op]
        if not ok:
            raise AssertionFailure(
                f"line {st.line}: assert {name}.{metric} {st.op} {expected!r} "
                f"failed (actual {actual!r}, tol {tol!r})")


def _pure_binding(spec: PureStateSpec) -> StateBinding:
    """Bind the density matrix of the valid pure state built from ``spec``."""
    return StateBinding(spec.sig, DensityState.from_vector(spec.sig, build_pure_state(spec)))


def _product_state(left: StateBinding, right: StateBinding) -> StateBinding:
    """Tensor two states and reorder factors into canonical dits-first layout."""
    if left.sig.d != right.sig.d:
        raise DomainError("product states need a common local dimension")
    sig = SystemSignature(left.sig.d, left.sig.m + right.sig.m, left.sig.n + right.sig.n)
    # output axis q holds input factor order[q]: left dits, right dits, left antis, right antis
    kl, ml, mr = left.sig.num_factors, left.sig.m, right.sig.m
    order = [*range(ml), *range(kl, kl + mr), *range(ml, kl), *range(kl + mr, sig.num_factors)]
    mat = np.kron(left.density.matrix, right.density.matrix).reshape(sig.dims * 2)
    # the reordered copy replaces the kron product before the checks allocate their own dim^2
    mat = mat.transpose(order + [sig.num_factors + t for t in order]).reshape(sig.dim, sig.dim)
    return StateBinding(sig, DensityState(sig, mat))


def run_script(script: Script, cfg: RunConfig = None) -> ResultTable:
    """Execute a parsed script and return its result table."""
    return _Interpreter(cfg or RunConfig()).execute(script)
