"""The three seeded workloads: their inputs, ops and per-op correctness checks.

Every workload builds all of its inputs in ``__init__`` from the seed,
before any timing.  A workload is a fixed list of ops, and every round
runs each of them once, so every op is timed once per round and
per-round figures do not depend on how many rounds fit in a run.  An op
is a zero-argument call into the public API plus a check of its result.
Checks compare against references computed here or in ``duoc.oracle``,
never against the engine path under test.

Ops look library functions up through their module at call time, so a
tracer installed after set-up still sees every call.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

import duoc.dsl.emit as emit_mod
import duoc.dsl.interpreter as interp_mod
import duoc.dsl.parser as parser_mod
import duoc.dynamics as dyn
import duoc.effects as eff
import duoc.nonlocality as nl
import duoc.oracle as oracle
import duoc.states as st
from duoc.dsl.ast import EmitDecl
from duoc.dsl.demos import DEMOS
from duoc.systems import FactorPermutation, SystemSignature

OK = "ok"
UNDECIDED = "undecided"

# corpus round orders drawn up front; later rounds reuse them cyclically
SCHEDULE_ROUNDS = 64
REFERENCE = Path(__file__).resolve().parent / "reference" / "corpus.json"


class CheckError(Exception):
    """An op's output is wrong."""


class Op:
    __slots__ = ("kind", "tag", "call", "check", "index")

    def __init__(self, kind, tag, call, check):
        self.kind = kind
        self.tag = tag
        self.call = call
        self.check = check
        self.index = None


class Workload:
    """A fixed list of ops, all of which round ``k`` runs (``ladder`` some more than once)."""

    def __init__(self, ops):
        self.round_ops = ops
        for i, op in enumerate(ops):
            op.index = i

    def ops(self, k):
        return self.round_ops


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def _close(a, b, tol, what):
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    _require(err <= tol, f"{what}: deviation {err:.3g} > {tol:g}")


def is_undecided(report):
    """A validator verdict that the validator itself marks as not decisive."""
    return "NON-EXHAUSTIVE" in report.flags or "UNDECIDED" in str(report.witness).upper()


def _check_validator(report, what):
    """Inputs of validator ops are valid by construction: a decisive 'invalid' is wrong."""
    if report.valid:
        return OK
    _require(is_undecided(report), f"{what}: valid input rejected (residual {report.residual})")
    return UNDECIDED


def _check_density(rho, sig, what):
    _require(rho.sig == sig, f"{what}: signature {rho.sig} != {sig}")
    mat = rho.matrix
    _require(abs(np.trace(mat) - 1.0) <= 1e-10, f"{what}: trace {np.trace(mat)}")
    _close(mat, mat.conj().T, 1e-12, f"{what}: hermiticity")


# -- corpus -------------------------------------------------------------------


def corpus_scripts(root: Path):
    """(name, text) of every script in ``tests/corpus`` and every built-in demo."""
    files = sorted((root / "tests" / "corpus").glob("*.duoc"))
    scripts = [(p.name, p.read_text(encoding="utf-8")) for p in files]
    return scripts + [(f"demo:{name}", text) for name, text in DEMOS.items()]


def run_corpus_script(name, text):
    """What ``duoc run`` does with a script at its default seed 0."""
    script = parser_mod.parse_script(text)
    table = interp_mod.run_script(script, interp_mod.RunConfig(seed=0, script_name=name))
    return script, table, emit_mod.render_csv(table)


class Corpus(Workload):
    """The 30 scripts of ``tests/corpus`` plus the built-in demos, as ``duoc run`` runs them.

    One op parses, runs and renders one script at run seed 0, so an op's
    work does not depend on the workload seed; the seed shuffles the
    order of each round.
    """

    def __init__(self, root: Path, seed: int, tiny: bool):
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        scripts = corpus_scripts(root)
        if tiny:
            scripts = [s for s in scripts if s[0] not in ("demo:witness", "demo:consistency")]
        missing = [name for name, _ in scripts if name not in reference]
        if missing:
            raise RuntimeError(f"no reference table for {', '.join(missing)}")
        self.reference = {name: _parse_csv(reference[name]) for name, _ in scripts}
        super().__init__([self._op(name, text) for name, text in scripts])
        rng = np.random.default_rng(seed)
        self.orders = [rng.permutation(len(scripts)) for _ in range(SCHEDULE_ROUNDS)]

    def ops(self, k):
        return [self.round_ops[i] for i in self.orders[k % len(self.orders)]]

    def _op(self, name, text):
        def check(result):
            script, table, rendered = result
            _compare_csv(_parse_csv(rendered), self.reference[name], name)
            for stmt in script.statements:
                if isinstance(stmt, EmitDecl):
                    _check_emitted(stmt, table, rendered, name)
            return OK

        return Op("script", name, lambda: run_corpus_script(name, text), check)


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def _compare_csv(rows, ref, name):
    _require(len(rows) == len(ref), f"{name}: {len(rows)} CSV rows, reference has {len(ref)}")
    for row, want in zip(rows, ref):
        _require(row[:-1] == want[:-1], f"{name}: row {row} != reference {want}")
        try:
            got, exp = float(row[-1]), float(want[-1])
        except ValueError:
            _require(row[-1] == want[-1], f"{name}: value {row[-1]!r} != {want[-1]!r}")
            continue
        _require(abs(got - exp) <= 1e-9 * max(1.0, abs(exp)),
                 f"{name}: {row[:-1]} = {got!r}, reference {exp!r}")


def _check_emitted(stmt, table, rendered, name):
    """The file an ``emit`` wrote holds the table as it stood at that statement."""
    path = Path(stmt.path)
    _require(path.is_file(), f"{name}: emit did not write {stmt.path}")
    text = path.read_text(encoding="utf-8")
    path.unlink()
    if stmt.fmt == "csv":
        _require(text.endswith("\n") and rendered.startswith(text),
                 f"{name}: emitted CSV is not a prefix of the result table")
    else:
        rows = json.loads(text)["rows"]
        prefix = emit_mod.ResultTable(rows=table.rows[:len(rows)], metadata=table.metadata)
        _require(text == emit_mod.render_json(prefix), f"{name}: emitted JSON differs")


# -- ladder ---------------------------------------------------------------------

LADDER = ((2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 2, 2), (2, 3, 3), (2, 4, 4), (2, 5, 5))
INPUT_SETS = 2
SINGLE_INPUT_DIM = 1024
# a round runs the ops below SINGLE_INPUT_DIM this many times, so that these
# sub-millisecond ops get as many samples as the dimension-1024 ops allow
SMALL_PASSES = 3
TINY_MAX_DIM = 16


def random_permutation(sig, rng):
    """Random kind-preserving relabeling that moves some factor whenever one can move."""
    def draw(k):
        p = [int(x) for x in rng.permutation(k)]
        return tuple(reversed(p)) if k > 1 and p == sorted(p) else tuple(p)

    return FactorPermutation(draw(sig.m), draw(sig.n))


def random_spec(sig, rng):
    """Random valid pure-state spec with every paired digit string in its support."""
    d, m, n = sig.d, sig.m, sig.n
    p = min(m, n)
    strings = list(itertools.product(range(d), repeat=p))
    amps = rng.normal(size=len(strings)) + 1j * rng.normal(size=len(strings))
    amps /= np.linalg.norm(amps)
    return st.PureStateSpec(
        sig,
        {x: complex(a) for x, a in zip(strings, amps)},
        parity=tuple(int(x) for x in rng.integers(0, d, size=p)),
        tail=tuple(int(x) for x in rng.integers(0, d, size=abs(m - n))),
        perm=random_permutation(sig, rng),
    )


def reference_vector(spec):
    """State vector of a spec, built from the model's definition by direct indexing."""
    sig = spec.sig
    d, m, n = sig.d, sig.m, sig.n
    p = min(m, n)
    dest = list(spec.perm.sigma) + [m + i for i in spec.perm.tau]
    v = np.zeros(d ** (m + n), dtype=complex)
    for x, amp in spec.coeffs.items():
        dits = list(x) + (list(spec.tail) if m > n else [])
        antis = [(x[i] + spec.parity[i]) % d for i in range(p)]
        antis += list(spec.tail) if n > m else []
        digits = dits + antis
        out = [0] * (m + n)
        for t, g in enumerate(digits):
            out[dest[t]] = g
        v[np.ravel_multi_index(out, (d,) * (m + n))] = amp
    return v


def _mixture(specs, weights):
    vecs = [reference_vector(s) for s in specs]
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))


def random_effect(sig, rng, terms=3, certified=True):
    """Positive combination of valid pure projectors scaled below the identity."""
    specs = [random_spec(sig, rng) for _ in range(terms)]
    weights = rng.uniform(0.2, 1.0, size=terms)
    op = _mixture(specs, weights)
    top = float(np.linalg.eigvalsh(op)[-1])
    scale = max(1.0, top * (1 + 1e-12))
    cert = [(float(w / scale), s) for w, s in zip(weights, specs)]
    return eff.Effect(sig, op / scale, certificate=cert if certified else None)


def random_mixed(sig, rng, terms=3):
    """Certified mixture of ``terms`` random valid pure states: (DensityState, certificate)."""
    specs = [random_spec(sig, rng) for _ in range(terms)]
    weights = rng.dirichlet(np.ones(terms))
    cert = [(float(w), s) for w, s in zip(weights, specs)]
    return st.DensityState(sig, _mixture(specs, weights)), cert


def reference_reversible(rspec, sig, vecs):
    """Apply phases, then shifts, then the factor permutation to the columns of ``vecs``."""
    d, nfac = sig.d, sig.num_factors
    batch = vecs.shape[1]
    t = vecs.reshape((d,) * nfac + (batch,))
    omega = np.exp(2j * np.pi / d)
    for ax, j in enumerate(rspec.z_phases):
        shape = [1] * (nfac + 1)
        shape[ax] = d
        t = t * (omega ** ((np.arange(d) + j) % d)).reshape(shape)
    for ax, j in enumerate(rspec.x_shifts):
        t = np.roll(t, j, axis=ax)
    dest = list(rspec.perm.sigma) + [sig.m + i for i in rspec.perm.tau]
    t = np.transpose(t, list(np.argsort(dest)) + [nfac])
    return t.reshape(sig.dim, batch)


def reference_marginal(mat, dims, keep):
    nfac = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[:nfac])
    col = [row[t] if t not in keep else letters[nfac + t].upper() for t in range(nfac)]
    out = [row[t] for t in keep] + [col[t] for t in keep]
    spec = "".join(row) + "".join(col) + "->" + "".join(out)
    kd = int(np.prod([dims[t] for t in keep]))
    return np.einsum(spec, mat.reshape(tuple(dims) * 2)).reshape(kd, kd)


class _Rung:
    """All inputs of one signature of the ladder, with their references."""

    def __init__(self, sig, rng):
        self.sig = sig
        nfac = sig.num_factors
        self.spec1 = random_spec(sig, rng)
        self.v1 = reference_vector(self.spec1)
        self.rho1 = st.DensityState.from_vector(sig, self.v1)
        self.rho3, self.cert3 = random_mixed(sig, rng)
        # subset sizes are fixed per signature so that op costs do not depend on the seed
        self.keep = tuple(sorted(int(x) for x in rng.choice(nfac, size=nfac // 2, replace=False)))
        self.positions = tuple(sorted(int(x) for x in rng.choice(
            nfac, size=min(2, nfac - 1), replace=False)))
        self.effect = random_effect(sig.sub_signature(self.positions), rng)
        self.rspec = dyn.ReversibleSpec(
            perm=random_permutation(sig, rng),
            x_shifts=tuple(int(x) for x in rng.integers(0, sig.d, size=nfac)),
            z_phases=tuple(int(x) for x in rng.integers(0, sig.d, size=nfac)),
        )
        self.u = reference_reversible(self.rspec, sig, np.eye(sig.dim, dtype=complex))
        vecs3 = np.stack([reference_vector(s) for _, s in self.cert3], axis=1)
        w3 = np.array([w for w, _ in self.cert3])
        moved1 = self.u @ self.v1
        moved3 = reference_reversible(self.rspec, sig, vecs3)
        self.moved = {1: np.outer(moved1, moved1.conj()),
                      3: (moved3 * w3) @ moved3.conj().T}
        self.small = sig.m <= 3 and sig.n <= 3
        if self.small:
            self.full_effect = random_effect(sig, rng)
            self.bare_effect = eff.Effect(sig, self.full_effect.op)
        self.transform_seed = int(rng.integers(0, 2**31))


class Ladder(Workload):
    """Engine kernels over composites of dimension 4 to 1024; no DSL.

    Signatures below dimension ``SINGLE_INPUT_DIM`` get ``INPUT_SETS``
    independent input sets, so a round holds over a hundred distinct ops.
    A round runs their ops ``SMALL_PASSES`` times and the dimension-1024
    ops once each, spread evenly among them, so that the reference kernel
    timed before every op samples the machine's speed all through each
    long op's neighbourhood.
    """

    def __init__(self, root: Path, seed: int, tiny: bool):
        rng = np.random.default_rng(seed)
        sigs = [SystemSignature(*s) for s in LADDER]
        if tiny:
            sigs = [s for s in sigs if s.dim <= TINY_MAX_DIM]
        rungs = [_Rung(sig, rng) for sig in sigs
                 for _ in range(1 if sig.dim >= SINGLE_INPUT_DIM else INPUT_SETS)]
        super().__init__([op for rung in rungs for op in self._rung_ops(rung)])
        small = [op for op in self.round_ops if op.tag < SINGLE_INPUT_DIM] * SMALL_PASSES
        large = [op for op in self.round_ops if op.tag >= SINGLE_INPUT_DIM]
        n = max(1, len(large))
        self.schedule = []
        for j in range(n):
            self.schedule += small[j * len(small) // n:(j + 1) * len(small) // n] + large[j:j + 1]

    def ops(self, k):
        return self.schedule

    def _rung_ops(self, r):
        sig, dim = r.sig, r.sig.dim
        ops = []

        def add(kind, call, check):
            ops.append(Op(kind, dim, call, check))

        def check_build(v):
            _close(v, r.v1, 1e-12, "build_pure_state")
            return OK

        add("build_pure_state", lambda: st.build_pure_state(r.spec1), check_build)

        def check_from_vector(rho):
            _check_density(rho, sig, "from_vector")
            _close(rho.matrix, np.outer(r.v1, r.v1.conj()), 1e-12, "from_vector")
            return OK

        add("from_vector", lambda: st.DensityState.from_vector(sig, r.v1), check_from_vector)

        for rank, rho in ((1, r.rho1), (3, r.rho3)):
            def check_marginal(out, rho=rho):
                _check_density(out, sig.sub_signature(r.keep), "marginal_state")
                _close(out.matrix, reference_marginal(rho.matrix, sig.dims, r.keep), 1e-10,
                       "marginal_state")
                return OK

            add(f"marginal_state.rank{rank}",
                lambda rho=rho: st.marginal_state(rho, r.keep), check_marginal)

        def check_conditional(result):
            prob, post = result
            want_prob, want_raw = oracle.oracle_conditional(
                r.rho3.matrix, sig.d, sig.num_factors, r.effect.op, r.positions)
            _require(abs(prob - want_prob) <= 1e-10, f"conditional prob {prob} != {want_prob}")
            if want_prob <= 1e-12:
                _require(post is None, "conditional state on a null branch")
                return OK
            rest = tuple(t for t in range(sig.num_factors) if t not in r.positions)
            _check_density(post, sig.sub_signature(rest), "conditional_state")
            _close(post.matrix * prob, want_raw, 1e-10, "conditional_state")
            return OK

        add("conditional_state",
            lambda: eff.conditional_state(r.rho3, r.effect, r.positions), check_conditional)

        def check_build_rev(u):
            _close(u, r.u, 1e-12, "build_reversible")
            return OK

        add("build_reversible", lambda: dyn.build_reversible(r.rspec, sig), check_build_rev)

        for rank, rho in ((1, r.rho1), (3, r.rho3)):
            def check_apply(out, rank=rank):
                _check_density(out, sig, "apply_reversible")
                _close(out.matrix, r.moved[rank], 1e-10, "apply_reversible")
                return OK

            add(f"apply_reversible.rank{rank}",
                lambda rho=rho: dyn.apply_reversible(r.u, rho), check_apply)

        def must_be_valid(rep):
            _require(rep.valid, f"certified input rejected (residual {rep.residual})")
            return OK

        add("validate_mixed.certified",
            lambda: st.validate_mixed_state(r.rho3, certificate=r.cert3), must_be_valid)
        if r.small:
            add("validate_mixed.rank1", lambda: st.validate_mixed_state(r.rho1),
                lambda rep: _check_validator(rep, "validate_mixed_state"))
            add("validate_mixed.rank3", lambda: st.validate_mixed_state(r.rho3),
                lambda rep: _check_validator(rep, "validate_mixed_state"))
            add("validate_effect.certified", lambda: eff.validate_effect(r.full_effect),
                must_be_valid)
            add("validate_effect.bare", lambda: eff.validate_effect(r.bare_effect),
                lambda rep: _check_validator(rep, "validate_effect"))
        if dim <= TINY_MAX_DIM:
            u = r.u
            add("validate_transformation",
                lambda: dyn.validate_transformation(lambda m: u @ m @ u.conj().T, sig, sig,
                                                    seed=r.transform_seed),
                lambda rep: _check_validator(rep, "validate_transformation"))
        return ops


# -- bell ---------------------------------------------------------------------

ACTIVATION_DIMS = (2, 3, 4, 5, 6)
TINY_ACTIVATION_DIMS = (2, 3)
# random inputs per op class; 4 gives 100 ops per round
VARIANTS = 4
TSIRELSON = 2 * math.sqrt(2)


def _rotation_rows(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]])


class Bell(Workload):
    """CHSH, activation and regrouping calls of ``duoc.nonlocality`` at random settings.

    Per variant: 8 ``chsh_value`` calls, an activation with two-term and
    one with full support for each d, a ``regroup_check`` for each d and
    two ``two_copy_distribution`` calls.
    """

    def __init__(self, root: Path, seed: int, tiny: bool):
        rng = np.random.default_rng(seed)
        dims = TINY_ACTIVATION_DIMS if tiny else ACTIVATION_DIMS
        ops = []
        for _ in range(1 if tiny else VARIANTS):
            ops += [_chsh_op(rng.uniform(-math.pi, math.pi, size=4)) for _ in range(8)]
            for d in dims:
                for two_term in (True, False):
                    alphas = np.zeros(d)
                    support = rng.choice(d, size=2, replace=False) if two_term else np.arange(d)
                    alphas[support] = rng.uniform(0.05, 1.0, size=len(support))
                    alphas /= np.linalg.norm(alphas)
                    ops.append(_activation_op(alphas, int(rng.integers(0, d)), two_term))
                coeffs = rng.normal(size=d) + 1j * rng.normal(size=d)
                coeffs /= np.linalg.norm(coeffs)
                ops.append(_regroup_op(coeffs, int(rng.integers(0, d))))
            ops += [_distribution_op(*rng.uniform(-math.pi, math.pi, size=2)) for _ in range(2)]
        super().__init__(ops)


def _chsh_op(angles):
    a0, a1, b0, b1 = (float(x) for x in angles)

    def call():
        alice = (nl.LocalBasis.rotation(a0), nl.LocalBasis.rotation(a1))
        bob = (nl.LocalBasis.rotation(b0), nl.LocalBasis.rotation(b1))
        return nl.chsh_value(alice, bob)

    def check(res):
        want = np.array([[math.cos(2 * (a - b)) for b in (b0, b1)] for a in (a0, a1)])
        _close(res.expectations, want, 1e-9, "chsh correlators")
        f = want[0, 0] + want[0, 1] + want[1, 0] - want[1, 1]
        _require(abs(res.f_value - f) <= 1e-9, f"chsh F {res.f_value} != {f}")
        return OK

    return Op("chsh_value", None, call, check)


def _activation_op(alphas, r, two_term):
    d = alphas.size

    def call():
        return nl.activation_F(nl.activation_setup(alphas, r))

    def check(res):
        f_sim, f_closed = res
        if two_term:
            _require(abs(f_sim - f_closed) <= 1e-9,
                     f"activation d={d}: simulated {f_sim} != closed form {f_closed}")
        else:
            _require(2 < f_sim <= TSIRELSON + 1e-9,
                     f"activation d={d}: F_simulated {f_sim} outside (2, 2*sqrt(2)]")
        return OK

    return Op("activation.two_term" if two_term else "activation.full", d, call, check)


def _regroup_op(coeffs, r):
    d = coeffs.size
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        psi[i * d + (i + r) % d] = coeffs[i]

    def check(residual):
        _require(residual <= 1e-12, f"regroup residual {residual} at d={d}")
        return OK

    return Op("regroup_check", d, lambda: nl.regroup_check(psi), check)


def _distribution_op(a, b):
    def call():
        return nl.two_copy_distribution(nl.LocalBasis.rotation(a), nl.LocalBasis.rotation(b))

    def check(dist):
        va, vb = _rotation_rows(a), _rotation_rows(b)
        want = np.abs(va @ vb.T) ** 2 / 2
        _close(dist, want, 1e-9, "two_copy_distribution")
        return OK

    return Op("two_copy_distribution", None, call, check)


WORKLOADS = {"corpus": Corpus, "ladder": Ladder, "bell": Bell}
