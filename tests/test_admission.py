"""States and effects the engine derives are admitted once, by construction.

A projector, a product, a reversible conjugation, a marginal, a conditional
state and a sampled mixture of admitted states are Hermitian and PSD by
construction, so none of them decides positivity again (no low-rank
factor, Cholesky or ``eigvalsh``) or runs the Hermitian defect scan.  Each
stored matrix is still byte for byte the one the public ``DensityState``
constructor stores for the same input, on real vectors of mixed sign,
whose products carry zeros of both signs, and on complex ones.  Above
256 x 256 a pure state's product, reversible image, marginal and
conditional are read from its factor (its unit vector as one column):
those rows pin the bytes of the factor formula, and its distance from
the dense path.

Likewise the effects the engine builds (a side's direction effects, the
witness and activation projectors with their complements, the diagonal
effects) skip the public ``Effect`` admission, and each stored operator
is byte for byte what that admission stores for the operator as built.
The POVMs the engine builds sum to the identity by construction and skip
the public ``Povm`` completeness check.
"""

from itertools import product

import numpy as np
import pytest

from duoc import effects, linalg, nonlocality, states
from duoc.dynamics import (
    ConditionalEvolutionSpec, ReversibleSpec, _reversible_index_map, apply_reversible,
    build_reversible, conditional_evolution,
)
from duoc.dsl import RunConfig, parse_script
from duoc.dsl.interpreter import _Interpreter
from duoc.effects import (
    Effect, Povm, classical_povm, conditional_state, random_certified_effect, unit_effect,
    witness_povm,
)
from duoc.errors import DensityMatrixError
from duoc.linalg import contract_effect, partial_trace, projector
from duoc.nonlocality import LocalBasis, activation_setup, chsh_value, side_effect, side_povm
from duoc.states import (
    FACTOR_PATH_DIM, DensityState, PureStateSpec, basis_state_spec, build_pure_state,
    marginal_state, product_order, product_state, random_mixed_state,
)
from duoc.systems import FactorPermutation, SystemSignature

from conftest import parent_chsh

SIGS = [(2, 1, 1), (3, 2, 1), (2, 3, 3), (2, 5, 5)]
KINDS = ["real", "complex"]


@pytest.fixture
def counts(monkeypatch):
    return counters(monkeypatch)


def counters(monkeypatch):
    """Calls of the positivity deciders, of the Hermitian defect scan, wherever imported, of
    the public ``Effect`` admission and of the public ``Povm`` completeness check."""
    counts = dict.fromkeys(
        ["low_rank_psd", "cholesky", "eigvalsh", "hermitian_part", "effect", "povm"], 0)

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(linalg, "low_rank_psd", counting("low_rank_psd", linalg.low_rank_psd))
    monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    for module in (states, effects, linalg):
        monkeypatch.setattr(module, "hermitian_part",
                            counting("hermitian_part", linalg.hermitian_part))
    monkeypatch.setattr(Effect, "__post_init__", counting("effect", Effect.__post_init__))
    monkeypatch.setattr(Povm, "__post_init__", counting("povm", Povm.__post_init__))
    return counts


def vector(kind, dim, rng):
    v = rng.normal(size=dim)
    return v + 1j * rng.normal(size=dim) if kind == "complex" else v


def split(sig):
    """Two signatures whose product is ``sig``: about half the factors of each kind on the left."""
    left = SystemSignature(sig.d, (sig.m + 1) // 2, sig.n // 2)
    return left, SystemSignature(sig.d, sig.m - left.m, sig.n - left.n)


def joint_matrix(left, right):
    """The Kronecker product of two states, reordered to :func:`product_order` in the test."""
    sig = SystemSignature(left.sig.d, left.sig.m + right.sig.m, left.sig.n + right.sig.n)
    order = product_order(left.sig, right.sig)
    mat = np.kron(left.matrix, right.matrix).reshape(sig.dims * 2)
    return sig, mat.transpose(order + [sig.num_factors + t for t in order]).reshape(sig.dim,
                                                                                   sig.dim)


def same_bytes(out, sig, matrix):
    """``out`` is on ``sig`` and stores what ``DensityState(sig, matrix)`` stores."""
    assert out.sig == sig
    assert out.matrix.tobytes() == DensityState(sig, matrix).matrix.tobytes()


def product_vector(left, right):
    """The vector of the product of two pure states: their ``kron``, reordered to
    :func:`product_order`."""
    order = product_order(left.sig, right.sig)
    return linalg.permute_vector_factors(np.kron(left.factor[:, 0], right.factor[:, 0]),
                                         left.sig.dims + right.sig.dims, np.argsort(order))


def same_pure(out, sig, vec, dense):
    """``out`` is the pure state of ``vec`` on ``sig``, its factor the one column ``vec``: its
    matrix is the bytes of ``hermitian_outer(vec)`` and of what ``DensityState`` stores for
    that, and within 1e-12 of the dense path's ``dense``."""
    assert out.factor.shape == (sig.dim, 1) and out.factor.tobytes() == vec.tobytes()
    assert out.matrix.tobytes() == linalg.hermitian_outer(vec).tobytes()
    same_bytes(out, sig, linalg.hermitian_outer(vec))
    assert np.max(np.abs(out.matrix - dense)) <= 1e-12


def measured_first(rho, positions):
    """``rho``'s vector (its factor's one column) laid out as the effect's factors, then the rest, as one ``(1, a, b)``
    stack."""
    rest = [t for t in range(rho.sig.num_factors) if t not in positions]
    sub = rho.sig.sub_signature(positions).dim
    return rho.factor[:, 0].reshape(rho.sig.dims).transpose(*positions, *rest).reshape(1, sub, -1)


def no_decision(counts):
    assert counts == dict.fromkeys(counts, 0)


def test_counters_see_the_public_path(counts, rng):
    sig = SystemSignature(2, 3, 3)
    DensityState(sig, projector(vector("complex", sig.dim, rng)))
    assert counts["hermitian_part"] == 1 and counts["low_rank_psd"] == 1
    mixed = random_mixed_state(SystemSignature(2, 1, 1), rng)[0]
    DensityState(mixed.sig, mixed.matrix)
    assert counts["cholesky"] + counts["eigvalsh"] >= 1
    Povm([Effect(sig, np.eye(sig.dim))])
    assert counts["effect"] == 1 and counts["hermitian_part"] == 3 and counts["povm"] == 1


def test_rejected_state_symmetrized_once(counts):
    sig = SystemSignature(2, 3, 3)
    mat = np.diag([1.5, -0.5] + [0.0] * (sig.dim - 2)).astype(complex)
    with pytest.raises(DensityMatrixError) as info:
        DensityState(sig, mat)
    assert str(info.value) == "matrix has negative eigenvalue -0.5"
    assert counts["hermitian_part"] == 1 and counts["eigvalsh"] == 1


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dmn", SIGS)
class TestAdmittedOnce:

    def test_from_vector(self, dmn, kind, counts, rng):
        sig = SystemSignature(*dmn)
        v = vector(kind, sig.dim, rng)
        out = DensityState.from_vector(sig, v)
        no_decision(counts)
        # the unit vector is stored; the matrix is formed on the first read, once
        assert out.factor.tobytes() == linalg.unit_vector(v).tobytes() and out._matrix is None
        assert out.matrix.tobytes() == projector(v).tobytes() and out.matrix is out.matrix
        same_bytes(out, sig, projector(v))

    def test_product_state(self, dmn, kind, counts, rng):
        left, right = (DensityState.from_vector(s, vector(kind, s.dim, rng))
                       for s in split(SystemSignature(*dmn)))
        out = product_state(left, right)
        no_decision(counts)
        sig, mat = joint_matrix(left, right)
        if left.factor is not None and right.factor is not None:
            same_pure(out, sig, product_vector(left, right), mat)
        else:
            assert np.array_equal(out.matrix, mat)  # stored as built, up to the signs of zeros
            same_bytes(out, sig, mat)

    def test_apply_reversible(self, dmn, kind, counts, rng):
        sig = SystemSignature(*dmn)
        perm = FactorPermutation(rng.permutation(sig.m), rng.permutation(sig.n))
        spec = ReversibleSpec(perm, rng.integers(0, sig.d, size=sig.num_factors),
                              rng.integers(0, sig.d, size=sig.num_factors))
        u = build_reversible(spec, sig)
        rho = DensityState.from_vector(sig, vector(kind, sig.dim, rng))
        out = apply_reversible(u, rho)
        no_decision(counts)
        src, ph = _reversible_index_map(spec, sig)
        dense = ph[:, None] * rho.matrix[np.ix_(src, src)] * ph.conj()
        if sig.dim > FACTOR_PATH_DIM:
            same_pure(out, sig, ph * rho.factor[src, 0], dense)
        else:
            same_bytes(out, sig, dense)

    def test_marginal_state(self, dmn, kind, counts, rng):
        sig = SystemSignature(*dmn)
        rho = DensityState.from_vector(sig, vector(kind, sig.dim, rng))
        keep = tuple(range(1, sig.num_factors))
        out = marginal_state(rho, keep)
        no_decision(counts)
        sub, dense = sig.sub_signature(keep), partial_trace(rho.matrix, sig.dims, keep)
        if rho.factor is not None:
            mat = rho.factor[:, 0].reshape(sig.dims).transpose(*keep, 0).reshape(sub.dim, -1)
            same_bytes(out, sub, mat @ mat.conj().T)
            assert np.max(np.abs(out.matrix - dense)) <= 1e-12
        else:
            same_bytes(out, sub, dense)

    def test_conditional_state(self, dmn, kind, rng, monkeypatch):
        sig = SystemSignature(*dmn)
        rho = DensityState.from_vector(sig, vector(kind, sig.dim, rng))
        e = random_certified_effect(sig.sub_signature((0,)), rng)
        prob, out = conditional_state(rho, e, (0,))
        sub, dense = sig.sub_signature(tuple(range(1, sig.num_factors))), contract_effect(
            e.op, rho.matrix, (0,), sig.dims)
        if rho.factor is not None:
            raw = linalg.contract_pure_effect(e.op[None], measured_first(rho, (0,))).sum(axis=0)
            assert prob == np.trace(raw).real
            assert np.max(np.abs(raw - dense)) <= 1e-12
        else:
            raw = dense
        same_bytes(out, sub, raw / prob)
        # counted on a second call, once the effect is admitted
        count = counters(monkeypatch)
        conditional_state(rho, e, (0,))
        no_decision(count)

    def test_dense_input(self, dmn, kind, rng, monkeypatch):
        # a state with no factor keeps the dense formulas: the product stored as built, the
        # marginal and the conditional contracted from its matrix
        sig = SystemSignature(*dmn)
        left, right = (DensityState._admitted(s, projector(vector(kind, s.dim, rng)))
                       for s in split(sig))
        rho = DensityState._admitted(sig, projector(vector(kind, sig.dim, rng)))
        e = random_certified_effect(sig.sub_signature((0,)), rng)
        count = counters(monkeypatch)
        out, keep = product_state(left, right), tuple(range(1, sig.num_factors))
        marginal, (prob, post) = marginal_state(rho, keep), conditional_state(rho, e, (0,))
        no_decision(count)
        joint, mat = joint_matrix(left, right)
        assert out.factor is None and np.array_equal(out.matrix, mat)
        same_bytes(out, joint, mat)
        sub = sig.sub_signature(keep)
        same_bytes(marginal, sub, partial_trace(rho.matrix, sig.dims, keep))
        raw = contract_effect(e.op, rho.matrix, (0,), sig.dims)
        assert prob == np.trace(raw).real
        same_bytes(post, sub, raw / prob)

    def test_conditional_evolution(self, dmn, kind, rng, monkeypatch):
        in_sig, anc_sig = split(SystemSignature(*dmn))
        ancilla = DensityState.from_vector(anc_sig, vector(kind, anc_sig.dim, rng))
        # every input factor, and an ancilla dit while another ancilla factor is left
        k = in_sig.num_factors
        dits = [*range(in_sig.m), *([k] if anc_sig.m and anc_sig.num_factors > 1 else [])]
        esig = SystemSignature(in_sig.d, len(dits), in_sig.n)
        spec = ConditionalEvolutionSpec(in_sig, ancilla, random_certified_effect(esig, rng),
                                        dits + list(range(in_sig.m, k)))
        rho = DensityState.from_vector(in_sig, vector(kind, in_sig.dim, rng))
        count = counters(monkeypatch)
        prob, out = conditional_evolution(spec, rho)
        no_decision(count)
        joint, mat = joint_matrix(rho, ancilla)
        mat = DensityState(joint, mat).matrix  # the product as admitted
        raw = contract_effect(spec.effect.op, mat, spec.joint_positions, joint.dims)
        if rho.factor is not None and ancilla.factor is not None:
            pure = DensityState._factored(joint, product_vector(rho, ancilla)[:, None])
            dense, raw = raw, linalg.contract_pure_effect(
                spec.effect.op[None], measured_first(pure, spec.joint_positions)).sum(axis=0)
            assert np.max(np.abs(raw - dense)) <= 1e-12
        rest = tuple(t for t in range(joint.num_factors) if t not in spec.joint_positions)
        same_bytes(out, joint.sub_signature(rest), raw / prob)


@pytest.mark.parametrize("dmn", SIGS)
def test_random_mixed_state(dmn, counts, rng):
    sig = SystemSignature(*dmn)
    # the drawn mixture is its factor, sqrt(w_t) times each term's vector, at every size
    out, cert = random_mixed_state(sig, rng)
    no_decision(counts)
    assert out.sig == sig and out._matrix is None
    cols = np.stack([np.sqrt(w) * states.build_pure_state(spec) for w, spec in cert], axis=1)
    assert out.factor.tobytes() == cols.tobytes()
    assert out.matrix.tobytes() == linalg.factor_product(out.factor).tobytes()


SIG11 = SystemSignature(2, 1, 1)


def same_effect(e, sig, built):
    """``e`` is on ``sig`` and stores what ``Effect(sig, built)`` stores."""
    assert e.sig == sig
    assert e.op.tobytes() == Effect(sig, built).op.tobytes()


def directions(rng):
    """Real rotations and complex unit directions, with edge angles."""
    real = [LocalBasis.rotation(a).vectors[k] for a in (0.0, np.pi / 2, -np.pi, 0.3, 2.1)
            for k in range(2)]
    cplx = []
    for _ in range(8):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        cplx.append(u / np.linalg.norm(u))
    return {"real": real, "complex": cplx}


class TestEffectsAdmittedOnce:

    @pytest.mark.parametrize("side", ["alice", "bob"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_side_effect(self, side, kind, rng, monkeypatch):
        us = directions(rng)[kind]
        count = counters(monkeypatch)
        out = [side_effect(side, u) for u in us]
        no_decision(count)
        for e, u in zip(out, us):
            same_effect(e, SIG11, nonlocality._side_operators(side, u[None])[0])

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_side_povm(self, side, rng, monkeypatch):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        bases = [LocalBasis.rotation(0.7), LocalBasis(q)]
        count = counters(monkeypatch)
        povms = [side_povm(side, b) for b in bases]
        no_decision(count)
        for povm, b in zip(povms, bases):
            for e, u in zip(povm.effects, b.vectors):
                same_effect(e, SIG11, nonlocality._side_operators(side, u[None])[0])

    @pytest.mark.parametrize("parity", [0, 1])
    def test_witness_povm(self, parity, monkeypatch):
        count = counters(monkeypatch)
        povm = witness_povm(0.3, parity=parity)
        no_decision(count)
        for e in povm.effects:  # a projector and its complement, stored as built
            same_effect(e, SIG11, e.op)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_activation_setup(self, d, rng, monkeypatch):
        alphas = rng.uniform(0.05, 1.0, size=d)
        alphas /= np.linalg.norm(alphas)
        count = counters(monkeypatch)
        setups = [activation_setup(alphas, r) for r in range(d)]
        no_decision(count)
        sig = SystemSignature(d, 1, 1)
        for setup in setups:
            for povm in setup.alice + setup.bob:
                for e in povm.effects:
                    same_effect(e, sig, e.op)

    @pytest.mark.parametrize("dmn", [(2, 1, 0), (3, 2, 0), (2, 2, 1)])
    def test_unit_effect(self, dmn, monkeypatch):
        sig = SystemSignature(*dmn)
        count = counters(monkeypatch)
        e = unit_effect(sig)
        no_decision(count)
        same_effect(e, sig, np.eye(sig.dim, dtype=complex))

    @pytest.mark.parametrize("dmn", [(2, 1, 0), (3, 2, 0)])
    def test_classical_povm(self, dmn, rng, monkeypatch):
        sig = SystemSignature(*dmn)
        table = rng.uniform(0.0, 1.0, size=(3, sig.dim))
        table /= table.sum(axis=0)
        count = counters(monkeypatch)
        povm = classical_povm(table, sig)
        no_decision(count)
        for e, row in zip(povm.effects, table):
            same_effect(e, sig, np.diag(row).astype(complex))

    def test_computational_and_parity(self, monkeypatch):
        interp = _Interpreter(RunConfig())
        count = counters(monkeypatch)
        interp.execute(parse_script("system S = composite(d=3, bits=1, antibits=1)\n"
                                    "measure M = computational() on S\n"
                                    "measure Q = parity() on S\n"))
        no_decision(count)
        sig = SystemSignature(3, 1, 1)
        computational, parity = interp.env["M"][1], interp.env["Q"][1]
        for i, e in enumerate(computational.effects):
            same_effect(e, sig, np.diag(np.arange(sig.dim) == i).astype(complex))
        # basis index 3 * dit + anti lies in sector (anti - dit) % 3
        key = np.array([(i % 3 - i // 3) % 3 for i in range(sig.dim)])
        for k, e in enumerate(parity.effects):
            same_effect(e, sig, np.diag(key == k).astype(complex))

    def test_chsh_value(self, rng, monkeypatch):
        bases = [LocalBasis.rotation(a) for a in rng.uniform(-np.pi, np.pi, size=6)]
        for _ in range(6):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            bases.append(LocalBasis(q))
        picks = [tuple(rng.integers(len(bases), size=4)) for _ in range(30)]
        count = counters(monkeypatch)
        results = [chsh_value((bases[a0], bases[a1]), (bases[b0], bases[b1]))
                   for a0, a1, b0, b1 in picks]
        no_decision(count)
        for res, (a0, a1, b0, b1) in zip(results, picks):
            e, f = parent_chsh((bases[a0], bases[a1]), (bases[b0], bases[b1]))
            assert res.expectations.tobytes() == e.tobytes()
            assert np.float64(res.f_value).tobytes() == np.float64(f).tobytes()


def typed(x):
    """``x`` with the type of every element, tuples and dicts opened."""
    if isinstance(x, tuple):
        return tuple, tuple(typed(y) for y in x)
    if isinstance(x, dict):
        return dict, [(typed(k), typed(v)) for k, v in x.items()]
    return type(x), x


def spec_fields(spec):
    return (spec.sig, typed(spec.coeffs), typed(spec.parity), typed(spec.tail), type(spec.perm),
            typed(spec.perm.sigma), typed(spec.perm.tau))


# the digits are checked once, so a basis spec is stored as built, with no field re-read
@pytest.mark.parametrize("dmn", [(2, 1, 1), (3, 1, 1), (2, 2, 2), (3, 2, 0)], ids=str)
def test_basis_specs_store_what_the_public_constructor_stores(dmn, monkeypatch):
    sig = SystemSignature(*dmn)
    d, m, p = sig.d, sig.m, sig.num_pairs
    calls = []
    checked = PureStateSpec.__post_init__
    monkeypatch.setattr(PureStateSpec, "__post_init__",
                        lambda spec: calls.append(spec) or checked(spec))
    for digits in product(range(d), repeat=sig.num_factors):
        spec = basis_state_spec(sig, digits)
        assert calls == []
        dits, antis = digits[:m], digits[m:]
        parity = [(a - g) % d for g, a in zip(dits, antis)]
        want = PureStateSpec(sig, {dits[:p]: 1.0}, parity=parity,
                             tail=dits[p:] if m > sig.n else antis[p:])
        calls.clear()
        assert spec_fields(spec) == spec_fields(want)
        assert build_pure_state(spec).tobytes() == build_pure_state(want).tobytes()
