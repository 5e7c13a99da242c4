"""A low-rank state keeps its factor.

A state made from a ``(dim, r)`` factor ``F`` forms ``matrix = F F^H`` on the first read, exactly
Hermitian; the public constructor keeps the factor its admission accepted.  The product, the
marginal, the conditional and membership without a certificate read the factor at every size,
the reversible map and the Born rule above 256 x 256.  These tests hold each of them to the
dense path on the same state stored as its matrix, at dimensions 4, 16, 64, 512, 729 and 1024
and ranks 1, 2, 3 and ``max(1, dim // 64)``.
"""

import time

import numpy as np
import pytest

from duoc.dynamics import ReversibleSpec, apply_reversible, build_reversible
from duoc.effects import (
    Effect, Povm, born_probabilities, conditional_state, random_certified_effect,
)
from duoc.linalg import (
    DEFAULT_ATOL, factor_residual, hermitian_outer, hermitian_part, symmetrized,
)
from duoc.states import (
    FACTOR_PATH_DIM, DensityState, build_pure_state, draw_valid_states, marginal_state, product_state,
    random_mixed_state, validate_mixed_state,
)
from duoc.systems import FactorPermutation, SystemSignature

# dimensions 4, 16, 64, 512, 729 and 1024, each with a split into two factors for the product
SPLITS = {(2, 1, 1): ((2, 1, 0), (2, 0, 1)), (2, 2, 2): ((2, 1, 1), (2, 1, 1)),
          (2, 3, 3): ((2, 2, 1), (2, 1, 2)), (2, 5, 4): ((2, 3, 2), (2, 2, 2)),
          (3, 3, 3): ((3, 2, 2), (3, 1, 1)), (2, 5, 5): ((2, 3, 3), (2, 2, 2))}
CASES = [(dmn, r) for dmn in SPLITS
         for r in sorted({1, 2, 3, max(1, SystemSignature(*dmn).dim // 64)})]
TOL = 1e-12


def random_factor(sig, rank, rng):
    f = rng.normal(size=(sig.dim, rank)) + 1j * rng.normal(size=(sig.dim, rank))
    return f / np.linalg.norm(f)


def dense_twin(rho):
    """The same state stored as its matrix, with no factor: the kernels take the dense path."""
    f = rho.factor
    return DensityState._admitted(rho.sig, symmetrized(f @ f.conj().T))


def random_reversible(sig, rng):
    perm = FactorPermutation(rng.permutation(sig.m), rng.permutation(sig.n))
    return build_reversible(ReversibleSpec(perm, rng.integers(0, sig.d, size=sig.num_factors),
                                           rng.integers(0, sig.d, size=sig.num_factors)), sig)


def two_outcome_povm(sig, rng):
    """``{E, I - E}`` with ``E`` a scaled rank-4 positive operator, exactly Hermitian."""
    a = rng.normal(size=(sig.dim, 4)) + 1j * rng.normal(size=(sig.dim, 4))
    op = symmetrized(a @ a.conj().T) / np.linalg.norm(a, 2) ** 2
    return Povm._admitted([Effect._admitted(sig, op, None),
                           Effect._admitted(sig, np.eye(sig.dim) - op, None)])


def trace_norm(mat):
    return float(np.sum(np.abs(np.linalg.eigvalsh(symmetrized(mat)))))


@pytest.mark.parametrize("dmn, rank", CASES, ids=str)
class TestFactoredKernels:

    def test_matrix_is_exactly_hermitian(self, dmn, rank, rng):
        sig = SystemSignature(*dmn)
        f = random_factor(sig, rank, rng)
        rho = DensityState._factored(sig, f)
        assert rho._matrix is None
        mat = rho.matrix
        assert rho.matrix is mat
        assert np.array_equal(mat, mat.conj().T)
        assert hermitian_part(mat)[0].tobytes() == mat.tobytes()
        assert np.max(np.abs(mat - f @ f.conj().T)) <= TOL
        if rank == 1:
            assert mat.tobytes() == hermitian_outer(f[:, 0]).tobytes()

    def test_reversible_map(self, dmn, rank, rng):
        sig = SystemSignature(*dmn)
        rho = DensityState._factored(sig, random_factor(sig, rank, rng))
        u = random_reversible(sig, rng)
        out = apply_reversible(u, rho)
        if sig.dim > FACTOR_PATH_DIM:
            assert out.factor.shape == (sig.dim, rank) and out._matrix is None
        assert np.max(np.abs(out.matrix - apply_reversible(u, dense_twin(rho)).matrix)) <= TOL

    def test_marginal_state(self, dmn, rank, rng):
        sig = SystemSignature(*dmn)
        rho = DensityState._factored(sig, random_factor(sig, rank, rng))
        keep = tuple(sorted(rng.choice(sig.num_factors, size=sig.num_factors // 2,
                                       replace=False)))
        out, want = marginal_state(rho, keep), marginal_state(dense_twin(rho), keep)
        assert out.sig == want.sig and np.max(np.abs(out.matrix - want.matrix)) <= TOL

    def test_conditional_state(self, dmn, rank, rng):
        sig = SystemSignature(*dmn)
        rho = DensityState._factored(sig, random_factor(sig, rank, rng))
        positions = (0, sig.m)[: sig.num_factors - 1]  # leaving a factor of (2, 1, 1) unmeasured
        e = random_certified_effect(sig.sub_signature(positions), rng)
        (prob, post), (want_prob, want) = (conditional_state(r, e, positions)
                                           for r in (rho, dense_twin(rho)))
        assert abs(prob - want_prob) <= TOL
        assert post.sig == want.sig and np.max(np.abs(post.matrix - want.matrix)) <= TOL

    def test_product_state(self, dmn, rank, rng):
        left_sig, right_sig = (SystemSignature(*s) for s in SPLITS[dmn])
        left = DensityState._factored(left_sig, random_factor(left_sig, rank, rng))
        right = DensityState._factored(right_sig, random_factor(right_sig, 2, rng))
        out = product_state(left, right)
        want = product_state(dense_twin(left), dense_twin(right))
        assert out.sig == want.sig == SystemSignature(*dmn)
        assert out.factor.shape == (out.sig.dim, 2 * rank) and out._matrix is None
        assert np.max(np.abs(out.matrix - want.matrix)) <= TOL

    def test_born_probabilities(self, dmn, rank, rng):
        sig = SystemSignature(*dmn)
        rho = DensityState._factored(sig, random_factor(sig, rank, rng))
        povm = two_outcome_povm(sig, rng)
        probs = born_probabilities(povm, rho)
        assert (rho._matrix is None) == (sig.dim > FACTOR_PATH_DIM)
        dense = born_probabilities(povm, dense_twin(rho))
        want = [np.trace(e.op @ rho.matrix).real for e in povm.effects]
        assert np.max(np.abs(probs - want)) <= TOL and np.max(np.abs(dense - want)) <= TOL


def rank_three_mixture(sig, rng):
    """A mixture of three drawn valid pure states, exactly Hermitian."""
    vecs = draw_valid_states(sig, 3, rng)
    mat = (vecs.T * [0.5, 0.3, 0.2]) @ vecs.conj()
    return symmetrized(mat)


def test_pipeline_forms_no_matrix(rng):
    """A rank-3 (2,5,5) state through a reversible map, a marginal, a conditional and the Born
    rule: no state derived from its factor forms its matrix."""
    sig = SystemSignature(2, 5, 5)
    rho = DensityState(sig, rank_three_mixture(sig, rng))
    assert rho.factor.shape == (sig.dim, 3)
    moved = apply_reversible(random_reversible(sig, rng), rho)
    twice = apply_reversible(random_reversible(sig, rng), moved)
    positions = (0, sig.m)
    marginal_state(twice, (1, 2, 6))
    conditional_state(twice, random_certified_effect(sig.sub_signature(positions), rng),
                      positions)
    born_probabilities(two_outcome_povm(sig, rng), twice)
    assert moved._matrix is None and twice._matrix is None


def test_noisy_admission_stays_within_its_residual(rng):
    """Rank 3 plus a positive diagonal of 0.1 to 0.4 times ``atol / dim``, where the pivots stop
    (the noise on the pivots raises the rest by up to about as much again): admission keeps the rank-3 factor,
    and each derived result differs from the dense path's by no more than the remainder
    ``R = M - F F^H`` allows: ``||R||_F`` for a reversible map in Frobenius norm, and for a
    marginal, a conditional and a Born probability the trace norm of ``R``, at most
    ``sqrt(dim) ||R||_F``."""
    sig = SystemSignature(2, 5, 5)
    mat = rank_three_mixture(sig, rng)
    mat[np.diag_indices(sig.dim)] += rng.uniform(0.1, 0.4, size=sig.dim) * DEFAULT_ATOL / sig.dim
    mat /= np.trace(mat).real
    rho = DensityState(sig, mat)
    assert rho.factor.shape == (sig.dim, 3)
    residual = factor_residual(rho.factor, rho.matrix)
    assert 0.0 < residual <= DEFAULT_ATOL
    bound = np.sqrt(sig.dim) * residual
    dense = DensityState._admitted(sig, rho.matrix)

    u = random_reversible(sig, rng)
    diff = apply_reversible(u, rho).matrix - apply_reversible(u, dense).matrix
    assert np.linalg.norm(diff) <= residual * (1 + 1e-6)

    keep = (1, 2, 6)
    diff = marginal_state(rho, keep).matrix - marginal_state(dense, keep).matrix
    assert 0.0 < trace_norm(diff) <= bound

    positions = (0, sig.m)
    e = random_certified_effect(sig.sub_signature(positions), rng)
    (prob, post), (want_prob, want) = (conditional_state(r, e, positions) for r in (rho, dense))
    assert abs(prob - want_prob) <= bound
    assert trace_norm(prob * post.matrix - want_prob * want.matrix) <= bound

    povm = two_outcome_povm(sig, rng)
    assert np.max(np.abs(born_probabilities(povm, rho) - born_probabilities(povm, dense))) \
        <= bound


def leaked(factor):
    """``factor`` with ``1e-6`` on a row outside its first column's support, renormalized."""
    out = factor.copy()
    out[np.flatnonzero(factor[:, 0] == 0)[0], 0] = 1e-6
    return out / np.linalg.norm(out)


@pytest.mark.parametrize("dmn", list(SPLITS), ids=str)
@pytest.mark.parametrize("seed", [0, 1])
def test_membership_from_the_factor_decides_as_the_matrix(dmn, seed):
    """Certified mixtures, and one with an entry off its cells, decided from the certificate's
    columns ``sqrt(w_t) v_t`` and from the factor the public constructor keeps, against the
    dense path on the same matrix."""
    sig = SystemSignature(*dmn)
    rng = np.random.default_rng([seed, sig.dim])
    state, cert = random_mixed_state(sig, rng)
    vecs = np.stack([np.sqrt(w) * build_pure_state(spec) for w, spec in cert], axis=1)
    public = DensityState(sig, state.matrix)
    # admission keeps a factor of at most max(1, dim // 64) columns
    if len(cert) <= max(1, sig.dim // 64):
        assert public.factor.shape[1] == len(cert)
    else:
        assert public.factor is None
    for factor, others in ((vecs, [public]), (leaked(vecs), [])):
        rho = DensityState._factored(sig, factor)
        want = validate_mixed_state(dense_twin(rho))
        for rep in map(validate_mixed_state, [rho, *others]):
            assert (rep.valid, rep.witness, rep.flags) == (want.valid, want.witness, want.flags)
            assert rep.residual == pytest.approx(want.residual, rel=1e-6, abs=1e-12)
        assert rho._matrix is None


def test_rank_three_membership_at_the_cap_within_a_second(rng):
    sig = SystemSignature(2, 6, 6)
    vecs = draw_valid_states(sig, 3, rng)
    rho = DensityState._factored(sig, (vecs.T * np.sqrt([0.5, 0.3, 0.2])).copy())
    start = time.thread_time()
    rep = validate_mixed_state(rho)
    assert time.thread_time() - start < 1.0
    assert rho._matrix is None
    assert rep.valid or rep.flags == ("NON-EXHAUSTIVE",)


def test_a_factor_off_unit_trace_is_not_kept(rng):
    """A factor whose squared norm misses 1 by more than ``DEFAULT_ATOL`` (the trace within
    ``DEFAULT_ATOL`` of 1, the remainder's trace adding to it) is dropped, so that no state
    derived from it fails its trace check; the state then takes the dense path."""
    sig = SystemSignature(2, 5, 5)
    mat = rank_three_mixture(sig, rng)
    mat[np.diag_indices(sig.dim)] += 0.4 * DEFAULT_ATOL / sig.dim
    mat *= (1.0 - 0.9 * DEFAULT_ATOL) / np.trace(mat).real
    rho = DensityState(sig, mat)
    assert rho.factor is None
    u = random_reversible(sig, rng)
    out = apply_reversible(u, rho)
    assert out.factor is None and abs(np.trace(out.matrix).real - 1.0) <= DEFAULT_ATOL
