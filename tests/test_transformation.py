"""The channel check decides from the Choi state, and decides complete positivity as state
admission decides positivity.

A map from ``(m, n)`` to ``(m', n')`` is completely valid exactly when its Choi matrix, divided by
its trace, is a valid state on ``(m' + n, n' + m)``: the input's dits count there as anti-dits
and its anti-dits as dits.  Complete positivity is read off the Hermitian part of the Choi matrix
by ``psd_defect`` at ``INPUT_ATOL``: a low-rank factor, then Cholesky, then ``eigvalsh``.  A Choi
state that is no density matrix at ``DEFAULT_ATOL`` fails the check with its defect.
"""

import time

import numpy as np
import pytest

from duoc import dynamics, linalg, random_mixed_state, states
from duoc.dynamics import (
    ConditionalEvolutionSpec, ReversibleSpec, build_reversible, choi_matrix, conditional_evolution,
    validate_transformation,
)
from duoc.effects import Effect
from duoc.errors import DomainError
from duoc.linalg import (
    DEFAULT_ATOL, INPUT_ATOL, contract_effect, hermitian_part, partial_trace, projector,
    tensor_all,
)
from duoc.states import (
    DensityState, draw_valid_states, product_order, validate_mixed_state,
)
from duoc.systems import FactorPermutation, SystemSignature

# one kind, (1, 1), and composites with both kinds beyond (1, 1), where 25 sampled mixtures left
# the identity undecided
CHOI_SIGS = [(2, 1, 0), (2, 0, 1), (2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2), (3, 2, 1)]


def conjugation(u):
    return lambda r: u @ r @ u.conj().T


def random_reversible(sig, rng):
    spec = ReversibleSpec(
        FactorPermutation(tuple(rng.permutation(sig.m)), tuple(rng.permutation(sig.n))),
        x_shifts=tuple(rng.integers(0, sig.d, sig.num_factors)),
        z_phases=tuple(rng.integers(0, sig.d, sig.num_factors)))
    return build_reversible(spec, sig)


@pytest.mark.parametrize("dmn", CHOI_SIGS)
def test_identity_and_reversible_maps_valid_without_flags(dmn):
    sig = SystemSignature(*dmn)
    rng = np.random.default_rng(26)
    maps = [lambda r: r] + [conjugation(random_reversible(sig, rng)) for _ in range(10)]
    for map_fn in maps:
        rep = validate_transformation(map_fn, sig, sig)
        assert rep.valid and rep.witness == "Choi state" and rep.flags == ()
        assert rep.residual <= INPUT_ATOL


def fourier(d):
    return np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)


@pytest.mark.parametrize("dmn", CHOI_SIGS)
def test_fourier_on_one_factor_rejected(dmn):
    # a Hadamard (d = 2) or Fourier (d = 3) matrix superposes basis states of different cells
    sig = SystemSignature(*dmn)
    for t in range(sig.num_factors):
        u = tensor_all(np.eye(sig.d**t), fourier(sig.d), np.eye(sig.d ** (sig.num_factors - t - 1)))
        rep = validate_transformation(conjugation(u), sig, sig)
        assert not rep.valid and rep.witness == "invalid Choi state" and rep.flags == ()


@pytest.mark.parametrize("dmn", CHOI_SIGS)
def test_transpose_rejected_on_complete_positivity(dmn):
    sig = SystemSignature(*dmn)
    rep = validate_transformation(lambda r: r.T, sig, sig)
    # the Choi matrix of the transpose is the swap, of eigenvalue -1
    assert not rep.valid and rep.witness == "complete positivity"
    assert rep.residual == pytest.approx(1.0)


@pytest.mark.parametrize("dmn", [(2, 1, 1), (2, 2, 1), (2, 2, 2)])
def test_dephasing_and_depolarizing_valid(dmn):
    sig = SystemSignature(*dmn)
    for map_fn in (lambda r: np.diag(np.diag(r)),
                   lambda r: np.trace(r) * np.eye(sig.dim) / sig.dim):
        rep = validate_transformation(map_fn, sig, sig)
        assert rep.valid and rep.witness == "Choi state" and rep.flags == ()


# (input, output, kept factors of the input)
PARTIAL_TRACES = [
    ((2, 2, 1), (2, 2, 0), (0, 1)),
    ((2, 2, 1), (2, 1, 1), (0, 2)),
    ((2, 1, 2), (2, 1, 1), (0, 1)),
    ((2, 2, 2), (2, 1, 2), (1, 2, 3)),
]


@pytest.mark.parametrize("dmn_in, dmn_out, keep", PARTIAL_TRACES)
def test_partial_traces_valid(dmn_in, dmn_out, keep):
    sig_in, sig_out = SystemSignature(*dmn_in), SystemSignature(*dmn_out)
    rep = validate_transformation(lambda r: partial_trace(r, sig_in.dims, keep), sig_in, sig_out)
    assert rep.valid and rep.witness == "Choi state" and rep.flags == ()


# (input, ancilla, effect, effect positions over [input factors, ancilla factors]): each effect
# consumes the input and part of the ancilla, and the rest of the ancilla is a (1, 1) output
HERALDED = [
    ((2, 1, 0), (2, 1, 2), (2, 1, 1), (0, 2)),
    ((2, 0, 1), (2, 2, 1), (2, 1, 1), (1, 0)),
    ((2, 1, 1), (2, 2, 1), (2, 2, 1), (0, 2, 1)),
    ((3, 1, 0), (3, 1, 2), (3, 1, 1), (0, 2)),
]


def heralded_map(spec):
    """``r -> Tr_S[(E x I)(r x sigma)]``, the unnormalized conditional evolution of ``spec``,
    as a linear map on matrices: the product laid out as :func:`product_state` lays it out."""
    ins, anc = spec.input_sig, spec.ancilla.sig
    joint = SystemSignature(ins.d, ins.m + anc.m, ins.n + anc.n)
    order = product_order(ins, anc)
    axes = order + [joint.num_factors + t for t in order]

    def map_fn(r):
        mat = np.kron(r, spec.ancilla.matrix).reshape(joint.dims * 2).transpose(axes)
        return contract_effect(spec.effect.op, mat.reshape(joint.dim, joint.dim),
                               spec.joint_positions, joint.dims)

    return map_fn


@pytest.mark.parametrize("dmn_in, dmn_anc, dmn_eff, positions", HERALDED)
def test_heralded_evolutions_completely_valid(dmn_in, dmn_anc, dmn_eff, positions):
    # the model's own dynamics: a pure ancilla and a pure effect give a rank-1 Choi state, which
    # the check decides; reading R's dits and anti-dits the wrong way round would reject it
    sig_in, sig_anc, sig_eff = (SystemSignature(*x) for x in (dmn_in, dmn_anc, dmn_eff))
    sig_out = SystemSignature(sig_in.d, 1, 1)
    rng = np.random.default_rng(sum(positions))
    witnesses = []
    for _ in range(8):
        ancilla = DensityState.from_vector(sig_anc, draw_valid_states(sig_anc, 1, rng)[0])
        effect = Effect(sig_eff, projector(draw_valid_states(sig_eff, 1, rng)[0]))
        spec = ConditionalEvolutionSpec(sig_in, ancilla, effect, positions)
        map_fn = heralded_map(spec)
        rho = random_mixed_state(sig_in, rng)[0]
        prob, out = conditional_evolution(spec, rho)
        if out is not None:
            assert np.allclose(map_fn(rho.matrix), prob * out.matrix, atol=1e-12)
        rep = validate_transformation(map_fn, sig_in, sig_out)
        assert rep.valid and rep.flags == ()
        witnesses.append(rep.witness)
    # an effect that the ancilla never meets heralds nothing: the zero map
    assert set(witnesses) <= {"Choi state", "zero map"} and witnesses.count("Choi state") >= 4


def kind_swap(sig):
    """The map exchanging dit 0 and anti-dit 0 of ``sig``, as a factor transpose."""
    k = sig.num_factors
    perm = list(range(k))
    perm[0], perm[sig.m] = sig.m, 0
    return lambda r: r.reshape(sig.dims * 2).transpose(perm + [k + p for p in perm]).reshape(
        sig.dim, sig.dim)


@pytest.mark.parametrize("dmn", [(2, 1, 1), (3, 1, 1)])
def test_kind_swap_valid_on_inputs_but_not_completely_valid(dmn):
    # on (1, 1) the swap sends sum_x a_x |x>|x + s> to sum_x a_x |x + s>|x>, again valid; on the
    # input and its copy R it leaves the input dit tracking R's dit, which no pairing allows
    sig = SystemSignature(*dmn)
    map_fn, rng = kind_swap(sig), np.random.default_rng(7)
    for _ in range(10):
        image = DensityState(sig, map_fn(random_mixed_state(sig, rng)[0].matrix))
        assert validate_mixed_state(image).valid
    rep = validate_transformation(map_fn, sig, sig)
    assert not rep.valid and rep.witness == "invalid Choi state" and rep.flags == ()


def test_trace_increase_rejected_with_the_largest_gain():
    sig = SystemSignature(2, 1, 1)
    rep = validate_transformation(lambda r: 1.5 * r, sig, sig)
    assert not rep.valid and rep.witness == "trace increase"
    assert rep.residual == pytest.approx(0.5)


def test_trace_decreasing_map_valid():
    sig = SystemSignature(2, 2, 1)
    rep = validate_transformation(lambda r: r / 2, sig, sig)
    assert rep.valid and rep.witness == "Choi state"


def test_undecided_choi_state_is_not_a_pass():
    # the replace channel r -> tr(r) sigma has Choi state sigma x I / dim_in, which the spectral
    # check leaves undecided as it leaves sigma
    sig_out = SystemSignature(2, 2, 1)
    sigma = random_mixed_state(sig_out, 2)[0]
    assert validate_mixed_state(sigma).flags == ("NON-EXHAUSTIVE",)
    for dmn_in in [(2, 1, 0), (2, 0, 1), (2, 1, 1)]:
        sig_in = SystemSignature(*dmn_in)
        rep = validate_transformation(lambda r: np.trace(r) * sigma.matrix, sig_in, sig_out)
        assert not rep.valid and rep.witness == "UNDECIDED Choi state"
        assert rep.flags == ("NON-EXHAUSTIVE",)


def test_rank_one_choi_state_rejected_exactly():
    # a Kraus map whose Choi vector lies on three basis states of (3,3,3) that pairwise share a
    # cell but lie on no common one: the cell test passes it, and its one spectral column, of an
    # exactly rank-1 Choi state and far from every cell, fails
    kraus = choi_vectors({347: 3**-0.5, 272: 3**-0.5, 477: 3**-0.5})
    rep = validate_transformation(conjugation(kraus.reshape(81, 9)), *CHOI_333)
    assert not rep.valid and rep.witness == "invalid Choi state" and rep.flags == ()


def test_two_kraus_map_cut_to_one_column_is_undecided():
    # Kraus operators of Choi vectors sqrt(1 - eps^2) e_c + eps e_x and sqrt(1 - eps^2) e_c +
    # eps e_y (c, x and c, y share cells): a valid map whose Choi state's second eigenvalue
    # falls below the cut, with a lone column that leaks past SPECTRAL_ATOL
    eps = 1e-6
    pair = [choi_vectors({347: np.sqrt(1 - eps**2), other: eps}).reshape(81, 9) / np.sqrt(2)
            for other in (272, 477)]
    rep = validate_transformation(lambda r: sum(k @ r @ k.conj().T for k in pair), *CHOI_333)
    assert (rep.valid, rep.witness, rep.flags) == (
        False, "UNDECIDED Choi state", ("NON-EXHAUSTIVE",))


CHOI_333 = SystemSignature(3, 1, 1), SystemSignature(3, 2, 2)  # a Choi state on (3, 3, 3)


def choi_vectors(entries):
    """The Choi matrix vector of (3, 1, 1) -> (3, 2, 2) with the given entries at Choi state rows:
    row q of the Choi state is row ``order[q]`` of the Choi matrix."""
    order = np.arange(729).reshape(9, 9, 3, 3).transpose(0, 3, 1, 2).ravel()
    vec = np.zeros(729, dtype=complex)
    vec[order[list(entries)]] = list(entries.values())
    return vec


def counting(map_fn):
    """``map_fn`` that also counts its calls, in ``calls[0]``."""
    calls = [0]

    def wrapped(mat):
        calls[0] += 1
        return map_fn(mat)

    return wrapped, calls


@pytest.mark.parametrize("dmn", [(2, 1, 0), (2, 1, 1), (3, 1, 1), (2, 2, 1)])
def test_map_called_once_per_unit_and_once_per_probe(dmn):
    sig = SystemSignature(*dmn)
    map_fn, calls = counting(lambda r: r)
    assert validate_transformation(map_fn, sig, sig).valid
    # the linearity probe, then choi_matrix's dim^2 unit matrices, the first its shape probe
    assert calls[0] == 1 + sig.dim**2


def test_choi_state_above_the_cap_refused_before_any_call():
    # the Choi matrix of a map on (2,4,4) would be a 65536 x 65536 matrix, from 65536 calls
    sig = SystemSignature(2, 4, 4)
    map_fn, calls = counting(lambda r: r)
    start = time.process_time()
    with pytest.raises(DomainError, match="exceeds cap"):
        validate_transformation(map_fn, sig, sig)
    assert calls[0] == 0 and time.process_time() - start < 0.5


def test_choi_matrix_refused_before_allocation():
    map_fn, calls = counting(lambda r: np.zeros((4096, 4096)))
    with pytest.raises(DomainError, match="exceeds cap"):
        choi_matrix(map_fn, 2)
    assert calls[0] == 1


def test_local_dimensions_must_agree():
    map_fn, calls = counting(lambda r: r)
    with pytest.raises(DomainError, match="local dimensions"):
        validate_transformation(map_fn, SystemSignature(2, 1, 0), SystemSignature(3, 1, 0))
    assert calls[0] == 0


def test_map_linear_on_the_units_only_refused():
    # every unit matrix has one nonzero entry, so the probe is the only input that tells
    sig = SystemSignature(2, 1, 1)
    with pytest.raises(DomainError, match="not linear"):
        validate_transformation(lambda r: r if np.count_nonzero(r) <= 1 else 2 * r, sig, sig)


def choi_map(choi, d):
    """The linear map on ``d x d`` matrices whose Choi matrix (:func:`choi_matrix`) is ``choi``."""
    blocks = choi.reshape(d, d, d, d)
    return lambda x: np.einsum("aibj,ij->ab", blocks, x)


def dephasing_with_coupling(c):
    """Choi matrix of a bit's dephasing plus ``E_01 -> c E_10`` and ``E_10 -> conj(c) E_01``:
    a classical channel on diagonal inputs, whose Choi matrix has smallest eigenvalue ``-|c|``."""
    choi = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    choi[2, 1], choi[1, 2] = c, np.conj(c)
    return choi


SIG10 = SystemSignature(2, 1, 0)


def test_choi_just_inside_both_thresholds_passes():
    # eigenvalue -5e-11 of the Choi matrix, -2.5e-11 of the Choi state
    choi = dephasing_with_coupling(0.5 * DEFAULT_ATOL)
    assert np.linalg.eigvalsh(choi)[0] == pytest.approx(-0.5 * DEFAULT_ATOL, rel=1e-6)
    rep = validate_transformation(choi_map(choi, 2), SIG10, SIG10)
    assert rep.valid and rep.witness == "Choi state"
    assert rep.residual == 0.0  # both Cholesky factorizations decided; no eigenvalue taken


def test_choi_inside_complete_positivity_fails_admission():
    # eigenvalue -5e-10 of the Choi matrix passes at INPUT_ATOL; -2.5e-10 of the Choi state
    # fails at DEFAULT_ATOL, and is reported, not raised
    rep = validate_transformation(choi_map(dephasing_with_coupling(0.5 * INPUT_ATOL), 2),
                                  SIG10, SIG10)
    assert not rep.valid and rep.witness == "invalid Choi state"
    assert rep.residual == pytest.approx(0.25 * INPUT_ATOL, rel=1e-6)


def test_choi_beyond_the_threshold_rejected_with_its_eigenvalue():
    map_fn = choi_map(dephasing_with_coupling(2 * INPUT_ATOL), 2)
    rep = validate_transformation(map_fn, SIG10, SIG10)
    assert not rep.valid and rep.witness == "complete positivity"
    assert rep.residual == -np.linalg.eigvalsh(hermitian_part(choi_matrix(map_fn, 2))[0])[0]
    assert rep.residual == pytest.approx(2 * INPUT_ATOL, rel=1e-6)


@pytest.mark.parametrize("dmn", [(2, 1, 1), (2, 2, 2)])
def test_full_rank_choi_accepted_by_cholesky(dmn, linalg_calls):
    sig = SystemSignature(*dmn)
    rep = validate_transformation(lambda r: np.trace(r) * np.eye(sig.dim) / sig.dim, sig, sig)
    assert rep.valid and rep.residual <= INPUT_ATOL
    side = sig.dim**2
    assert (side, side) in linalg_calls["cholesky"]
    assert (side, side) not in linalg_calls["eigvalsh"]


def test_reversible_choi_needs_no_eigendecomposition(linalg_calls):
    sig = SystemSignature(2, 2, 2)
    spec = ReversibleSpec(FactorPermutation((1, 0), (1, 0)), x_shifts=(1, 0, 1, 1),
                          z_phases=(0, 1, 1, 0))
    u = build_reversible(spec, sig)
    rep = validate_transformation(conjugation(u), sig, sig, seed=3)
    assert rep.valid and rep.witness == "Choi state" and rep.flags == ()
    # the rank-1 Choi matrix is proved positive by its low-rank factor, and its Choi state is
    # decided by its one column
    assert (256, 256) not in linalg_calls["eigvalsh"] + linalg_calls["cholesky"]
    assert linalg_calls["eigh"] == []


@pytest.mark.parametrize("dmn", [(2, 1, 1), (2, 2, 2)])
def test_one_positivity_decision_per_choi_matrix(dmn, monkeypatch):
    # the factor that proves complete positivity also admits the Choi state and is its factor,
    # which membership reads: no second decision and no second factorization
    calls = {"low_rank_psd": 0, "psd_defect": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module, name in ((linalg, "low_rank_psd"), (states, "low_rank_psd"),
                         (dynamics, "psd_defect")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    sig = SystemSignature(*dmn)
    u = random_reversible(sig, np.random.default_rng(32))
    rep = validate_transformation(conjugation(u), sig, sig)
    assert rep.valid and rep.witness == "Choi state" and rep.flags == ()
    assert calls == {"low_rank_psd": 1, "psd_defect": 1}


def slightly_negative_classical_map(r):
    """``diag(x) -> diag((1 + 5e-10) x0 + x1 / 2, -5e-10 x0 + x1 / 2)`` on a bit: its Choi matrix
    has eigenvalue -5e-10, inside ``INPUT_ATOL``, and its Choi state (the Choi matrix over 2)
    -2.5e-10, beyond the ``DEFAULT_ATOL`` a density matrix is admitted at."""
    return np.diag([(1 + 5e-10) * r[0, 0] + r[1, 1] / 2, -5e-10 * r[0, 0] + r[1, 1] / 2])


@pytest.mark.parametrize("seed", range(6))
def test_choi_state_below_admission_reported_not_raised(seed):
    # the seed draws only the linearity probe, so it moves no verdict
    rep = validate_transformation(slightly_negative_classical_map, SIG10, SIG10, seed=seed)
    assert not rep.valid and rep.witness == "invalid Choi state" and rep.flags == ()
    assert rep.residual == pytest.approx(2.5e-10, rel=1e-6)


def antihermitian_drift_map(r):
    """The identity plus ``5e-10 tr(r) [[0, 1], [-1, 0]]``: the Hermitian part of its Choi matrix
    is the identity's, its Hermitian defect is 1e-9, at ``INPUT_ATOL``, and its Choi state's
    5e-10, beyond ``DEFAULT_ATOL``."""
    return r + 5e-10 * np.trace(r) * np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("seed", range(3))
def test_non_hermitian_choi_state_reported_with_its_defect(seed):
    rep = validate_transformation(antihermitian_drift_map, SIG10, SIG10, seed=seed)
    assert not rep.valid and rep.witness == "invalid Choi state" and rep.flags == ()
    assert rep.residual == pytest.approx(5e-10, rel=1e-6)


def test_non_hermitian_choi_matrix_rejected_with_its_defect():
    rep = validate_transformation(lambda r: r + 1e-6 * np.trace(r) * np.triu(np.ones((2, 2)), 1),
                                  SIG10, SIG10)
    assert not rep.valid and rep.witness == "Hermiticity" and rep.flags == ()
    assert rep.residual == pytest.approx(1e-6, rel=1e-6)
