"""Reversible maps, conditional evolutions, classical channels.

Reversible transformations are exactly the compositions of a
kind-preserving factor permutation with per-factor shifts ``X^j``
(``|s> -> |s + j mod d>``) and phases ``Z^j``
(``|s> -> omega^(s + j mod d) |s>``).  General dynamics arise as
conditional evolutions ``rho -> Tr_AC[(rho x sigma)(P x I)]``: an
ancilla is appended, an effect consumes the input and part of the
ancilla, and the unconsumed ancilla factors are the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effects import Effect
from .errors import DomainError, NotClassicalError, ShapeError
from .linalg import (
    BLOCK_ENTRIES, DEFAULT_ATOL, INPUT_ATOL, ZERO_ATOL, as_operator, contract_effect,
    min_eigenvalue, off_diagonal_max, row_blocks, tensor_all,
)
from .states import DensityState, ValidityReport, validate_mixed_state
from .systems import FactorPermutation, SystemSignature, phase_matrix

# random valid inputs on which validate_transformation checks trace and output validity
TRANSFORMATION_SAMPLES = 25


@dataclass(eq=False)
class ReversibleSpec:
    """Factor permutation plus per-factor shift and phase exponents.

    An empty ``x_shifts`` or ``z_phases`` omits that layer entirely.
    This matters for the phase layer: ``Z^j = diag(omega^(s + j mod d))``
    is never the identity (the exponent ``j`` only moves a global
    phase), so ``z_phases=(0,) * k`` applies one phase flip per factor
    while ``z_phases=()`` applies none and ``ReversibleSpec()`` is the
    identity map.
    """

    perm: FactorPermutation = None
    x_shifts: tuple = ()
    z_phases: tuple = ()

    def __post_init__(self):
        self.x_shifts = tuple(int(x) for x in self.x_shifts)
        self.z_phases = tuple(int(x) for x in self.z_phases)


def build_reversible(spec: ReversibleSpec, sig: SystemSignature) -> np.ndarray:
    """Unitary for a reversible spec: permutation after shifts after phases.

    The map is monomial: one scatter fills it from its index map and phases.
    """
    src, ph = _reversible_index_map(spec, sig)
    u = np.zeros((sig.dim, sig.dim), dtype=complex)
    u[np.arange(sig.dim), src] = ph
    return u


def _reversible_index_map(spec: ReversibleSpec, sig: SystemSignature) -> tuple:
    """``(src, ph)`` with ``u[i, src[i]] = ph[i]`` the only entries of the spec's unitary.

    So the map sends a vector ``v`` to ``ph * v[src]``.
    """
    nfac = sig.num_factors
    for name, layer in (("x_shifts", spec.x_shifts), ("z_phases", spec.z_phases)):
        if layer and len(layer) != nfac:
            raise DomainError(f"{name} must have length {nfac}, got {len(layer)}")
    perm = spec.perm or FactorPermutation.identity(sig.m, sig.n)
    if len(perm.sigma) != sig.m or len(perm.tau) != sig.n:
        raise DomainError("factor permutation shape does not match the signature")
    # src[i] is the basis index that the map sends to basis index i
    src = np.arange(sig.dim).reshape(sig.dims)
    for axis, j in enumerate(spec.x_shifts):
        src = np.roll(src, j, axis=axis)
    src = src.transpose(np.argsort(perm.destinations(sig.m, sig.n))).reshape(-1)
    phases = np.ones(sig.dim, dtype=complex)
    if spec.z_phases:  # the diagonal of the tensor product of the per-factor phases
        phases = tensor_all(*[np.diag(phase_matrix(sig.d, j)) for j in spec.z_phases])
    return src, phases[src]


def apply_reversible(u: np.ndarray, rho: DensityState) -> DensityState:
    """Conjugate a state by a reversible unitary, by index gather in O(dim^2).

    Reversible maps are monomial: one entry of modulus 1 in each row and
    column.  ``u`` must be such a matrix within ``DEFAULT_ATOL`` (for a
    monomial matrix this is the unitarity test); any other matrix, a
    unitary that mixes basis states included, raises :class:`DomainError`.
    The result is ``(ph x conj(ph)) * rho[src][:, src]``.
    """
    mat = as_operator(u)
    mag = np.abs(mat)
    rows = np.arange(mat.shape[0])
    src = np.argmax(mag, axis=1)  # u[i, src[i]] is the one entry of row i
    defect = float(np.max(np.abs(mag[rows, src] - 1.0)))
    mag[rows, src] = 0.0
    defect = max(defect, float(np.max(mag)))
    del mag  # released before the state checks allocate
    if np.unique(src).size != src.size or defect > DEFAULT_ATOL:
        raise DomainError(f"transformation matrix is not a monomial unitary (defect {defect})")
    if mat.shape[0] != rho.sig.dim:
        raise ShapeError("unitary dimension does not match the state")
    return _conjugate_monomial(src, mat[rows, src], rho)


def _conjugate_monomial(src, ph, rho: DensityState) -> DensityState:
    """``u rho u^H`` for the monomial ``u`` with entries ``u[i, src[i]] = ph[i]``, by gather.

    Above 256 x 256 each of the :func:`~duoc.linalg.row_blocks` is gathered
    and phase-scaled while it is in cache, then copied into place.
    """
    mat, conj_ph = rho.matrix, ph.conj()
    if mat.size <= BLOCK_ENTRIES:
        return DensityState(rho.sig, _phased_gather(mat, src, src, ph, conj_ph))
    out = np.empty_like(mat)
    for rows in row_blocks(mat.shape[0]):
        out[rows] = _phased_gather(mat, src[rows], src, ph[rows], conj_ph)
    return DensityState(rho.sig, out)


def _phased_gather(mat, row_src, src, row_ph, conj_ph) -> np.ndarray:
    """Rows ``row_src``, columns ``src`` of ``mat``, scaled by ``row_ph`` and ``conj_ph``."""
    out = mat.take(row_src, 0).take(src, 1)
    np.multiply(row_ph[:, None], out, out=out)  # operand order kept: complex products round by it
    out *= conj_ph
    return out


@dataclass(eq=False)
class ClassicalChannel:
    """Stochastic map between classical composites.

    ``matrix[y, x]`` is p(y|x) over basis strings; columns sum to one.
    """

    matrix: np.ndarray
    d: int
    m_in: int
    m_out: int

    def __post_init__(self):
        table = np.asarray(self.matrix, dtype=float)
        expect = (self.d**self.m_out, self.d**self.m_in)
        if table.shape != expect:
            raise ShapeError(f"channel table shape {table.shape} != {expect}")
        # both checks written so that a NaN fails them
        if not np.min(table) >= -ZERO_ATOL:
            raise DomainError("conditional probabilities must be nonnegative")
        defect = float(np.max(np.abs(table.sum(axis=0) - 1.0)))
        if not defect <= DEFAULT_ATOL:
            raise DomainError(f"columns of p(y|x) must sum to 1 (defect {defect})")
        self.matrix = table

    def compose(self, inner: "ClassicalChannel") -> "ClassicalChannel":
        """Channel equal to ``inner`` followed by this one."""
        if inner.d != self.d or inner.m_out != self.m_in:
            raise DomainError("channel shapes do not compose")
        return ClassicalChannel(self.matrix @ inner.matrix, self.d, inner.m_in, self.m_out)


def classical_channel_map(ch: ClassicalChannel, rho: DensityState) -> DensityState:
    """Apply a classical channel to a diagonal classical state."""
    if not rho.sig.is_classical():
        raise NotClassicalError("channel input must live on a classical composite")
    if rho.sig.d != ch.d or rho.sig.m != ch.m_in:
        raise DomainError("channel does not match the input signature")
    if (off := off_diagonal_max(rho.matrix)) > DEFAULT_ATOL:
        raise NotClassicalError(f"input state is not diagonal (defect {off})")
    probs = np.real(np.diag(rho.matrix))
    out = ch.matrix @ probs
    return DensityState(SystemSignature(ch.d, ch.m_out, 0), np.diag(out.astype(complex)))


@dataclass(eq=False)
class ConditionalEvolutionSpec:
    """Wiring data for ``rho -> Tr_AC[(rho x sigma)(P x I)]``.

    Factors are numbered over the concatenation [input factors, ancilla
    factors].  ``effect_positions`` wires each factor of the effect to
    one concatenated position; the wiring must consume every input
    factor, and the unconsumed ancilla factors form the output.
    """

    input_sig: SystemSignature
    ancilla: DensityState
    effect: Effect
    effect_positions: tuple

    def __post_init__(self):
        self.effect_positions = tuple(int(p) for p in self.effect_positions)
        k_in = self.input_sig.num_factors
        k_all = k_in + self.ancilla.sig.num_factors
        pos = self.effect_positions
        if len(pos) != self.effect.sig.num_factors or len(set(pos)) != len(pos):
            raise DomainError(f"need {self.effect.sig.num_factors} distinct wiring positions")
        if any(p < 0 or p >= k_all for p in pos):
            raise DomainError(f"wiring positions {pos} outside the {k_all} available factors")
        if self.input_sig.d != self.ancilla.sig.d or self.input_sig.d != self.effect.sig.d:
            raise DomainError("local dimensions of input, ancilla and effect differ")
        if not set(range(k_in)) <= set(pos):
            raise DomainError("the effect must consume every input factor")
        concat_kinds = self.input_sig.kinds + self.ancilla.sig.kinds
        for t, p in enumerate(pos):
            if concat_kinds[p] != self.effect.sig.kinds[t]:
                raise DomainError(
                    f"effect factor {t} ({self.effect.sig.kinds[t]}) wired to a "
                    f"{concat_kinds[p]} factor"
                )
        if len(pos) >= k_all:
            raise DomainError("the wiring leaves no output factor")

    @property
    def output_positions(self) -> tuple:
        k_in = self.input_sig.num_factors
        k_all = k_in + self.ancilla.sig.num_factors
        return tuple(t for t in range(k_all) if t not in self.effect_positions)


def conditional_evolution(spec: ConditionalEvolutionSpec, rho: DensityState) -> tuple:
    """Apply a conditional evolution; returns ``(prob, out_state_or_None)``."""
    if rho.sig != spec.input_sig:
        raise DomainError(f"input on {rho.sig} does not match the spec's {spec.input_sig}")
    dims = rho.sig.dims + spec.ancilla.sig.dims
    joint = np.kron(rho.matrix, spec.ancilla.matrix)
    raw = contract_effect(spec.effect.op, joint, spec.effect_positions, dims)
    prob = float(np.real(np.trace(raw)))
    if prob <= ZERO_ATOL:
        return max(prob, 0.0), None
    k_in = rho.sig.num_factors
    kinds = [spec.ancilla.sig.kinds[t - k_in] for t in spec.output_positions]
    out_sig = SystemSignature(rho.sig.d, kinds.count("D"), kinds.count("A"))
    return prob, DensityState(out_sig, raw / prob)


def choi_matrix(map_fn, dim_in: int) -> np.ndarray:
    """Block matrix ``sum_ij map(E_ij) x E_ij`` deciding complete positivity."""
    dim_out = np.asarray(map_fn(_unit_matrix(dim_in, 0, 0))).shape[0]
    # entry ((a, i), (b, j)) of the block matrix is map(E_ij)[a, b]: write each image in its slot
    choi = np.zeros((dim_out, dim_in, dim_out, dim_in), dtype=complex)
    for i in range(dim_in):
        for j in range(dim_in):
            choi[:, i, :, j] = map_fn(_unit_matrix(dim_in, i, j))
    return choi.reshape(dim_out * dim_in, dim_out * dim_in)


def _unit_matrix(dim, i, j):
    e = np.zeros((dim, dim), dtype=complex)
    e[i, j] = 1.0
    return e


def validate_transformation(
    map_fn, sig_in: SystemSignature, sig_out: SystemSignature, seed: int = 0
) -> ValidityReport:
    """Sampled channel check: complete positivity, trace behavior, validity.

    Complete positivity is decided exactly (smallest eigenvalue of the
    induced block matrix above ``-INPUT_ATOL``); trace non-increase and
    validity of the normalized outputs are checked on
    ``TRANSFORMATION_SAMPLES`` random valid mixed states drawn from
    ``seed``, so a passing report is flagged SAMPLED, not a proof.  An output whose validity cannot be decided fails the
    check with an ``UNDECIDED`` witness and a NON-EXHAUSTIVE flag.
    Linearity itself is spot-checked.
    """
    from .oracle import random_mixed_state

    rng = np.random.default_rng(seed)
    a = np.asarray(map_fn(_unit_matrix(sig_in.dim, 0, 0)), dtype=complex)
    b = np.asarray(map_fn(1j * _unit_matrix(sig_in.dim, 0, 0)), dtype=complex)
    if float(np.max(np.abs(1j * a - b))) > INPUT_ATOL:
        raise DomainError("map is not linear over the complex operator space")
    choi = choi_matrix(map_fn, sig_in.dim)
    lo = min_eigenvalue(choi)
    if lo < -INPUT_ATOL:
        return ValidityReport(False, -lo, witness="complete positivity", flags=("SAMPLED",))
    worst = max(0.0, -lo)
    for _ in range(TRANSFORMATION_SAMPLES):
        state, _cert = random_mixed_state(sig_in, rng)
        image = np.asarray(map_fn(state.matrix), dtype=complex)
        tr = float(np.real(np.trace(image)))
        if tr > 1 + DEFAULT_ATOL:
            return ValidityReport(False, tr - 1.0, witness="trace increase", flags=("SAMPLED",))
        if tr <= ZERO_ATOL:
            continue
        rep = validate_mixed_state(DensityState(sig_out, image / tr))
        if "NON-EXHAUSTIVE" in rep.flags:
            return ValidityReport(False, rep.residual, witness="UNDECIDED output state",
                                  flags=("SAMPLED", "NON-EXHAUSTIVE"))
        if not rep.valid:
            return ValidityReport(
                False, rep.residual, witness="invalid output state", flags=("SAMPLED",)
            )
        worst = max(worst, rep.residual)
    return ValidityReport(True, worst, witness="sampled channel check", flags=("SAMPLED",))
