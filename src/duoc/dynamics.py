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

from .effects import Effect, check_wiring, conditional_state
from .errors import DensityMatrixError, DomainError, NotClassicalError, ShapeError
from .linalg import (
    DEFAULT_ATOL, INPUT_ATOL, ZERO_ATOL, as_operator, hermitian_part, off_diagonal_max,
    psd_defect, symmetrized, tensor_all,
)
from .states import (
    DensityState, ValidityReport, draw_mixture, product_order, product_state,
    validate_mixed_state,
)
from .systems import FactorPermutation, SystemSignature, as_integers, phase_matrix

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
        self.x_shifts = as_integers(self.x_shifts, "x_shifts")
        self.z_phases = as_integers(self.z_phases, "z_phases")


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
    """``u rho u^H`` for the monomial ``u`` with entries ``u[i, src[i]] = ph[i]``, by gather,
    stored symmetrized; a conjugation of an admitted state needs no positivity decision."""
    out = rho.matrix.take(src, 0).take(src, 1)
    np.multiply(ph[:, None], out, out=out)  # operand order kept: complex products round by it
    out *= ph.conj()
    return DensityState._admitted(rho.sig, symmetrized(out))


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
    ``joint_positions`` is this wiring on the product (:func:`~duoc.states.product_order`).
    """

    input_sig: SystemSignature
    ancilla: DensityState
    effect: Effect
    effect_positions: tuple

    def __post_init__(self):
        self.effect_positions = pos = as_integers(self.effect_positions)
        ins, anc = self.input_sig, self.ancilla.sig
        if ins.d != anc.d:
            raise DomainError("local dimensions of input and ancilla differ")
        if not set(range(ins.num_factors)) <= set(pos):
            raise DomainError("the effect must consume every input factor")
        joint = SystemSignature(ins.d, ins.m + anc.m, ins.n + anc.n)
        # a position outside the concatenation stays outside the product
        where = {t: q for q, t in enumerate(product_order(ins, anc))}
        self.joint_positions = check_wiring(joint, self.effect.sig, [where.get(p, p) for p in pos])

    @property
    def output_positions(self) -> tuple:
        k_all = self.input_sig.num_factors + self.ancilla.sig.num_factors
        return tuple(t for t in range(k_all) if t not in self.effect_positions)


def conditional_evolution(spec: ConditionalEvolutionSpec, rho: DensityState) -> tuple:
    """Apply a conditional evolution, the conditional state of the product of ``rho`` and the
    ancilla; returns ``(prob, out_state_or_None)``."""
    if rho.sig != spec.input_sig:
        raise DomainError(f"input on {rho.sig} does not match the spec's {spec.input_sig}")
    return conditional_state(product_state(rho, spec.ancilla), spec.effect, spec.joint_positions)


def choi_matrix(map_fn, dim_in: int) -> np.ndarray:
    """Block matrix ``sum_ij map(E_ij) x E_ij`` deciding complete positivity, of finite images
    of one square shape: the first image's, each checked before it is written (no broadcast)."""
    shape = as_operator(map_fn(_unit_matrix(dim_in, 0, 0))).shape
    # entry ((a, i), (b, j)) of the block matrix is map(E_ij)[a, b]: write each image in its slot
    choi = np.zeros((shape[0], dim_in, shape[0], dim_in), dtype=complex)
    for i in range(dim_in):
        for j in range(dim_in):
            image = np.asarray(map_fn(_unit_matrix(dim_in, i, j)), dtype=complex)
            if image.shape != shape:
                raise ShapeError(f"images of shapes {image.shape} and {shape}")
            choi[:, i, :, j] = image
    # one finiteness check over every image
    return as_operator(choi.reshape(shape[0] * dim_in, shape[0] * dim_in))


def _unit_matrix(dim, i, j):
    e = np.zeros((dim, dim), dtype=complex)
    e[i, j] = 1.0
    return e


def validate_transformation(
    map_fn, sig_in: SystemSignature, sig_out: SystemSignature, seed: int = 0
) -> ValidityReport:
    """Sampled channel check: complete positivity, trace behavior, validity.

    Complete positivity is decided as a state's positivity is, by
    :func:`~duoc.linalg.psd_defect` at ``INPUT_ATOL`` on the Hermitian part
    of the Choi matrix, whose rank-1 form for a reversible map its low-rank
    factor settles; a rejection's residual is ``-lambda_min``.  Trace
    non-increase and validity of the normalized outputs are checked on up to
    ``TRANSFORMATION_SAMPLES`` random valid mixed states, drawn one at a time
    from ``seed`` as consecutive :func:`~duoc.states.random_mixed_state` calls
    draw them, so a passing report is flagged SAMPLED, not a proof.  An output
    whose validity cannot be decided fails the check at that sample, with an
    ``UNDECIDED`` witness and a NON-EXHAUSTIVE flag; one that is no density
    matrix at ``DEFAULT_ATOL`` fails as an invalid output state, though the
    Choi matrix passed at ``INPUT_ATOL``.  Linearity itself is spot-checked.
    A passing report's residual is the largest residual of the output checks,
    and includes the Choi matrix's rounding-level ``-lambda_min`` only if
    neither the factor nor the Cholesky settled it.
    """
    rng = np.random.default_rng(seed)
    a = np.asarray(map_fn(_unit_matrix(sig_in.dim, 0, 0)), dtype=complex)
    b = np.asarray(map_fn(1j * _unit_matrix(sig_in.dim, 0, 0)), dtype=complex)
    if float(np.max(np.abs(1j * a - b))) > INPUT_ATOL:
        raise DomainError("map is not linear over the complex operator space")
    choi = hermitian_part(choi_matrix(map_fn, sig_in.dim))[0]
    if (worst := psd_defect(choi, INPUT_ATOL)) > INPUT_ATOL:
        return ValidityReport(False, worst, witness="complete positivity", flags=("SAMPLED",))
    for _ in range(TRANSFORMATION_SAMPLES):
        state = draw_mixture(sig_in, rng)[0]
        image = np.asarray(map_fn(state.matrix), dtype=complex)
        tr = float(np.real(np.trace(image)))
        if tr > 1 + DEFAULT_ATOL:
            return ValidityReport(False, tr - 1.0, witness="trace increase", flags=("SAMPLED",))
        if tr <= ZERO_ATOL:
            continue
        try:
            rep = validate_mixed_state(DensityState(sig_out, image / tr))
        except DensityMatrixError:  # its Hermitian or eigenvalue defect is the residual
            sym, defect = hermitian_part(image / tr)
            return ValidityReport(False, max(defect, psd_defect(sym, DEFAULT_ATOL)),
                                  witness="invalid output state", flags=("SAMPLED",))
        if "NON-EXHAUSTIVE" in rep.flags:
            return ValidityReport(False, rep.residual, witness="UNDECIDED output state",
                                  flags=("SAMPLED", "NON-EXHAUSTIVE"))
        if not rep.valid:
            return ValidityReport(
                False, rep.residual, witness="invalid output state", flags=("SAMPLED",)
            )
        worst = max(worst, rep.residual)
    return ValidityReport(True, worst, witness="sampled channel check", flags=("SAMPLED",))
