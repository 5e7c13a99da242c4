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
from .errors import DomainError, NotClassicalError, ShapeError
from .linalg import (
    DEFAULT_ATOL, INPUT_ATOL, ZERO_ATOL, as_operator, as_square, hermitian_part,
    off_diagonal_max, psd_defect, row_blocks, symmetrized, tensor_all,
)
from .states import (
    DensityState, ValidityReport, large_factor, product_order, product_state,
    validate_mixed_state,
)
from .systems import (
    MAX_COMPOSITE_DIM, FactorPermutation, SystemSignature, as_integers, phase_matrix,
)


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
    # src[i] is the basis index that the map sends to basis index i; each axis rolled by its
    # shift (np.roll), all in one gather
    src, d = np.arange(sig.dim).reshape(sig.dims), sig.d
    if spec.x_shifts:
        src = src[np.ix_(*[(np.arange(d) - j) % d for j in spec.x_shifts])]
    src = src.transpose(np.argsort(perm.destinations(sig.m, sig.n))).reshape(-1)
    phases = np.ones(sig.dim, dtype=complex)
    if spec.z_phases:  # the diagonal of the tensor product of the per-factor phases
        table = np.array([np.diag(phase_matrix(d, j)) for j in range(d)])
        phases = tensor_all(*table[np.mod(spec.z_phases, d)])
    return src, phases[src]


def apply_reversible(u: np.ndarray, rho: DensityState) -> DensityState:
    """Conjugate a state by a reversible unitary, by index gather in O(dim^2).

    Reversible maps are monomial: one entry of modulus 1 in each row and
    column.  ``u`` must be such a matrix within ``DEFAULT_ATOL`` (for a
    monomial matrix this is the unitarity test); any other matrix, a
    unitary that mixes basis states included, raises :class:`DomainError`.
    The result is ``(ph x conj(ph)) * rho[src][:, src]``.  ``u`` is read once, one
    :func:`~duoc.linalg.row_blocks` block of moduli at a time, with no dim x dim temporary; a
    non-finite entry in any block raises :class:`ShapeError` before any :class:`DomainError`.
    """
    mat = as_square(u)
    src, defect = np.empty(mat.shape[0], dtype=np.intp), 0.0
    for rows in row_blocks(mat.shape[0]):
        mag = np.abs(mat[rows])
        # the top modulus is non-finite if an entry is, or if a finite entry's modulus overflows
        if not np.isfinite(mag.max()) and not np.all(np.isfinite(mat[rows])):
            raise ShapeError("matrix contains non-finite entries")
        peak = np.arange(len(mag)), np.argmax(mag, axis=1)  # u[i, src[i]]: row i's one entry
        src[rows] = peak[1]
        defect = max(defect, float(np.max(np.abs(mag[peak] - 1.0))))
        mag[peak] = 0.0
        defect = max(defect, float(np.max(mag)))
    del mag  # released before the conjugation allocates
    if np.unique(src).size != src.size or defect > DEFAULT_ATOL:
        raise DomainError(f"transformation matrix is not a monomial unitary (defect {defect})")
    if mat.shape[0] != rho.sig.dim:
        raise ShapeError("unitary dimension does not match the state")
    return _conjugate_monomial(src, mat[np.arange(src.size), src], rho)


def _conjugate_monomial(src, ph, rho: DensityState) -> DensityState:
    """``u rho u^H`` for the monomial ``u`` with entries ``u[i, src[i]] = ph[i]``, by gather,
    stored symmetrized; a conjugation of an admitted state needs no positivity decision.  A
    state of :func:`~duoc.states.large_factor` ``F`` maps to the factor ``ph * F[src]``."""
    if (factor := large_factor(rho)) is not None:
        return DensityState._factored(rho.sig, ph[:, None] * factor[src])
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
    """Block matrix ``sum_ij map(E_ij) x E_ij`` deciding complete positivity, of finite images of
    one square shape: the first image's, each checked before it is written (no broadcast).  One
    call per ``E_ij``; above ``MAX_COMPOSITE_DIM`` refused after the first, before allocation."""
    first = as_operator(map_fn(_unit_matrix(dim_in, 0, 0)))
    if (side := len(first) * dim_in) > MAX_COMPOSITE_DIM:
        raise DomainError(f"Choi matrix dimension {side} exceeds cap {MAX_COMPOSITE_DIM}")
    # entry ((a, i), (b, j)) of the block matrix is map(E_ij)[a, b]: write each image in its slot
    choi = np.zeros((len(first), dim_in) * 2, dtype=complex)
    for i in range(dim_in):
        for j in range(dim_in):
            image = np.asarray(map_fn(_unit_matrix(dim_in, i, j)) if i or j else first, complex)
            if image.shape != first.shape:
                raise ShapeError(f"images of shapes {image.shape} and {first.shape}")
            choi[:, i, :, j] = image
    # one finiteness check over every image
    return as_operator(choi.reshape(side, side))


def _unit_matrix(dim, i, j):
    e = np.zeros((dim, dim), dtype=complex)
    e[i, j] = 1.0
    return e


def validate_transformation(
    map_fn, sig_in: SystemSignature, sig_out: SystemSignature, seed: int = 0
) -> ValidityReport:
    """Exact channel check: ``map_fn`` from ``(m, n)`` to ``(m', n')`` is completely valid (it
    maps valid states to valid states, also acting on part of a larger composite) and does not
    increase the trace exactly when its Choi state is valid and ``T = Tr_out(choi) <= I``.

    ``choi = sum_ij map(E_ij) x E_ij`` (:func:`choi_matrix`) acts on the output and a copy ``R``
    of the input whose dits are the input's anti-dits and whose anti-dits its dits.  Over its
    trace, laid out as output dits, ``R``'s dits, output anti-dits, ``R``'s anti-dits, it is the
    Choi state ``C`` on ``(m' + n, n' + m)``.

    *Only if.*  ``Omega``, the product over input factors of ``sum_i |i>|i> / sqrt(d)``, pairs
    each input factor with its copy in ``R`` at parity 0, so it is a valid pure state, and ``C``
    is ``(map x id_R)(|Omega><Omega|)`` up to weight: a completely valid map keeps it valid.

    *If.*  For a valid state ``sigma`` of the input and an environment, ``<Omega| C x sigma
    |Omega>`` over ``R`` and the input is ``(map x id)(sigma) / dim_in^2`` up to weight: the
    conditional state of a product of valid states on a valid pure effect, valid because each
    branch of a valid pure state under a valid pure effect lies on one cell (what
    ``run conditional`` samples).  And ``tr map(rho) = tr(T^T rho) <= tr rho`` for every
    ``rho >= 0`` exactly when ``T <= I``.

    The first failing check decides, in this order.  A probe of unit-modulus entries drawn
    from ``seed`` whose image is not ``sum_ij probe_ij map(E_ij)`` within ``INPUT_ATOL`` raises
    :class:`DomainError`.  Then the Choi matrix's ``Hermiticity`` defect is held to
    ``INPUT_ATOL``.  One :func:`~duoc.linalg.psd_defect` of its Hermitian part, at
    ``min(INPUT_ATOL, max(tr, ZERO_ATOL) * DEFAULT_ATOL)``, decides ``complete positivity`` at
    ``INPUT_ATOL`` and, after ``trace increase`` (``lambda_max(T) - 1`` held to ``DEFAULT_ATOL``),
    ``C``'s admission as :class:`DensityState` admits one: Hermitian and eigenvalue defects over
    ``tr`` at ``DEFAULT_ATOL``, else ``invalid Choi state`` (``tr <= ZERO_ATOL`` passes as the
    ``zero map``).  Its low-rank factor, if any, over ``sqrt(tr)`` is ``C``'s, which
    :func:`~duoc.states.validate_mixed_state` reads to decide ``C``: a pass is ``Choi state``, an
    unflagged rejection ``invalid Choi state``, and an undecided membership
    ``UNDECIDED Choi state``, flagged ``NON-EXHAUSTIVE``, never a pass.  A pass's residual also
    counts the Choi matrix's ``-lambda_min`` when neither its low-rank factor nor Cholesky
    settled it.  A Choi state above ``MAX_COMPOSITE_DIM``, or two local dimensions, is refused
    before the map is called.
    """
    if sig_in.d != sig_out.d:
        raise DomainError(f"local dimensions {sig_in.d} and {sig_out.d} differ")
    sig_c = SystemSignature(sig_in.d, sig_out.m + sig_in.n, sig_out.n + sig_in.m)
    choi = choi_matrix(map_fn, sig_in.dim)
    if choi.shape[0] != sig_c.dim:
        raise ShapeError(f"image dim {choi.shape[0] // sig_in.dim} != composite dimension "
                         f"{sig_out.dim}")
    blocks = choi.reshape(sig_out.dim, sig_in.dim, sig_out.dim, sig_in.dim)
    probe = np.exp(2j * np.pi * np.random.default_rng(seed).random((sig_in.dim,) * 2))
    image = np.asarray(map_fn(probe), dtype=complex)
    if image.shape != (sig_out.dim,) * 2 or not (
            np.max(np.abs(image - np.einsum("aibj,ij->ab", blocks, probe))) <= INPUT_ATOL):
        raise DomainError("map is not linear over the complex operator space")
    sym, defect = hermitian_part(choi)
    if defect > INPUT_ATOL:
        return ValidityReport(False, defect, witness="Hermiticity")
    # a cheap path settled at this tolerance proves INPUT_ATOL for choi, DEFAULT_ATOL for C
    tr = float(np.real(np.trace(sym)))
    worst, factor = psd_defect(sym, min(INPUT_ATOL, max(tr, ZERO_ATOL) * DEFAULT_ATOL))
    if worst > INPUT_ATOL:
        return ValidityReport(False, worst, witness="complete positivity")
    gain = float(np.linalg.eigvalsh(np.trace(sym.reshape(blocks.shape), axis1=0, axis2=2))[-1])
    if gain - 1.0 > DEFAULT_ATOL:
        return ValidityReport(False, gain - 1.0, witness="trace increase")
    if tr <= ZERO_ATOL:
        return ValidityReport(True, worst, witness="zero map")
    # C's admission: its Hermitian and eigenvalue defects are the Choi matrix's over tr
    if (short := max(defect, worst) / tr) > DEFAULT_ATOL:
        return ValidityReport(False, short, witness="invalid Choi state")
    # row q of C is row order[q] of choi: output dits, input anti-dits, output anti-dits, input dits
    d = sig_in.d
    order = np.arange(sig_c.dim).reshape(d**sig_out.m, d**sig_out.n, d**sig_in.m, d**sig_in.n)
    order = order.transpose(0, 3, 1, 2).ravel()
    factor = None if factor is None else factor[order] / np.sqrt(tr)
    c = DensityState._admitted(sig_c, sym[np.ix_(order, order)] * (1.0 / tr), factor)
    rep = validate_mixed_state(c)
    if not rep.valid:
        what = "UNDECIDED" if "NON-EXHAUSTIVE" in rep.flags else "invalid"
        return ValidityReport(False, rep.residual, witness=f"{what} Choi state", flags=rep.flags)
    return ValidityReport(True, max(worst, rep.residual), witness="Choi state")
