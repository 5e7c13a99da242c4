"""Two-copy Bell-nonlocality activation.

Two copies of a (1, 1) state, held as (bit1, anti1) and (bit2, anti2),
are regrouped across the parties: Alice measures the pair
(bit1, anti2), Bob the pair (bit2, anti1).  In the canonical factor
order of the doubled composite [bit1, bit2, anti1, anti2], Alice's pair
sits at positions (0, 3) and Bob's at (1, 2); this wiring is built once
here and unit-tested, because silent index bugs live exactly at this
seam.

For the maximally entangled state the regrouped measurements reproduce
quantum two-qubit statistics exactly; for arbitrary entangled two-term
states the tilted measurements below give a CHSH value strictly above
2, in closed form.  That is the value of these measurements, not a
maximum over valid ones: on the uniform pair they give 1 + sqrt(2),
while the CHSH settings reach 2*sqrt(2) on the same two copies.

Every Bell quantity reads one correlator kernel: read as a d^2 x d^2
matrix ``M`` from Alice's pair (bit1, anti2) to Bob's (bit2, anti1), the
two-copy vector gives ``<psi| A (x) B |psi> = sum((M^H A M) * B)``, one
batched matmul and one contraction in O(d^6), on the observables
``E_0 - E_1`` for CHSH and activation and on the effects themselves for
``two_copy_distribution``; no operator is embedded in the doubled composite.

A side's effect operators come from one kernel, ``_side_operators``:
direction ``u`` collects, in each parity sector ``l``, the projector of
the zero-padded (1, 1) vector holding ``u_0`` and ``u_1`` at that
side's two slots of the sector, normalized by its own norm, and the two
projectors are summed into a zero 4 x 4.  Each operator is a rank-2
projector by construction, and a basis's two sum to the identity, so
neither is checked again: ``chsh_value`` symmetrizes the operators of
its eight directions in one stacked pass, ``two_copy_distribution``
those of its four, and ``side_effect`` wraps the same symmetrized
operator in an ``Effect`` stored as built.  No effect here carries a
certificate: on a (1, 1) composite the cell test of ``validate_effect``
is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .effects import Effect, Povm, projector_povms
from .errors import (
    DomainError,
    NormalizationError,
    NotEntangledError,
    ShapeError,
    ValidityError,
)
from .linalg import (
    DEFAULT_ATOL, INPUT_ATOL, permute_vector_factors, symmetrized, vector_norm,
)
from .states import validate_pure_state
from .systems import SystemSignature, as_integers, as_parity

ALICE_PAIR = (0, 3)
BOB_PAIR = (1, 2)
# per side and parity sector l, the basis indices (2 * bit + anti) that hold u_0 and u_1
_SECTOR_SLOTS = {"alice": ((0, 3), (1, 2)), "bob": ((0, 3), (2, 1))}


def phi_vector(d: int, i: int, j: int) -> np.ndarray:
    """Paired basis vector |i>|i+j mod d> on one (bit, anti-bit) pair."""
    i, j = as_integers((i, j), "labels")
    if not (0 <= i < d and 0 <= j < d):
        raise DomainError(f"labels ({i}, {j}) out of range for d={d}")
    v = np.zeros(d * d, dtype=complex)
    v[i * d + (i + j) % d] = 1.0
    return v


@dataclass(eq=False)
class LocalBasis:
    """Two orthonormal rows of 2-dim complex vectors (measurement directions).

    Rows given to the constructor have their Gram matrix checked; the rows of
    :meth:`rotation` are orthonormal by construction and stored through :meth:`_admitted`.
    """

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.shape != (2, 2):
            raise ShapeError(f"expected two rows of 2-vectors, got shape {v.shape}")
        # no entry of a unit row exceeds 1 in modulus, so the Gram cannot overflow; NaN fails
        if not (np.abs(v).max() <= 1 + DEFAULT_ATOL
                and float(np.max(np.abs(v @ v.conj().T - np.eye(2)))) <= DEFAULT_ATOL):
            raise DomainError("basis rows are not orthonormal")
        self.vectors = v

    @classmethod
    def _admitted(cls, vectors: np.ndarray) -> "LocalBasis":
        """The basis of complex rows ``vectors``, orthonormal by construction, stored as built."""
        basis = cls.__new__(cls)
        basis.vectors = vectors
        return basis

    @classmethod
    def computational(cls) -> "LocalBasis":
        return cls(np.eye(2))

    @classmethod
    def rotation(cls, angle: float) -> "LocalBasis":
        """Rows ``(cos, sin)`` and ``(-sin, cos)`` of a finite real ``angle``, read as a float."""
        if not (isinstance(angle, Real) and math.isfinite(angle)):
            raise DomainError(f"rotation angle must be a finite real number, got {angle!r}")
        c, s = np.cos(float(angle)), np.sin(float(angle))
        return cls._admitted(np.array([[c, s], [-s, c]], dtype=complex))


def side_effect(side: str, u) -> Effect:
    """Toy-theory effect simulating the local qubit direction ``u``.

    Alice's effect collects ``u_0 phi_0^{(l)} + u_1 phi_1^{(l)}`` over
    both sectors ``l``; Bob's collects ``u_0 phi_l^{(l)} + u_1
    phi_{l+1}^{(l)}``.  Either is a rank-2 projector on its (1, 1) pair,
    stored as built.
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    if u.size != 2:
        raise ShapeError(f"need a 2-vector, got length {u.size}")
    # no entry of a unit vector exceeds 1 in modulus, so the norm cannot overflow; NaN fails
    if not (np.abs(u).max() <= 1 + DEFAULT_ATOL and abs(np.linalg.norm(u) - 1.0) <= DEFAULT_ATOL):
        raise DomainError("direction vector must be normalized")
    if side not in ("alice", "bob"):
        raise DomainError(f"side must be 'alice' or 'bob', got {side!r}")
    op = symmetrized(_side_operators(side, u[None])[0])
    return Effect._admitted(SystemSignature(2, 1, 1), op, None)


def _side_operators(side: str, rows) -> np.ndarray:
    """Unchecked effect operators of ``side`` for the directions ``rows``, shape (k, 4, 4).

    The kernel of the module docstring; each padded vector is divided by its own
    :func:`~duoc.linalg.vector_norm` (``np.linalg.norm``'s arithmetic), as ``projector`` divides.
    """
    rows = np.asarray(rows, dtype=complex)
    ops = np.zeros((len(rows), 4, 4), dtype=complex)
    for slots in _SECTOR_SLOTS[side]:
        vecs = np.zeros((len(rows), 4), dtype=complex)
        vecs[:, slots] = rows
        vecs = vecs / np.array([vector_norm(v) for v in vecs])[:, None]
        ops += vecs[:, :, None] * vecs.conj()[:, None, :]
    return ops


def side_povm(side: str, basis: LocalBasis) -> Povm:
    """Two-outcome POVM from a local basis; its effects sum to I up to the basis's Gram defect."""
    return Povm._admitted([side_effect(side, row) for row in basis.vectors])


def p_quantum(v, w) -> float:
    """Quantum prediction |v_0 w_0 + v_1 w_1|^2 / 2 for the singlet-frame pair."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    if v.size != 2 or w.size != 2:
        raise ShapeError("p_quantum takes two 2-vectors")
    return float(abs(v[0] * w[0] + v[1] * w[1]) ** 2 / 2)


def two_copy_state(alphas, r: int) -> np.ndarray:
    """Vector of two copies of ``sum_i alpha_i |i>|i+r>`` in canonical order.

    Canonical factor order of the doubled composite is
    [bit1, bit2, anti1, anti2].
    """
    d, r, alphas = _pair_coefficients(alphas, r)
    x, v = np.arange(d), np.zeros((d,) * 4, dtype=complex)
    v[x[:, None], x, (x[:, None] + r) % d, (x + r) % d] = np.outer(alphas, alphas)
    return v.reshape(-1)


def _pair_coefficients(alphas, r) -> tuple:
    """``(d, r, alphas)`` of ``sum_i alpha_i |i>|i+r>``, the coefficients a complex vector,
    checked: ``d >= 2``, ``r`` a parity of ``d`` and unit norm within ``DEFAULT_ATOL``."""
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    if (d := alphas.size) < 2:
        raise DomainError("need local dimension >= 2")
    r = as_parity(r, d)
    if not abs(math.hypot(*np.abs(alphas)) - 1.0) <= DEFAULT_ATOL:  # no overflow; NaN fails
        raise NormalizationError("coefficients must be normalized")
    return d, r, alphas


def _pair_state_data(psi, expected_d=None):
    """Validate a (1, 1) vector and read off (d, parity, coefficient list)."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(psi.size)))
    if d * d != psi.size or d < 2:
        raise ShapeError(f"vector length {psi.size} is not a square of d >= 2")
    if expected_d is not None and d != expected_d:
        raise DomainError(f"expected local dimension {expected_d}, got {d}")
    sig = SystemSignature(d, 1, 1)
    rep = validate_pure_state(psi, sig)
    if not rep.valid:
        raise ValidityError(f"not a valid (1,1) pure state (residual {rep.residual})")
    r = rep.witness["parity"][0]
    alphas = np.array([psi[i * d + (i + r) % d] for i in range(d)])
    return d, r, alphas


def regroup_check(psi, d: int = None) -> float:
    """Residual of the two-copy regrouping identity for a valid (1, 1) state.

    The left side is the literal tensor square of ``psi`` (copies held
    as (bit1, anti1), (bit2, anti2)); the right side rebuilds it as a
    sum of paired basis products across the (bit1, anti2) / (bit2,
    anti1) grouping.  Exact algebraically, so the residual is numerical
    noise only.
    """
    d, r, alphas = _pair_state_data(psi, d)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    lhs_kron = np.kron(psi, psi)
    # kron order is [bit1, anti1, bit2, anti2]; canonical wants [bit1, bit2, anti1, anti2]
    lhs = permute_vector_factors(lhs_kron, (d,) * 4, (0, 2, 1, 3))
    # one scatter over (k, l); (k, l) -> (k, kp) is one-to-one, so no entry is hit twice
    k, l = np.arange(d)[:, None], np.arange(d)
    kp = (k + l - r) % d
    rhs = np.zeros((d,) * 4, dtype=complex)
    rhs[k, kp, (kp + 2 * r - l) % d, (k + l) % d] = alphas[k] * alphas[kp]
    return float(np.max(np.abs(lhs - rhs.reshape(-1))))


# two copies of the d = 2 maximally entangled pair, shared read-only by every CHSH call
_BELL_TWO_COPY = two_copy_state(np.array([1.0, 1.0]) / np.sqrt(2), 0)
_BELL_TWO_COPY.flags.writeable = False


def two_copy_distribution(alice_basis: LocalBasis, bob_basis: LocalBasis) -> np.ndarray:
    """Joint toy-theory distribution on two regrouped copies of the d=2 maximally entangled
    pair; equals ``p_quantum`` row by row.  ``p[a, b]`` is the correlator kernel on the
    ``side_effect`` operators of row ``a`` of Alice's basis and row ``b`` of Bob's."""
    return _correlators(_BELL_TWO_COPY, symmetrized(_side_operators("alice", alice_basis.vectors)),
                        symmetrized(_side_operators("bob", bob_basis.vectors)))


@dataclass(eq=False)
class ChshResult:
    """Four correlators and the CHSH combination F = E00+E01+E10-E11."""

    expectations: np.ndarray
    f_value: float


def chsh_value(alice_bases, bob_bases) -> ChshResult:
    """CHSH value of the regrouped two-copy experiment.

    ``alice_bases`` and ``bob_bases`` are pairs of LocalBasis (the two
    settings per side); outcome 0 of a setting counts as +1, outcome 1 as -1.
    The effect operators are those of ``side_effect``; no ``Effect`` or
    ``Povm`` object is built.
    """
    obs = [_side_observables("alice", alice_bases), _side_observables("bob", bob_bases)]
    return _chsh(_correlators(_BELL_TWO_COPY, *obs))


def _side_observables(side: str, bases) -> list:
    """``E_0 - E_1`` of each of a side's two settings."""
    try:
        bases = tuple(bases)
    except TypeError:
        bases = ()
    if len(bases) != 2 or not all(isinstance(b, LocalBasis) for b in bases):
        raise ShapeError(f"{side} needs exactly two LocalBasis settings")
    ops = symmetrized(_side_operators(side, np.concatenate([b.vectors for b in bases])))
    return [ops[0] - ops[1], ops[2] - ops[3]]


def optimal_chsh_bases() -> tuple:
    """Basis rotations achieving F = 2 sqrt(2): Alice (0, pi/4), Bob (pi/8, -pi/8)."""
    alice = (LocalBasis.rotation(0.0), LocalBasis.rotation(np.pi / 4))
    bob = (LocalBasis.rotation(np.pi / 8), LocalBasis.rotation(-np.pi / 8))
    return alice, bob


@dataclass(eq=False)
class ActivationSetup:
    """Measurements activating nonlocality of an arbitrary entangled pair.

    ``alpha_prime`` and ``beta_prime`` are the squares of the two
    dominant coefficients; ``theta`` obeys tan(theta) =
    2 a' b' / (a'^2 + b'^2).  ``alice`` and ``bob`` each hold two
    two-outcome POVMs on their regrouped (1, 1) pair.
    """

    d: int
    r: int
    coeffs: np.ndarray
    up_index: int
    down_index: int
    alpha_prime: float
    beta_prime: float
    theta: float
    alice: tuple
    bob: tuple

    def __post_init__(self):
        lhs = np.tan(self.theta) * (self.alpha_prime**2 + self.beta_prime**2)
        rhs = 2 * self.alpha_prime * self.beta_prime
        if not abs(lhs - rhs) <= DEFAULT_ATOL:  # NaN fails
            raise DomainError("theta does not satisfy the defining relation")


def activation_setup(alphas, r: int = 0) -> ActivationSetup:
    """Build the tilted CHSH measurements for ``sum_i alpha_i |i>|i+r>``.

    Coefficients are phase-normalized to nonnegative reals first.  The
    two largest coefficients carry the effective two-level pair; fewer
    than two nonzero coefficients means a product state, which cannot
    be activated.

    The POVMs are the :func:`~duoc.effects.projector_povms` of four
    ``v = c0|up> + c1|down>`` in sector ``r``.
    """
    d, r, alphas = _pair_coefficients(alphas, r)
    alphas = np.abs(alphas)
    if int(np.sum(alphas > 0)) < 2:
        raise NotEntangledError("activation needs at least two nonzero coefficients")
    order = np.argsort(-alphas, kind="stable")
    i_up, i_down = sorted(int(t) for t in order[:2])
    a_p = float(alphas[i_up] ** 2)
    b_p = float(alphas[i_down] ** 2)
    theta = float(np.arctan(2 * a_p * b_p / (a_p**2 + b_p**2)))
    sig = SystemSignature(d, 1, 1)
    up = phi_vector(d, i_up, r)
    down = phi_vector(d, i_down, r)
    c, s = np.cos(theta), np.sin(theta)
    nrm = np.sqrt(2 * c + 2)
    a0, a1, b0, b1 = projector_povms(sig, up, (up + down) * (1 / np.sqrt(2)),
                                     ((c + 1) * up + s * down) / nrm,
                                     ((c + 1) * up - s * down) / nrm)
    return ActivationSetup(
        d=d,
        r=r,
        coeffs=alphas,
        up_index=i_up,
        down_index=i_down,
        alpha_prime=a_p,
        beta_prime=b_p,
        theta=theta,
        alice=(a0, a1),
        bob=(b0, b1),
    )


def _signed_observable(povm: Povm) -> np.ndarray:
    """``E_0 - E_1`` of a two-outcome POVM: outcome 0 counts +1, outcome 1 counts -1."""
    return povm.effects[0].op - povm.effects[1].op


def _correlators(psi2, alice_ops, bob_ops) -> np.ndarray:
    """``E[x, y] = Re sum((M^H A_x M) * B_y)`` for two-copy vector ``psi2`` read as ``M``.

    Alice's operators (observables or effects) act on (bit1, anti2), Bob's
    on (bit2, anti1).
    """
    alice_ops, bob_ops = np.asarray(alice_ops), np.asarray(bob_ops)
    d = round(psi2.size**0.25)
    m = psi2.reshape(d, d, d, d).transpose(ALICE_PAIR + BOB_PAIR).reshape(d * d, d * d)
    return np.einsum("xjk,yjk->xy", m.conj().T @ alice_ops @ m, bob_ops).real


def _chsh(e) -> ChshResult:
    """A 2 x 2 correlator table ``E`` with its combination E00 + E01 + E10 - E11."""
    return ChshResult(e, float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]))


def activation_F(setup: ActivationSetup, psi=None) -> tuple:
    """Simulated and closed-form CHSH values for the activation setup.

    ``F_simulated`` evaluates the four correlators by the Born rule on
    the literal two-copy state; ``F_closed`` is the value of the same
    tilted measurements in closed form, not a maximum over valid
    measurements: 2 + 2(a'^2+b'^2)(sqrt(1 + 4a'^2b'^2/(a'^2+b'^2)^2) - 1).
    The two agree when the state is supported on the two dominant
    indices; for wider support only ``F_simulated`` is meaningful.
    """
    if psi is not None:
        _, pr, alphas = _pair_state_data(psi, setup.d)
        if pr != setup.r or float(np.max(np.abs(np.abs(alphas) - setup.coeffs))) > INPUT_ATOL:
            raise DomainError("state does not match the setup's coefficients")
    psi2 = two_copy_state(setup.coeffs, setup.r)
    obs = [[_signed_observable(p) for p in side] for side in (setup.alice, setup.bob)]
    f_sim = _chsh(_correlators(psi2, *obs)).f_value
    s = setup.alpha_prime**2 + setup.beta_prime**2
    f_closed = float(
        2 + 2 * s * (np.sqrt(1 + 4 * setup.alpha_prime**2 * setup.beta_prime**2 / s**2) - 1)
    )
    return f_sim, f_closed
