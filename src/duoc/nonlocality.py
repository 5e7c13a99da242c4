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
2, with a closed form for the maximum.

CHSH and activation share one correlator kernel: read as a d^2 x d^2
matrix ``M`` from Alice's pair (bit1, anti2) to Bob's (bit2, anti1),
the two-copy vector gives ``<psi| A (x) B |psi> = sum((M^H A M) * B)``,
one batched matmul and one contraction in O(d^6).
``two_copy_distribution`` stays the literal Born-rule reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effects import Effect, Povm
from .errors import (
    DomainError,
    NormalizationError,
    NotEntangledError,
    ShapeError,
    ValidityError,
)
from .linalg import (
    DEFAULT_ATOL, INPUT_ATOL, ZERO_ATOL, embed_operator, permute_vector_factors, projector,
)
from .states import (
    PureStateSpec,
    basis_state_spec,
    build_pure_state,
    cross_sector_mass,
    validate_pure_state,
)
from .systems import SystemSignature, digits_to_index

ALICE_PAIR = (0, 3)
BOB_PAIR = (1, 2)


def phi_vector(d: int, i: int, j: int, placement=None) -> np.ndarray:
    """Paired basis vector |i>|i+j mod d> on one (bit, anti-bit) pair.

    ``placement`` optionally embeds the pair into a larger composite:
    a tuple ``(bit_pos, anti_pos, num_factors)``.
    """
    if not (0 <= i < d and 0 <= j < d):
        raise DomainError(f"labels ({i}, {j}) out of range for d={d}")
    if placement is None:
        v = np.zeros(d * d, dtype=complex)
        v[i * d + (i + j) % d] = 1.0
        return v
    bit_pos, anti_pos, nfac = placement
    if bit_pos == anti_pos or not (0 <= bit_pos < nfac and 0 <= anti_pos < nfac):
        raise DomainError(f"placement {placement} is not two distinct positions")
    digits = [0] * nfac
    digits[bit_pos] = i
    digits[anti_pos] = (i + j) % d
    v = np.zeros(d**nfac, dtype=complex)
    v[digits_to_index(digits, d)] = 1.0
    return v


@dataclass(frozen=True)
class PairedBasis:
    """Label (i, parity) of a paired basis vector, with side bookkeeping."""

    i: int
    parity: int
    bit_label: str = "B1"
    anti_label: str = "A2"

    def vector(self, d: int) -> np.ndarray:
        return phi_vector(d, self.i, self.parity)


@dataclass(eq=False)
class LocalBasis:
    """Orthonormal rows of 2-dim complex vectors (measurement directions)."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[1] != 2 or not 1 <= v.shape[0] <= 2:
            raise ShapeError(f"expected (k, 2) rows with k in 1..2, got {v.shape}")
        gram = v @ v.conj().T
        if not float(np.max(np.abs(gram - np.eye(v.shape[0])))) <= DEFAULT_ATOL:  # NaN fails
            raise DomainError("basis rows are not orthonormal")
        self.vectors = v

    @classmethod
    def computational(cls) -> "LocalBasis":
        return cls(np.eye(2))

    @classmethod
    def rotation(cls, angle: float) -> "LocalBasis":
        c, s = np.cos(angle), np.sin(angle)
        return cls(np.array([[c, s], [-s, c]]))


def side_effect(side: str, u) -> Effect:
    """Toy-theory effect simulating the local qubit direction ``u``.

    Alice's effect collects ``u_0 phi_0^{(l)} + u_1 phi_1^{(l)}`` over
    both sectors ``l``; Bob's collects ``u_0 phi_l^{(l)} + u_1
    phi_{l+1}^{(l)}``.  Either is a rank-2 projector on its (1, 1) pair
    and carries its construction as a certificate.
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    if u.size != 2:
        raise ShapeError(f"need a 2-vector, got length {u.size}")
    if not abs(np.linalg.norm(u) - 1.0) <= DEFAULT_ATOL:  # NaN fails
        raise DomainError("direction vector must be normalized")
    if side not in ("alice", "bob"):
        raise DomainError(f"side must be 'alice' or 'bob', got {side!r}")
    sig = SystemSignature(2, 1, 1)
    cert = []
    op = np.zeros((4, 4), dtype=complex)
    for sector in range(2):
        if side == "alice":
            coeffs = {(0,): u[0], (1,): u[1]}
        else:
            coeffs = {(sector,): u[0], ((sector + 1) % 2,): u[1]}
        spec = PureStateSpec(sig, coeffs, parity=(sector,))
        cert.append((1.0, spec))
        op += projector(build_pure_state(spec))
    return Effect(sig, op, certificate=cert)


def side_povm(side: str, basis: LocalBasis) -> Povm:
    """Two-outcome POVM from a full local basis; the effects sum to I."""
    if basis.vectors.shape[0] != 2:
        raise DomainError("a complete two-outcome measurement needs 2 basis rows")
    return Povm([side_effect(side, row) for row in basis.vectors])


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
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    d = alphas.size
    if d < 2:
        raise DomainError("need local dimension >= 2")
    if not (0 <= r < d):
        raise DomainError(f"parity {r} out of range for d={d}")
    if not abs(np.linalg.norm(alphas) - 1.0) <= DEFAULT_ATOL:  # NaN fails
        raise NormalizationError("coefficients must be normalized")
    x, v = np.arange(d), np.zeros((d,) * 4, dtype=complex)
    v[x[:, None], x, (x[:, None] + r) % d, (x + r) % d] = np.outer(alphas, alphas)
    return v.reshape(-1)


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


def two_copy_distribution(alice_basis: LocalBasis, bob_basis: LocalBasis) -> np.ndarray:
    """Joint toy-theory distribution on two regrouped copies of the d=2
    maximally entangled pair; equals ``p_quantum`` row by row."""
    pa = side_povm("alice", alice_basis)
    pb = side_povm("bob", bob_basis)
    psi2 = two_copy_state(np.array([1.0, 1.0]) / np.sqrt(2), 0)
    dims = (2,) * 4
    out = np.zeros((2, 2))
    for a, ea in enumerate(pa.effects):
        full_a = embed_operator(ea.op, ALICE_PAIR, dims)
        for b, eb in enumerate(pb.effects):
            full_b = embed_operator(eb.op, BOB_PAIR, dims)
            out[a, b] = float(np.real(psi2.conj() @ (full_a @ (full_b @ psi2))))
    return out


@dataclass(eq=False)
class ChshResult:
    """Four correlators and the CHSH combination F = E00+E01+E10-E11."""

    expectations: np.ndarray
    f_value: float


def chsh_value(alice_bases, bob_bases, alice_signs=(1, -1), bob_signs=(1, -1)) -> ChshResult:
    """CHSH value of the regrouped two-copy experiment.

    ``alice_bases`` and ``bob_bases`` are pairs of LocalBasis (the two
    settings per side); outcome ``a`` of a setting contributes with
    ``alice_signs[a]`` (and likewise for Bob).
    """
    alice_obs = [_signed_observable(side_povm("alice", b), alice_signs) for b in alice_bases]
    bob_obs = [_signed_observable(side_povm("bob", b), bob_signs) for b in bob_bases]
    psi2 = two_copy_state(np.array([1.0, 1.0]) / np.sqrt(2), 0)
    return _chsh(_correlators(psi2, alice_obs, bob_obs))


def optimal_chsh_bases() -> tuple:
    """Basis rotations achieving F = 2 sqrt(2): Alice (0, pi/4), Bob (pi/8, -pi/8)."""
    alice = (LocalBasis.rotation(0.0), LocalBasis.rotation(np.pi / 4))
    bob = (LocalBasis.rotation(np.pi / 8), LocalBasis.rotation(-np.pi / 8))
    return alice, bob


def pair_effect_from_operator(op, d: int) -> Effect:
    """Effect on a (1, 1) composite with a certificate from its sector blocks.

    Requires ``op`` parity-block-diagonal (cross-sector mass at most
    ``ZERO_ATOL``); each block's spectral decomposition provides the
    certificate entries.
    """
    sig = SystemSignature(d, 1, 1)
    op = np.asarray(op, dtype=complex)
    worst = cross_sector_mass(op, d)
    if worst > ZERO_ATOL:
        raise DomainError(f"operator couples parity sectors (mass {worst})")
    cert = []
    for k in range(d):
        inds = [i * d + (i + k) % d for i in range(d)]
        block = op[np.ix_(inds, inds)]
        vals, vecs = np.linalg.eigh(block)
        for pos in range(d):
            if vals[pos] > ZERO_ATOL:
                coeffs = {(i,): vecs[i, pos] for i in range(d)}
                cert.append((float(vals[pos]), PureStateSpec(sig, coeffs, parity=(k,))))
    return Effect(sig, op, certificate=cert or None)


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
        if abs(lhs - rhs) > DEFAULT_ATOL:
            raise DomainError("theta does not satisfy the defining relation")


def activation_setup(alphas, r: int = 0) -> ActivationSetup:
    """Build the tilted CHSH measurements for ``sum_i alpha_i |i>|i+r>``.

    Coefficients are phase-normalized to nonnegative reals first.  The
    two largest coefficients carry the effective two-level pair; fewer
    than two nonzero coefficients means a product state, which cannot
    be activated.

    Each POVM is ``{|v><v|, I - |v><v|}`` with ``v = c0|up> + c1|down>``
    in sector ``r``.  The complement is certified from its construction,
    all weights 1: the sector-``r`` partner ``-conj(c1)|up> +
    conj(c0)|down>`` plus every other paired basis state (the d - 2
    remaining ones of sector ``r`` and all those of the other sectors),
    a list built once and shared by the four complements.
    """
    alphas = np.abs(np.asarray(alphas, dtype=complex)).astype(float)
    d = alphas.size
    if d < 2:
        raise DomainError("need local dimension >= 2")
    if not (0 <= r < d):
        raise DomainError(f"parity {r} out of range for d={d}")
    if not abs(np.linalg.norm(alphas) - 1.0) <= DEFAULT_ATOL:  # NaN fails
        raise NormalizationError("coefficients must be normalized")
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
    eye = np.eye(d * d, dtype=complex)
    others = [(1.0, basis_state_spec(sig, (i, (i + k) % d)))
              for k in range(d) for i in range(d) if k != r or i not in (i_up, i_down)]

    def two_outcome(vec, c0, c1):
        spec = PureStateSpec(sig, {(i_up,): c0, (i_down,): c1}, parity=(r,))
        plus = Effect(sig, projector(vec), certificate=[(1.0, spec)])
        partner = PureStateSpec(sig, {(i_up,): -np.conj(c1), (i_down,): np.conj(c0)}, parity=(r,))
        minus = Effect(sig, eye - plus.op, certificate=[(1.0, partner)] + others)
        return Povm([plus, minus])

    inv_sqrt2 = 1 / np.sqrt(2)
    a0 = two_outcome(up, 1.0, 0.0)
    a1 = two_outcome((up + down) * inv_sqrt2, inv_sqrt2, inv_sqrt2)
    c, s = np.cos(theta), np.sin(theta)
    nrm = np.sqrt(2 * c + 2)
    b0 = two_outcome(((c + 1) * up + s * down) / nrm, (c + 1) / nrm, s / nrm)
    b1 = two_outcome(((c + 1) * up - s * down) / nrm, (c + 1) / nrm, -s / nrm)
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


def _signed_observable(povm: Povm, signs=(1, -1)) -> np.ndarray:
    """``sum_a signs[a] E_a`` over the outcomes of a two-outcome POVM."""
    return signs[0] * povm.effects[0].op + signs[1] * povm.effects[1].op


def _correlators(psi2, alice_obs, bob_obs) -> np.ndarray:
    """``E[x, y] = Re sum((M^H A_x M) * B_y)`` for two-copy vector ``psi2`` read as ``M``.

    Alice's observables act on (bit1, anti2), Bob's on (bit2, anti1).
    """
    alice_obs, bob_obs = np.asarray(alice_obs), np.asarray(bob_obs)
    d = round(psi2.size**0.25)
    m = psi2.reshape(d, d, d, d).transpose(0, 3, 1, 2).reshape(d * d, d * d)
    return np.einsum("xjk,yjk->xy", m.conj().T @ alice_obs @ m, bob_obs).real


def _chsh(e) -> ChshResult:
    """A 2 x 2 correlator table ``E`` with its combination E00 + E01 + E10 - E11."""
    return ChshResult(e, float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]))


def activation_F(setup: ActivationSetup, psi=None) -> tuple:
    """Simulated and closed-form CHSH values for the activation setup.

    ``F_simulated`` evaluates the four correlators by the Born rule on
    the literal two-copy state; ``F_closed`` is the analytic maximum
    2 + 2(a'^2+b'^2)(sqrt(1 + 4a'^2b'^2/(a'^2+b'^2)^2) - 1).  The two
    agree when the state is supported on the two dominant indices; for
    wider support only ``F_simulated`` is meaningful.
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
