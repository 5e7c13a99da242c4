"""Effects, POVMs, Born-rule probabilities and conditional states.

Valid effects are nonnegative combinations of projectors onto valid
pure states, bounded above by the identity.  For a (1, 1) composite
this cone is exactly the parity-block-diagonal PSD operators below the
identity; for larger composites validity is certified constructively.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DegenerateInputError, DomainError, ShapeError
from .linalg import (
    DEFAULT_ATOL,
    ZERO_ATOL,
    contract_effect,
    hermitian_part,
    projector,
)
from .states import (
    DensityState,
    PureStateSpec,
    SeparableSpec,
    ValidityReport,
    basis_state_spec,
    build_pure_state,
    validate_cone_member,
)
from .systems import SystemSignature


@dataclass(eq=False)
class Effect:
    """Positive operator with ``0 <= op <= I``, optionally certified.

    ``certificate`` is a list of ``(weight, PureStateSpec)`` pairs with
    nonnegative weights whose projector combination reconstructs ``op``.
    """

    sig: SystemSignature
    op: np.ndarray
    certificate: list = None

    def __post_init__(self):
        # hermitian_part coerces the input and checks it is finite and square
        mat, defect = hermitian_part(self.op)
        if mat.shape[0] != self.sig.dim:
            raise ShapeError(f"effect dim {mat.shape[0]} != composite dimension {self.sig.dim}")
        if defect > DEFAULT_ATOL:
            raise DomainError(f"effect is not Hermitian (defect {defect})")
        lo, hi = (float(w) for w in np.linalg.eigvalsh(mat)[[0, -1]])
        if lo < -DEFAULT_ATOL or hi > 1 + DEFAULT_ATOL:
            raise DomainError(f"effect eigenvalues [{lo}, {hi}] outside [0, 1]")
        self.op = mat


@dataclass(eq=False)
class Povm:
    """Ordered list of effects on one composite, summing to the identity."""

    effects: list

    def __post_init__(self):
        if not self.effects:
            raise DegenerateInputError("a POVM needs at least one effect")
        sig = self.effects[0].sig
        if any(e.sig != sig for e in self.effects):
            raise DomainError("all effects of a POVM must share one signature")
        total = sum(e.op for e in self.effects)
        defect = float(np.max(np.abs(total - np.eye(sig.dim))))
        if defect > DEFAULT_ATOL:
            raise DomainError(f"effects do not sum to identity (defect {defect})")

    @property
    def sig(self) -> SystemSignature:
        return self.effects[0].sig

    def __len__(self):
        return len(self.effects)


def validate_effect(e: Effect) -> ValidityReport:
    """Membership check for the effect cone.

    A certificate, when present, is verified by reconstruction.  On a
    (1, 1) composite the check is exact: parity-block-diagonal plus the
    spectral bounds already enforced at construction.  On classical and
    anti-classical composites diagonality is exact as well.  Otherwise
    the eigendecomposition is tried as a candidate certificate and a
    failure is flagged NON-EXHAUSTIVE.
    """
    return validate_cone_member(e.sig, e.op, e.certificate)


def born_probabilities(povm: Povm, rho: DensityState) -> np.ndarray:
    """Outcome probabilities ``p_i = Tr(P_i rho)``."""
    if povm.sig != rho.sig:
        raise DomainError(f"POVM on {povm.sig} cannot measure a state on {rho.sig}")
    probs = np.array([float(np.real(np.trace(e.op @ rho.matrix))) for e in povm.effects])
    if np.min(probs) < -DEFAULT_ATOL or abs(np.sum(probs) - 1.0) > DEFAULT_ATOL:
        raise DomainError(f"Born probabilities {probs} violate normalization")
    return probs


def conditional_state(rho: DensityState, e: Effect, positions) -> tuple:
    """Outcome probability and post-measurement state on the rest.

    ``positions`` lists the factor positions of ``rho`` consumed by the
    effect, one per effect factor and kind-matching (dit to dit,
    anti-dit to anti-dit).  The probability is ``Tr((E_S x I) rho)``;
    branches at or below probability ``ZERO_ATOL`` return ``(prob, None)`` rather
    than renormalizing noise.
    """
    sig = rho.sig
    positions = tuple(int(p) for p in positions)
    if len(positions) != e.sig.num_factors or len(set(positions)) != len(positions):
        raise DomainError(f"need {e.sig.num_factors} distinct positions, got {positions}")
    if any(p < 0 or p >= sig.num_factors for p in positions):
        raise DomainError(f"positions {positions} outside the composite")
    if len(positions) >= sig.num_factors:
        raise DomainError("the effect must leave at least one factor unmeasured")
    if e.sig.d != sig.d:
        raise DomainError("local dimensions differ")
    for t, p in enumerate(positions):
        if sig.kinds[p] != e.sig.kinds[t]:
            raise DomainError(
                f"effect factor {t} ({e.sig.kinds[t]}) wired to a {sig.kinds[p]} factor"
            )
    raw = contract_effect(e.op, rho.matrix, positions, sig.dims)
    prob = float(np.real(np.trace(raw)))
    if prob <= ZERO_ATOL:
        return max(prob, 0.0), None
    keep = tuple(t for t in range(sig.num_factors) if t not in positions)
    return prob, DensityState(sig.sub_signature(keep), raw / prob)


def unit_effect(sig: SystemSignature) -> Effect:
    """The deterministic effect (identity), certified by basis projectors."""
    cert = [(1.0, basis_state_spec(sig, digits))
            for digits in product(range(sig.d), repeat=sig.num_factors)]
    return Effect(sig, np.eye(sig.dim, dtype=complex), certificate=cert)


def classical_povm(cond_prob, sig: SystemSignature) -> Povm:
    """POVM on a classical composite from outcome probabilities p(j|i).

    ``cond_prob`` is a (num_outcomes x dim) row-stochastic-in-columns
    array: column ``i`` is the outcome distribution given basis state
    ``i``.  Effect ``j`` is ``sum_i p(j|i) |i><i|``.
    """
    if not sig.is_classical():
        raise DomainError("classical_povm requires a classical composite")
    table = np.asarray(cond_prob, dtype=float)
    if table.ndim != 2 or table.shape[1] != sig.dim:
        raise ShapeError(f"conditional probability table must be (k, {sig.dim})")
    col_sums = table.sum(axis=0)
    if not (np.max(np.abs(col_sums - 1.0)) <= DEFAULT_ATOL and np.min(table) >= -ZERO_ATOL):
        raise DomainError("columns of p(j|i) must be probability distributions")
    strings = list(product(range(sig.d), repeat=sig.m))
    effects = []
    for j in range(table.shape[0]):
        cert = [
            (float(table[j, i]), basis_state_spec(sig, digits))
            for i, digits in enumerate(strings)
            if table[j, i] > 0
        ]
        op = np.diag(table[j].astype(complex))
        effects.append(Effect(sig, op, certificate=cert or None))
    return Povm(effects)


def witness_povm(p: float, parity: int = 0) -> Povm:
    """Two-outcome entanglement witness for sqrt(p)|00> + sqrt(1-p)|11>.

    ``P_yes`` projects onto the target state; ``P_no`` is its
    complement, certified by the orthogonal partner
    ``sqrt(1-p)|00> - sqrt(p)|11>`` together with the two basis states
    of the opposite parity sector (d = 2 only).
    """
    if not 0 < p < 1:
        raise DomainError(f"witness parameter must lie in (0, 1), got {p}")
    if parity not in (0, 1):
        raise DomainError(f"parity must be 0 or 1, got {parity}")
    sig = SystemSignature(2, 1, 1)
    sp, sq = np.sqrt(p), np.sqrt(1 - p)
    target = PureStateSpec(sig, {(0,): sp, (1,): sq}, parity=(parity,))
    ortho = PureStateSpec(sig, {(0,): sq, (1,): -sp}, parity=(parity,))
    other = [
        PureStateSpec(sig, {(0,): 1.0}, parity=(1 - parity,)),
        PureStateSpec(sig, {(1,): 1.0}, parity=(1 - parity,)),
    ]
    p_yes_op = projector(build_pure_state(target))
    p_yes = Effect(sig, p_yes_op, certificate=[(1.0, target)])
    p_no = Effect(
        sig,
        np.eye(4, dtype=complex) - p_yes_op,
        certificate=[(1.0, ortho)] + [(1.0, s) for s in other],
    )
    return Povm([p_yes, p_no])


def worst_case_no_probability(p: float, grid_step: float = 0.01) -> tuple:
    """Minimize p(no | separable) for the witness over the separable simplex.

    The objective is linear in the product-basis weights, so the minimum
    sits at a vertex: the smallest Born coefficient ``<ij|P_no|ij>``.
    Every vertex lies on every grid, so ``grid_step`` is range-checked but
    does not change the value; :func:`duoc.oracle.separable_grid_min`
    keeps the grid sweep as the cross-check.
    Returns ``(min_p_no, argmin SeparableSpec)``.
    """
    if not 0 < p < 1:
        raise DomainError(f"witness parameter must lie in (0, 1), got {p}")
    if not 0 < grid_step <= 0.1:
        raise DomainError(f"grid step must lie in (0, 0.1], got {grid_step}")
    # Born coefficient of each product basis state |ij>, index 2*i + j
    coeff = np.real(np.diag(witness_povm(p).effects[1].op))
    q = int(np.argmin(coeff))
    return float(coeff[q]), SeparableSpec(gamma={divmod(k, 2): float(k == q) for k in range(4)})
