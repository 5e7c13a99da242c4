"""Effects, POVMs, Born-rule probabilities and conditional states.

Valid effects are nonnegative combinations of projectors onto valid
pure states, bounded above by the identity.  For a (1, 1) composite
this cone is exactly the parity-block-diagonal PSD operators below the
identity; for larger composites validity is certified constructively.

The public :class:`Effect` admits outside input: it keeps the Hermitian
part of the operator and checks its spectrum with ``eigvalsh``.  An
effect the engine builds is valid by construction (a diagonal of checked
weights, a projector onto a valid pure state or its complement, a scaled
combination of projectors) and goes through :meth:`Effect._admitted`,
which stores the operator as built; a POVM the engine builds complete
by construction goes through :meth:`Povm._admitted` likewise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DegenerateInputError, DomainError, ShapeError
from .linalg import (
    DEFAULT_ATOL,
    INPUT_ATOL,
    ZERO_ATOL,
    contract_effect,
    contract_pure_effect,
    hermitian_outer,
    hermitian_part,
    symmetrized,
    unit_vector,
)
from .states import (
    FACTOR_PATH_DIM,
    DensityState,
    PureStateSpec,
    SeparableSpec,
    ValidityReport,
    _draw_terms,
    as_rng,
    basis_state_spec,
    build_pure_state,
    draw_valid_states,
    large_factor,
    pattern_test,
    validate_cone_member,
)
from .systems import SystemSignature, as_integers, index_to_digits


@dataclass(eq=False)
class Effect:
    """Positive operator with ``0 <= op <= I``, optionally certified.

    ``certificate`` is a list of ``(weight, PureStateSpec)`` pairs with
    nonnegative weights whose projector combination reconstructs ``op``.
    Construction keeps the Hermitian part of ``op`` once its size, its
    Hermitian defect and its ``eigvalsh`` spectrum are checked, each to
    ``DEFAULT_ATOL``.
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

    @classmethod
    def _admitted(cls, sig: SystemSignature, op: np.ndarray, certificate: list) -> "Effect":
        """The effect of an ``op`` that is an effect by construction and exactly Hermitian, such
        as a matrix of :func:`scaled_effects`, stored as built."""
        e = cls.__new__(cls)
        e.sig, e.op, e.certificate = sig, op, certificate
        return e


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
        defect = float(np.max(np.abs(sum(e.op for e in self.effects) - np.eye(sig.dim))))
        if defect > DEFAULT_ATOL:
            raise DomainError(f"effects do not sum to identity (defect {defect})")

    @classmethod
    def _admitted(cls, effects: list) -> "Povm":
        """The POVM of ``effects`` on one signature, complete by construction, stored as built."""
        povm = cls.__new__(cls)
        povm.effects = effects
        return povm

    @property
    def sig(self) -> SystemSignature:
        return self.effects[0].sig

    def __len__(self):
        return len(self.effects)


def validate_effect(e: Effect) -> ValidityReport:
    """Membership check for the effect cone, decided as :func:`~duoc.states.validate_mixed_state`
    decides a state's; ``0 <= op <= I`` was enforced at construction."""
    return validate_cone_member(e.sig, e.op, e.certificate)


def born_probabilities(povm: Povm, rho: DensityState) -> np.ndarray:
    """Outcome probabilities ``p_i = Tr(P_i rho)``.

    Above :data:`~duoc.states.FACTOR_PATH_DIM` no ``dim^3`` product is formed: a state of
    :func:`~duoc.states.large_factor` ``F`` gives ``Re tr(F^H P_i F)``, and a dense state
    ``Re sum(conj(P_i) * rho)``, which is ``Tr(P_i rho)`` for the Hermitian ``P_i``.
    """
    if povm.sig != rho.sig:
        raise DomainError(f"POVM on {povm.sig} cannot measure a state on {rho.sig}")
    if (factor := large_factor(rho)) is not None:
        traces = [np.vdot(factor, e.op @ factor) for e in povm.effects]
    elif rho.sig.dim > FACTOR_PATH_DIM:
        traces = [np.vdot(e.op, rho.matrix) for e in povm.effects]
    else:
        traces = [np.trace(e.op @ rho.matrix) for e in povm.effects]
    probs = np.array([float(np.real(t)) for t in traces])
    if np.min(probs) < -DEFAULT_ATOL or abs(np.sum(probs) - 1.0) > DEFAULT_ATOL:
        raise DomainError(f"Born probabilities {probs} violate normalization")
    return probs


def conditional_state(rho: DensityState, e: Effect, positions) -> tuple:
    """Outcome probability and post-measurement state on the rest.

    ``positions`` lists the factor positions of ``rho`` consumed by the
    effect, wired as :func:`check_wiring` requires.  The probability is
    ``Tr((E_S x I) rho)``; branches at or below probability ``ZERO_ATOL``
    return ``(prob, None)`` rather than renormalizing noise.  A state with a
    factor is contracted column by column from it
    (:func:`~duoc.linalg.contract_pure_effect`), and the columns summed.
    """
    sig = rho.sig
    positions = check_wiring(sig, e.sig, positions)
    nfac = sig.num_factors
    keep = tuple(t for t in range(nfac) if t not in positions)
    if (factor := rho.factor) is None:
        raw = contract_effect(e.op, rho.matrix, positions, sig.dims)
    else:  # each column laid out measured factors first, in the effect's order
        psi = factor.reshape(*sig.dims, -1).transpose(nfac, *positions, *keep)
        psi = psi.reshape(-1, e.sig.dim, sig.dim // e.sig.dim)
        raw = contract_pure_effect(e.op[None], psi).sum(axis=0)
    prob = float(np.real(np.trace(raw)))
    if prob <= ZERO_ATOL:
        return max(prob, 0.0), None
    raw /= prob
    return prob, DensityState._admitted(sig.sub_signature(keep), symmetrized(raw))


def check_wiring(sig: SystemSignature, esig: SystemSignature, positions) -> tuple:
    """``positions`` as ints, once they wire factor ``t`` of an effect on ``esig`` to factor
    ``positions[t]`` of ``sig``: integers, distinct, in range, of the same local dimension and
    kind (dit to dit, anti-dit to anti-dit), and leaving at least one factor unmeasured."""
    positions = as_integers(positions)
    if len(positions) != esig.num_factors or len(set(positions)) != len(positions):
        raise DomainError(f"need {esig.num_factors} distinct positions, got {positions}")
    if any(p < 0 or p >= sig.num_factors for p in positions):
        raise DomainError(f"positions {positions} outside the composite")
    if len(positions) >= sig.num_factors:
        raise DomainError("the effect must leave at least one factor unmeasured")
    if esig.d != sig.d:
        raise DomainError("local dimensions differ")
    for t, (p, kind) in enumerate(zip(positions, esig.kinds)):
        if sig.kinds[p] != kind:
            raise DomainError(f"effect factor {t} ({kind}) wired to a {sig.kinds[p]} factor")
    return positions


def random_certified_effect(sig: SystemSignature, rng) -> Effect:
    """Random positive combination of one to three valid pure projectors, scaled below I.

    Draw order: number of terms, term weights (uniform on ``[0.2, 1)``), then the
    terms as :func:`~duoc.states.random_mixed_state` draws them.  The operator is
    built once, by :func:`scaled_effects`.
    """
    rng = as_rng(rng)
    weights = rng.uniform(0.2, 1.0, size=int(rng.integers(1, 4)))
    terms, specs = _draw_terms(sig, len(weights), rng)
    op, scaled = scaled_effects(terms[None], weights[None])
    return Effect._admitted(sig, op[0], [(float(w), spec) for w, spec in zip(scaled[0], specs)])


def scaled_effects(terms, weights) -> tuple:
    """Row ``g``'s effect ``sum_t weights[g, t] |terms[g, t]><terms[g, t]|`` of valid unit terms
    and nonnegative weights, :func:`~duoc.linalg.symmetrized` and scaled below the identity by its
    top eigenvalue where that exceeds 1: an effect by construction, checked no further.  The top
    eigenvalue is read off the ``T x T`` Gram matrix of the rows ``sqrt(w_t) terms[g, t]``, whose
    spectrum is the effect's nonzero one, at a cost that does not grow with ``dim``; zero terms
    padding a row add only zero eigenvalues.  Returns the exactly Hermitian ``(G, dim, dim)``
    stack and the scaled ``(G, T)`` weights."""
    op = symmetrized((terms.transpose(0, 2, 1) * weights[:, None, :]) @ terms.conj())
    rows = terms * np.sqrt(weights)[:, :, None]
    top = np.linalg.eigvalsh(rows.conj() @ rows.transpose(0, 2, 1))[:, -1]
    scale = np.where(top > 1.0, top * (1 + ZERO_ATOL), 1.0)
    op /= scale[:, None, None]
    return op, weights / scale[:, None]


def corrupt_case(sig: SystemSignature) -> tuple:
    """A maximally correlated state plus a digit-mixing effect: ``(spec, e_vec, positions)``.

    Measuring the first dit in a superposition basis leaves its paired
    anti-dit in a superposition of basis states, which the model
    forbids, so the conditional state always fails validation.
    """
    d, m, n = sig.d, sig.m, sig.n
    if min(m, n) < 1:
        raise DomainError("the corrupt control needs at least one dit/anti-dit pair")
    p = sig.num_pairs
    coeffs = dict.fromkeys(product(range(d), repeat=p), d ** (-p / 2))
    state = PureStateSpec(sig, coeffs, parity=(0,) * p, tail=(0,) * abs(m - n))
    e = np.zeros(d, dtype=complex)
    e[0] = 1 / np.sqrt(2)
    e[1] = 1 / np.sqrt(2)
    return state, e, (0,)


def conditional_failures(trials: int, sig: SystemSignature, rng, corrupt: bool = False) -> int:
    """Count invalid conditional states over random measurement scenarios, one stack per class.

    The scenarios are those of :func:`draw_conditional_trials`, which
    :func:`duoc.oracle.brute_force_conditional_check` checks one by one, so
    seed by seed both return one count and leave ``rng`` in one state.  With
    each state laid out measured factors first, the trials of one measured
    sub-signature (hence one unmeasured rest) run as one stack, whatever
    positions they measure: admission of the scaled effects,
    :func:`~duoc.states.pattern_test` on every branch ``conj(e_t) . psi`` of
    relative weight above ``INPUT_ATOL``, then each state's contraction, taken
    from its vector (:func:`~duoc.linalg.contract_pure_effect`).  A trial of
    probability ``sum_t w_t |conj(e_t) . psi|^2`` at most ``INPUT_ATOL`` is
    skipped; one fails when a branch is invalid or the branches miss the
    contraction by more than ``DEFAULT_ATOL``.  ``corrupt=True`` makes every
    trial the fixed :func:`corrupt_case`, drawing nothing.  A stack holds
    ``sub.dim^2 + 2 rest.dim^2`` entries per trial, so ``run conditional``
    bounds ``trials x dim^2``.
    """
    if sig.num_factors < 2:
        raise DomainError("need at least two factors to measure a proper subset")
    if corrupt:
        spec, e_vec, positions = corrupt_case(sig)
        # every trial is this one case, checked once; it measures position 0, so the canonical
        # layout is already measured-first
        sub = sig.sub_signature(positions)
        psi = build_pure_state(spec)[None]
        return trials * _stack_failures(sub, _rest(sig, sub), psi, e_vec[None, None],
                                        np.ones((1, 1)))
    psi, measured, groups = draw_conditional_trials(trials, sig, as_rng(rng))
    psi = _measured_first(sig, psi, measured)
    return sum(_stack_failures(sub, _rest(sig, sub), psi[rows], terms, weights)
               for sub, rows, terms, weights in groups)


def draw_conditional_trials(trials: int, sig: SystemSignature, rng) -> tuple:
    """The random scenarios of :func:`conditional_failures`: ``(psi, measured, groups)``.

    Each generator call draws one field for every trial, in this fixed order:
    the states (:func:`~duoc.states.draw_valid_states`); the subset sizes,
    ``integers(1, F, size=trials)`` over ``F`` factors; the measured positions,
    a uniform subset of that size (the first ``size`` of each row's argsort of
    ``random((trials, F))``); the term counts, ``integers(1, 4, size=trials)``;
    the term weights, one ``uniform(0.2, 1.0)`` call in trial order; then the
    term states of each measured sub-signature, in ascending ``(m, n)`` order,
    one ``draw_valid_states`` call each.

    ``psi`` is ``(trials, dim)`` and ``measured`` a ``(trials, F)`` mask.
    ``groups`` holds one ``(sub, rows, terms, weights)`` per measured
    sub-signature: its trials' indices, their term vectors ``(G, 3, sub.dim)``
    and weights ``(G, 3)``, zero past each count.
    """
    nfac = sig.num_factors
    psi = draw_valid_states(sig, trials, rng)
    sizes = rng.integers(1, nfac, size=trials)
    order = rng.random((trials, nfac)).argsort(axis=1)
    measured = np.zeros((trials, nfac), dtype=bool)
    measured[np.arange(trials)[:, None], order] = np.arange(nfac) < sizes[:, None]
    # slot t of a trial holds its t-th term; the weights fill the slots in trial order
    slots = np.arange(3) < rng.integers(1, 4, size=trials)[:, None]
    weights = np.zeros((trials, 3))
    weights[slots] = rng.uniform(0.2, 1.0, size=np.count_nonzero(slots))
    # a trial's sub-signature (a, b) coded as a * (n + 1) + b, ascending with (a, b)
    code = measured[:, : sig.m].sum(axis=1) * (sig.n + 1) + measured[:, sig.m :].sum(axis=1)
    groups = []
    for c in np.unique(code):
        rows = np.flatnonzero(code == c)
        sub = SystemSignature(sig.d, *divmod(int(c), sig.n + 1))
        terms, used = np.zeros((len(rows), 3, sub.dim), dtype=complex), slots[rows]
        terms[used] = draw_valid_states(sub, np.count_nonzero(used), rng)
        groups.append((sub, rows, terms, weights[rows]))
    return psi, measured, groups


def _rest(sig: SystemSignature, sub: SystemSignature) -> SystemSignature:
    """The signature of the factors of ``sig`` that a measurement on ``sub`` leaves."""
    return SystemSignature(sig.d, sig.m - sub.m, sig.n - sub.n)


def _measured_first(sig: SystemSignature, psi, measured) -> np.ndarray:
    """Each row of ``psi`` with its factors reordered: those ``measured`` marks, ascending, then
    the rest, ascending (dits before anti-dits in each part, as in a sub-signature)."""
    nfac = sig.num_factors
    # slot q of row g holds position order[g, q]; index j of the new layout reads digit q of j there
    order = np.argsort(~measured, axis=1, kind="stable")
    place = sig.d ** np.arange(nfac - 1, -1, -1)
    source = place[order] @ np.indices(sig.dims).reshape(nfac, -1)
    return np.take_along_axis(psi, source, axis=1)


def _stack_failures(sub: SystemSignature, rest: SystemSignature, psi, terms, weights) -> int:
    """Failing trials among states ``psi`` ``(G, dim)`` laid out as ``sub`` then ``rest``, measured
    on their ``sub`` factors by the effects ``sum_t weights[g, t] |terms[g, t]><terms[g, t]|``."""
    op, weights = scaled_effects(terms, weights)
    # branch t of trial g is conj(terms[g, t]) . psi[g] over the measured factors
    mat = psi.reshape(len(psi), sub.dim, rest.dim)
    branch = terms.conj() @ mat
    mass = weights * np.sum(branch.real**2 + branch.imag**2, axis=2)
    prob = np.sum(mass, axis=1)
    kept = prob > INPUT_ATOL
    tested = np.zeros(weights.shape, dtype=bool)
    tested[kept] = mass[kept] / prob[kept, None] > INPUT_ATOL
    invalid = np.zeros(weights.shape, dtype=bool)
    if tested.any():
        vecs = branch[tested]
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        invalid[tested] = ~pattern_test(vecs, rest)[0]
    recon = (branch.transpose(0, 2, 1) * weights[:, None, :]) @ branch.conj()
    recon -= contract_pure_effect(op, mat)
    wrong = np.max(np.abs(recon), axis=(1, 2)) > DEFAULT_ATOL
    return int(np.count_nonzero(kept & (wrong | invalid.any(axis=1))))


def basis_effect(sig: SystemSignature, weights) -> Effect:
    """The effect ``diag(weights)`` (one float per basis index, in ``[-ZERO_ATOL, 1 + DEFAULT_ATOL]``
    as its callers check), certified by its basis states of positive weight; with none positive it
    carries no certificate."""
    op = np.zeros((sig.dim, sig.dim), dtype=complex)
    np.fill_diagonal(op, weights)
    cert = [(w, basis_state_spec(sig, index_to_digits(i, sig.d, sig.num_factors)))
            for i, w in enumerate(weights) if w > 0]
    return Effect._admitted(sig, op, cert or None)


def unit_effect(sig: SystemSignature) -> Effect:
    """The deterministic effect (identity), certified by basis projectors."""
    return basis_effect(sig, [1.0] * sig.dim)


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
    # every entry in [-ZERO_ATOL, 1 + DEFAULT_ATOL], so each diagonal effect is one by construction
    if not (np.max(np.abs(col_sums - 1.0)) <= DEFAULT_ATOL and np.min(table) >= -ZERO_ATOL
            and np.max(table) <= 1 + DEFAULT_ATOL):
        raise DomainError("columns of p(j|i) must be probability distributions")
    return Povm._admitted([basis_effect(sig, row) for row in table.tolist()])


def witness_povm(p: float, parity: int = 0) -> Povm:
    """Two-outcome entanglement witness for sqrt(p)|00> + sqrt(1-p)|11>.

    ``{P_yes, P_no}`` is the :func:`projector_povms` of the target state (d = 2 only):
    the cell test of :func:`validate_effect` decides both effects exactly.
    """
    if not 0 < p < 1:
        raise DomainError(f"witness parameter must lie in (0, 1), got {p}")
    if parity not in (0, 1):
        raise DomainError(f"parity must be 0 or 1, got {parity}")
    sig = SystemSignature(2, 1, 1)
    target = PureStateSpec(sig, {(0,): np.sqrt(p), (1,): np.sqrt(1 - p)}, parity=(parity,))
    return projector_povms(sig, build_pure_state(target))[0]


def projector_povms(sig: SystemSignature, *vecs) -> list:
    """``{P, I - P}`` for ``P = projector(v)`` of each of ``vecs``, as stacked projectors: one
    ``hermitian_outer`` of the stacked ``unit_vector`` rows (each checked as ``projector`` checks
    it) and one broadcast ``I - P``, byte for byte the per-vector forms.  Both effects are
    stored as built with no certificate."""
    ps = hermitian_outer(np.array([unit_vector(v) for v in vecs]))
    rest = np.eye(sig.dim, dtype=complex) - ps
    return [Povm._admitted([Effect._admitted(sig, p, None), Effect._admitted(sig, q, None)])
            for p, q in zip(ps, rest)]


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
