"""Brute-force reference implementations.

Everything here recomputes results through its own index bookkeeping:
the conditional-state contraction is a direct einsum over digit axes,
the separable sweep uses the analytic Born values of the four product
basis states, and mixed-state membership for the d=2 pair is decided by
nonnegative least squares over a dense grid of valid pure projectors.
None of these routines call the engine's embedding or partial-trace
kernels, so agreement between the two paths is evidence, not tautology.

Randomness: the conditional sweep draws the scenarios of the engine's
:func:`duoc.effects.conditional_failures` with its sampler
:func:`duoc.effects.draw_conditional_trials` (PCG64, in a documented order),
then checks each trial alone.  From the engine this module takes only
samplers, builders, the pure-state test and the signature and error types,
never a contraction, scaling or stacking kernel (a Tier-1 guard).
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .effects import corrupt_case, draw_conditional_trials
from .errors import DomainError
from .states import as_rng, build_pure_state, random_valid_state, validate_pure_state
from .systems import SystemSignature

# random_valid_state is re-exported for the acceptance tests, which import it from here
__all__ = ["GridSpec", "brute_force_conditional_check", "brute_force_mixed_membership",
           "oracle_conditional", "random_valid_state", "separable_grid_min"]

_L = string.ascii_letters


def oracle_conditional(rho: np.ndarray, d: int, nfac: int, e_op: np.ndarray, positions):
    """Direct-index contraction of ``Tr_S[(E_S x I) rho]``.

    Independent of the engine's embed/partial-trace path: the whole
    contraction is one einsum over per-factor digit axes.
    Returns ``(prob, unnormalized_out)``.
    """
    positions = tuple(int(p) for p in positions)
    k = len(positions)
    if len(set(positions)) != k or not all(0 <= p < nfac for p in positions):
        raise DomainError(f"positions {positions} invalid for {nfac} factors")
    rest = [t for t in range(nfac) if t not in positions]
    rho_t = np.asarray(rho, dtype=complex).reshape((d,) * (2 * nfac))
    e_t = np.asarray(e_op, dtype=complex).reshape((d,) * (2 * k))
    # out[u, v] = sum_{s, c} E[s, c] rho[(c at S, u at rest), (s at S, v at rest)]
    s_lab = {p: _L[i] for i, p in enumerate(positions)}
    c_lab = {p: _L[k + i] for i, p in enumerate(positions)}
    u_lab = {t: _L[2 * k + i] for i, t in enumerate(rest)}
    v_lab = {t: _L[2 * k + len(rest) + i] for i, t in enumerate(rest)}
    e_axes = "".join(s_lab[p] for p in positions) + "".join(c_lab[p] for p in positions)
    row = "".join(c_lab[t] if t in s_lab else u_lab[t] for t in range(nfac))
    col = "".join(s_lab[t] if t in s_lab else v_lab[t] for t in range(nfac))
    out_axes = "".join(u_lab[t] for t in rest) + "".join(v_lab[t] for t in rest)
    out = np.einsum(e_axes + "," + row + col + "->" + out_axes, e_t, rho_t)
    rest_dim = d ** len(rest)
    out = out.reshape(rest_dim, rest_dim)
    return float(np.real(np.trace(out))), out


def _branch_vector(e_vec: np.ndarray, psi: np.ndarray, d: int, nfac: int, positions):
    """Partial inner product <e|psi> over the measured factors."""
    positions = tuple(positions)
    rest = [t for t in range(nfac) if t not in positions]
    psi_t = psi.reshape((d,) * nfac)
    e_t = e_vec.conj().reshape((d,) * len(positions))
    lab = {p: _L[i] for i, p in enumerate(positions)}
    out_lab = {t: _L[len(positions) + i] for i, t in enumerate(rest)}
    psi_axes = "".join(lab[t] if t in lab else out_lab[t] for t in range(nfac))
    spec = "".join(lab[p] for p in positions) + "," + psi_axes + "->" + "".join(
        out_lab[t] for t in rest
    )
    return np.einsum(spec, e_t, psi_t).reshape(-1)


def brute_force_conditional_check(trials: int, sig: SystemSignature, rng,
                                  corrupt: bool = False) -> int:
    """Count invalid conditional states over random measurement scenarios.

    Each trial of :func:`duoc.effects.draw_conditional_trials` (a valid
    pure state, a certified random effect on a random proper sub-factor
    set) is checked on its own: the effect is scaled below the identity
    here, contracted with :func:`oracle_conditional`, and every branch of
    the conditional state is validated (branches below relative weight
    1e-9 are ignored).  With ``corrupt=True`` the effect is replaced by a
    deliberately invalid parity-mixing projector, so failures are the
    expected outcome.
    """
    rng = as_rng(rng)
    d, nfac = sig.d, sig.num_factors
    if nfac < 2:
        raise DomainError("need at least two factors to measure a proper subset")
    if corrupt:
        spec, e_vec, positions = corrupt_case(sig)
        scenarios = [(build_pure_state(spec), positions, [(1.0, e_vec)])] * trials
    else:
        psi, measured, groups = draw_conditional_trials(trials, sig, rng)
        scenarios = [(psi[g], tuple(np.flatnonzero(measured[g])),
                      [(w, e) for w, e in zip(ws, es) if w > 0])
                     for _, rows, terms, weights in groups
                     for g, es, ws in zip(rows, terms, weights)]
    failures = 0
    for psi, positions, branches in scenarios:
        e_op = sum(w * np.outer(e, e.conj()) for w, e in branches)
        # scaled below the identity by its top eigenvalue, with a 1e-12 margin, where that exceeds 1
        top = np.linalg.eigvalsh(e_op)[-1]
        scale = top * (1 + 1e-12) if top > 1 else 1.0
        e_op, branches = e_op / scale, [(w / scale, e) for w, e in branches]
        rho = np.outer(psi, psi.conj())
        prob, raw_out = oracle_conditional(rho, d, nfac, e_op, positions)
        if prob <= 1e-9:
            continue
        rest = tuple(t for t in range(nfac) if t not in positions)
        kinds = [sig.kinds[t] for t in rest]
        out_sig = SystemSignature(d, kinds.count("D"), kinds.count("A"))
        recon = np.zeros_like(raw_out)
        ok = True
        for w, e_vec in branches:
            branch = _branch_vector(e_vec, psi, d, nfac, positions)
            mass = float(w * np.linalg.norm(branch) ** 2)
            recon += w * np.outer(branch, branch.conj())
            if mass / prob <= 1e-9:
                continue
            rep = validate_pure_state(branch / np.linalg.norm(branch), out_sig)
            if not rep.valid:
                ok = False
        # the branch decomposition must rebuild the contraction exactly
        if float(np.max(np.abs(recon - raw_out))) > 1e-10:
            ok = False
        if not ok:
            failures += 1
    return failures


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over weight parameters."""

    step: float

    def __post_init__(self):
        if not 0 < self.step <= 1:
            raise DomainError(f"grid step must lie in (0, 1], got {self.step}")


def separable_grid_min(p: float, grid) -> float:
    """Exhaustive witness-outcome minimum over gridded separable states.

    Uses the analytic Born values of the four product basis states
    (p(no| |ij><ij|) = 1 - p*[ij=00] - (1-p)*[ij=11]) rather than any
    engine code, and sweeps integer compositions of the simplex.
    """
    if not 0 < p < 1:
        raise DomainError(f"witness parameter must lie in (0, 1), got {p}")
    step = grid.step if isinstance(grid, GridSpec) else float(grid)
    steps = int(round(1.0 / step))
    no_value = {
        (0, 0): 1.0 - p,
        (0, 1): 1.0,
        (1, 0): 1.0,
        (1, 1): p,
    }
    best = None
    for a in range(steps + 1):
        for b in range(steps + 1 - a):
            for c in range(steps + 1 - a - b):
                e = steps - a - b - c
                val = (
                    a * no_value[(0, 0)]
                    + b * no_value[(0, 1)]
                    + c * no_value[(1, 0)]
                    + e * no_value[(1, 1)]
                ) / steps
                if best is None or val < best:
                    best = val
    return float(best)


def _pair_atoms(d: int, n_angles: int, n_phases: int):
    """Grid of valid pure projectors of the (1, 1) pair, flattened."""
    atoms = []
    for k in range(d):
        basis = []
        for i in range(d):
            v = np.zeros(d * d, dtype=complex)
            v[i * d + (i + k) % d] = 1.0
            basis.append(v)
        for i in range(d):
            atoms.append(np.outer(basis[i], basis[i].conj()))
        for i in range(d):
            for j in range(i + 1, d):
                for a in range(n_angles + 1):
                    phi = 0.5 * np.pi * a / n_angles
                    for q in range(n_phases):
                        chi = 2 * np.pi * q / n_phases
                        v = np.cos(phi) * basis[i] + np.sin(phi) * np.exp(1j * chi) * basis[j]
                        atoms.append(np.outer(v, v.conj()))
    return atoms


def brute_force_mixed_membership(rho: np.ndarray, d: int = 2,
                                 n_angles: int = 48, n_phases: int = 16) -> float:
    """Convex-decomposition residual of a (1, 1) density matrix.

    Solves a nonnegative least-squares fit of ``rho`` against a dense
    grid of valid pure projectors; small residuals certify membership
    in the model's mixed-state set, large residuals witness exclusion.
    """
    from scipy.optimize import nnls  # scipy is a test extra, needed only here

    rho = np.asarray(rho, dtype=complex)
    atoms = _pair_atoms(d, n_angles, n_phases)
    a_mat = np.array([np.concatenate([a.reshape(-1).real, a.reshape(-1).imag])
                      for a in atoms]).T
    b = np.concatenate([rho.reshape(-1).real, rho.reshape(-1).imag])
    _, residual = nnls(a_mat, b)
    return float(residual)
