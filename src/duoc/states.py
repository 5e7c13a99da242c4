"""States of dit / anti-dit composites.

Pure states of an ``(m, n)`` composite are, up to a factor relabeling,
of the form ``sum_x alpha_x |x> (X^s |x>) |tail>``: each dit is paired
with an anti-dit whose digits track the dit's digits up to a fixed
per-pair shift (the parity vector ``s``), and unpaired factors of the
longer kind carry a fixed digit string.  Mixed states are convex
mixtures of such pure states.

Pair ``i`` couples dit ``D[i]`` with anti-dit ``A[i]`` before the
relabeling is applied; the tail sits on the trailing factors of the
longer kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    DegenerateInputError,
    DensityMatrixError,
    DomainError,
    NormalizationError,
    NotClassicalError,
    ShapeError,
    ValidityError,
)
from .linalg import (
    DEFAULT_ATOL,
    SPECTRAL_ATOL,
    ZERO_ATOL,
    as_vector,
    hermitian_part,
    low_rank_psd,
    min_eigenvalue,
    off_diagonal_max,
    partial_trace,
    projector,
)
from .systems import (
    MAX_PERM_FACTORS,
    FactorPermutation,
    IndexTable,
    SystemSignature,
    digits_to_index,
    index_table,
    index_to_digits,
)

# bounds the time and memory of span_dimensions: about 0.2 s and 40 MB on one core
SPAN_SVD_WORK = 500_000_000


@dataclass
class ValidityReport:
    """Outcome of a membership check.

    ``residual`` is the leaked mass (or reconstruction defect) of the
    best candidate found; ``witness`` describes that candidate.  A
    ``NON-EXHAUSTIVE`` flag marks checks that can miss valid inputs.
    """

    valid: bool
    residual: float
    witness: object = None
    flags: tuple = ()


@dataclass(eq=False)
class PureStateSpec:
    """Constructive description of a valid pure state.

    Parameters
    ----------
    sig : SystemSignature
    coeffs : dict
        Map from digit strings ``x`` (tuples of length ``min(m, n)``,
        or the empty tuple when one side is absent) to complex
        amplitudes.  Must be normalized.
    parity : tuple
        Per-pair shift ``s``; anti-dit ``A[i]`` carries ``x_i + s_i mod d``.
    tail : tuple
        Digits of the unpaired trailing factors, length ``|m - n|``.
    perm : FactorPermutation
        Relabeling applied after the paired construction.
    """

    sig: SystemSignature
    coeffs: dict
    parity: tuple = ()
    tail: tuple = ()
    perm: FactorPermutation = None

    def __post_init__(self):
        sig = self.sig
        p = sig.num_pairs
        self.parity = tuple(int(x) for x in self.parity) or (0,) * p
        self.tail = tuple(int(x) for x in self.tail) or (0,) * abs(sig.m - sig.n)
        if self.perm is None:
            self.perm = FactorPermutation.identity(sig.m, sig.n)
        if len(self.perm.sigma) != sig.m or len(self.perm.tau) != sig.n:
            raise DomainError("factor permutation shape does not match the signature")
        if len(self.parity) != p:
            raise DomainError(f"parity vector must have length {p}")
        if any(s < 0 or s >= sig.d for s in self.parity):
            raise DomainError(f"parity entries must lie in 0..{sig.d - 1}")
        if len(self.tail) != abs(sig.m - sig.n):
            raise DomainError(f"tail must have length {abs(sig.m - sig.n)}")
        if any(t < 0 or t >= sig.d for t in self.tail):
            raise DomainError(f"tail digits must lie in 0..{sig.d - 1}")
        coeffs = {}
        for x, a in self.coeffs.items():
            x = tuple(int(g) for g in (x if isinstance(x, (tuple, list)) else (x,)))
            if len(x) != p:
                raise DomainError(f"coefficient key {x} must have length {p}")
            if any(g < 0 or g >= sig.d for g in x):
                raise DomainError(f"coefficient key {x} has digits outside 0..{sig.d - 1}")
            if x in coeffs:
                raise DomainError(f"duplicate coefficient key {x}")
            coeffs[x] = complex(a)
        if not coeffs:
            raise DegenerateInputError("a pure state needs at least one coefficient")
        total = sum(abs(a) ** 2 for a in coeffs.values())
        # written so that a NaN amplitude fails it
        if not abs(total - 1.0) <= DEFAULT_ATOL:
            raise NormalizationError(f"coefficients have squared norm {total}, expected 1")
        self.coeffs = coeffs


def build_pure_state(spec: PureStateSpec) -> np.ndarray:
    """Dense state vector for a :class:`PureStateSpec`."""
    sig = spec.sig
    d, m, n, p = sig.d, sig.m, sig.n, sig.num_pairs
    place = index_table(sig).place
    # canonical factor t lands on position dest[t] and takes that place value
    w = [place[q] for q in spec.perm.destinations(m, n)]
    tail_w = w[p:m] if m > n else w[m + p :]
    # the spec checked its fields when built; these checks catch a spec changed since
    if len(spec.parity) != p or len(spec.tail) != len(tail_w):
        raise DomainError(f"parity {spec.parity} or tail {spec.tail} does not fit {sig}")
    base = 0
    for t, wt in zip(spec.tail, tail_w):
        if not 0 <= t < d:
            raise DomainError(f"tail digits must lie in 0..{d - 1}")
        base += t * wt
    pairs = list(zip(spec.parity, w[:p], w[m : m + p]))
    v = np.zeros(sig.dim, dtype=complex)
    for x, amp in spec.coeffs.items():
        if len(x) != p:
            raise DomainError(f"coefficient key {x} must have length {p}")
        idx = base
        for g, (s, wd, wa) in zip(x, pairs):
            if not 0 <= g < d:
                raise DomainError(f"coefficient key {x} has digits outside 0..{d - 1}")
            idx += g * wd + (g + s) % d * wa
        v[idx] = amp
    return v


def _pattern_fit(rows: np.ndarray, table: IndexTable) -> tuple:
    """Key code at the largest amplitude of each row, and where each row's keys differ from it."""
    ref = table.key[np.argmax(np.abs(rows), axis=-1)]
    return ref, table.key != ref[..., None]


def _pattern_leak(v_pre: np.ndarray, sig: SystemSignature):
    """Given a vector in unpermuted layout, fit the paired-support pattern.

    Keys every basis index by its pair parities ``(anti_i - dit_i) % d``
    and its unpaired digits, reads the parity vector and tail off the key
    of the largest amplitude, then returns ``(leak, parity, tail)`` where
    ``leak`` is the norm of the amplitude mass whose key differs.
    """
    table = index_table(sig)
    ref, off = _pattern_fit(v_pre, table)
    return (float(np.linalg.norm(v_pre[off])), *table.split_key(ref))


def validate_pure_state(v, sig: SystemSignature, atol: float = DEFAULT_ATOL) -> ValidityReport:
    """Exhaustively test whether ``v`` is a valid pure state of ``sig``.

    Searches every kind-preserving factor relabeling, so the cost grows
    as ``m! * n!``; sides larger than ``MAX_PERM_FACTORS`` are refused
    (use certificate comparison via :func:`certificate_matches` there).
    The relabelings and basis keys come from the signature's cached
    :func:`~duoc.systems.index_table`, at most ``(3! * 3! + 1) * 4096``
    integers per signature; each call gathers ``v`` once per relabeling.

    Returns a report whose witness, when valid, records the relabeling,
    parity vector and tail that exhibit the paired structure; otherwise
    the first relabeling of least leaked mass.
    """
    vec = as_vector(v)
    if vec.size != sig.dim:
        raise ShapeError(f"vector length {vec.size} != composite dimension {sig.dim}")
    nrm = np.linalg.norm(vec)
    if abs(nrm - 1.0) > DEFAULT_ATOL:
        raise NormalizationError(f"state vector has norm {nrm}, expected 1")
    if sig.m > MAX_PERM_FACTORS or sig.n > MAX_PERM_FACTORS:
        raise DomainError(
            f"exhaustive relabeling search refused for ({sig.m}, {sig.n}); "
            "verify against a certificate instead"
        )
    table = index_table(sig)
    rows = vec[table.gather]
    refs, off = _pattern_fit(rows, table)
    best = None
    for k in range(len(rows)):
        leak = float(np.linalg.norm(rows[k][off[k]]))
        if best is None or leak < best[0]:
            best = (leak, k)
        if leak <= atol:
            break
    leak, k = best
    (sigma, tau), (parity, tail) = table.relabelings[k], table.split_key(refs[k])
    witness = {"sigma": sigma, "tau": tau, "parity": parity, "tail": tail}
    return ValidityReport(valid=leak <= atol, residual=leak, witness=witness)


def certificate_matches(spec: PureStateSpec, v) -> ValidityReport:
    """Check that ``v`` equals the state built from ``spec`` up to global phase."""
    vec = as_vector(v)
    built = build_pure_state(spec)
    if vec.size != built.size:
        raise ShapeError("vector length does not match the certificate's composite")
    defect = float(np.max(np.abs(projector(built) - projector(vec))))
    return ValidityReport(valid=defect <= DEFAULT_ATOL, residual=defect, witness=spec)


def basis_state_spec(sig: SystemSignature, digits) -> PureStateSpec:
    """Spec of the computational basis state with the given digit string.

    Every basis product vector is a valid pure state: each dit/anti-dit
    pair has the definite parity read off its digits, and unpaired
    digits form the tail.
    """
    digits = tuple(int(g) for g in digits)
    if len(digits) != sig.num_factors:
        raise DomainError(f"need {sig.num_factors} digits, got {len(digits)}")
    p = sig.num_pairs
    dits, antis = digits[: sig.m], digits[sig.m :]
    parity = tuple((antis[i] - dits[i]) % sig.d for i in range(p))
    tail = dits[p:] if sig.m > sig.n else antis[p:]
    return PureStateSpec(sig, {tuple(dits[:p]): 1.0}, parity=parity, tail=tail)


@dataclass(eq=False)
class DensityState:
    """Density matrix tagged with its composite signature.

    Construction enforces Hermiticity, positivity and unit trace within
    ``atol = DEFAULT_ATOL`` (eigenvalues may dip to ``-atol``); it does not
    by itself certify membership in the model's state set.

    Positivity is decided on the stored (symmetrized) matrix by the first
    of three paths that settles it:

    1. a pivoted partial Cholesky factor ``L`` of at most ``dim // 64``
       columns (so none below dimension 64) whose residual
       ``||matrix - L L^H||_F`` is at most ``atol`` accepts, by Weyl's
       inequality (:func:`~duoc.linalg.low_rank_psd`); this settles the
       low-rank states that pure states and short mixtures give;
    2. else a Cholesky factorization of ``matrix + atol*I``, which
       succeeds when every eigenvalue lies above ``-atol``, accepts;
    3. else ``eigvalsh`` gives the exact verdict and the eigenvalue
       reported in the error.

    The verdict can differ from ``eigvalsh`` alone only within rounding
    (about ``dim * eps``) of ``-atol``.

    Above 256 x 256 the symmetrization and the low-rank residual walk the
    matrix in cache-sized blocks (64 x 64 tile pairs, 1 MB row blocks;
    see :mod:`duoc.linalg`), because a full strided transpose or a dim^2
    temporary there costs a cache miss per row.  The stored matrix, the
    defect and every verdict are those of the single-block pass.
    """

    sig: SystemSignature
    matrix: np.ndarray

    def __post_init__(self):
        # hermitian_part coerces the input and checks it is finite and square
        sym, defect = hermitian_part(self.matrix)
        if sym.shape[0] != self.sig.dim:
            raise ShapeError(f"matrix dim {sym.shape[0]} != composite dimension {self.sig.dim}")
        if defect > DEFAULT_ATOL:
            raise DensityMatrixError(f"matrix is not Hermitian (defect {defect})")
        tr = float(np.real(np.trace(sym)))
        if abs(tr - 1.0) > DEFAULT_ATOL:
            raise DensityMatrixError(f"matrix has trace {tr}, expected 1")
        if not low_rank_psd(sym, DEFAULT_ATOL):
            _require_psd(sym)
        self.matrix = sym

    @classmethod
    def from_vector(cls, sig: SystemSignature, v) -> "DensityState":
        return cls(sig, projector(v))

    @property
    def dim(self) -> int:
        return self.sig.dim


def _require_psd(sym: np.ndarray):
    """Raise if an eigenvalue of ``sym`` is below ``-atol``: Cholesky, then ``eigvalsh``."""
    # factor sym + atol*I in place, with no second dim^2 copy, then restore the diagonal
    diag = sym.diagonal().copy()
    sym.flat[:: sym.shape[0] + 1] += DEFAULT_ATOL
    try:
        np.linalg.cholesky(sym)
        factored = True
    except np.linalg.LinAlgError:
        factored = False
    np.fill_diagonal(sym, diag)
    if not factored and (lo := min_eigenvalue(sym)) < -DEFAULT_ATOL:
        raise DensityMatrixError(f"matrix has negative eigenvalue {lo}")


@dataclass(eq=False)
class SeparableSpec:
    """Description of a separable state.

    Exactly one of the two forms must be given:

    ``gamma``
        Map ``(i, j) -> weight`` over product basis labels of a (1, 1)
        composite; the state is ``sum gamma_ij |ij><ij|``.
    ``terms``
        List of ``(weight, dit_digits, anti_state)`` triples for general
        ``(m, n)``: classical basis state on the dits, valid (diagonal)
        anti-classical state on the anti-dits.
    """

    gamma: dict = None
    terms: list = None

    def __post_init__(self):
        if (self.gamma is None) == (self.terms is None):
            raise DomainError("give exactly one of gamma= or terms=")
        if self.gamma is not None:
            weights = list(self.gamma.values())
        else:
            weights = [w for w, _, _ in self.terms]
        if any(w < -ZERO_ATOL for w in weights):
            raise DomainError("separable weights must be nonnegative")
        total = float(sum(weights))
        # the trace check of the state built from them decides at DEFAULT_ATOL; a NaN fails it
        if not abs(total - 1.0) <= DEFAULT_ATOL:
            raise NormalizationError(f"separable weights sum to {total}, expected 1")


def build_separable(spec: SeparableSpec, sig: SystemSignature) -> DensityState:
    """Assemble the density matrix described by a :class:`SeparableSpec`."""
    d = sig.d
    rho = np.zeros((sig.dim, sig.dim), dtype=complex)
    if spec.gamma is not None:
        if (sig.m, sig.n) != (1, 1):
            raise DomainError("gamma form is only defined on a (1, 1) composite")
        for (i, j), w in spec.gamma.items():
            if not (0 <= i < d and 0 <= j < d):
                raise DomainError(f"basis labels ({i}, {j}) out of range for d={d}")
            rho[i * d + j, i * d + j] += w
    else:
        for w, dits, anti in spec.terms:
            dits = tuple(int(g) for g in dits)
            if len(dits) != sig.m:
                raise DomainError(f"dit string {dits} must have length {sig.m}")
            if anti.sig != SystemSignature(d, 0, sig.n):
                raise DomainError("anti-classical factor has the wrong signature")
            if (off := off_diagonal_max(anti.matrix)) > DEFAULT_ATOL:
                raise ValidityError(f"anti-classical factor is not diagonal (defect {off})")
            block = np.zeros((d**sig.m, d**sig.m), dtype=complex)
            block[digits_to_index(dits, d), digits_to_index(dits, d)] = 1.0
            rho += w * np.kron(block, anti.matrix)
    return DensityState(sig, rho)


def cross_sector_mass(mat: np.ndarray, d: int) -> float:
    """Largest entry coupling different parity sectors of a (1, 1) matrix."""
    idx = np.arange(d * d)
    sector = (idx % d - idx // d) % d
    cross = sector[:, None] != sector[None, :]
    return float(np.max(np.abs(mat[cross]))) if np.any(cross) else 0.0


def validate_mixed_state(rho: DensityState, certificate=None) -> ValidityReport:
    """Test whether ``rho`` is a mixture of valid pure states.

    The check is exact for classical and anti-classical composites
    (diagonal matrices), for (1, 1) composites (parity-block-diagonal
    matrices), and whenever a certificate is supplied.  Otherwise the
    eigendecomposition is tried as a candidate certificate; a negative
    answer from that path is flagged ``NON-EXHAUSTIVE``.

    Parameters
    ----------
    certificate : list of (weight, PureStateSpec), optional
        Claimed convex decomposition; verified by reconstruction.
    """
    return validate_cone_member(rho.sig, rho.matrix, certificate)


def validate_cone_member(sig, mat, certificate=None) -> ValidityReport:
    """Membership test shared by valid states and effects; see :func:`validate_mixed_state`."""
    if certificate is not None:
        if not certificate:
            raise DegenerateInputError("empty certificate")
        if other := [spec.sig for _, spec in certificate if spec.sig != sig]:
            raise ShapeError(f"certificate term on {other[0]} cannot certify a member of {sig}")
        for w, _ in certificate:
            if w < -ZERO_ATOL:
                return ValidityReport(False, float(w), witness="negative certificate weight")
        # sum_t w_t |v_t><v_t| over unit columns v_t, as one product
        vecs = np.stack([build_pure_state(spec) for _, spec in certificate], axis=1)
        vecs /= np.linalg.norm(vecs, axis=0)
        recon = (vecs * [max(float(w), 0.0) for w, _ in certificate]) @ vecs.conj().T
        recon -= mat
        defect = float(np.max(np.abs(recon)))
        return ValidityReport(defect <= DEFAULT_ATOL, defect, witness="certificate")
    if sig.is_classical() or sig.is_anticlassical():
        off = off_diagonal_max(mat)
        return ValidityReport(off <= DEFAULT_ATOL, off, witness="diagonal test")
    if (sig.m, sig.n) == (1, 1):
        worst = cross_sector_mass(mat, sig.d)
        return ValidityReport(worst <= DEFAULT_ATOL, worst, witness="sector-block test")
    # fall back to the spectral decomposition as a candidate certificate
    vals, vecs = np.linalg.eigh(mat)
    worst = 0.0
    for idx in range(vals.size):
        if vals[idx] <= DEFAULT_ATOL:
            continue
        rep = validate_pure_state(vecs[:, idx], sig, atol=SPECTRAL_ATOL)
        worst = max(worst, rep.residual)
        if not rep.valid:
            return ValidityReport(
                False, rep.residual, witness="spectral decomposition", flags=("NON-EXHAUSTIVE",)
            )
    return ValidityReport(True, worst, witness="spectral decomposition")


def marginal_state(rho: DensityState, keep) -> DensityState:
    """Reduced state on the factors listed in ``keep`` (ascending positions)."""
    keep = tuple(sorted(int(k) for k in keep))
    sub = rho.sig.sub_signature(keep)
    reduced = partial_trace(rho.matrix, rho.sig.dims, keep)
    return DensityState(sub, reduced)


def purify_classical_state(
    rho: DensityState,
    num_anti: int,
    parity=None,
    tail=None,
    phases=None,
    tau=None,
) -> PureStateSpec:
    """Purify a classical state by pairing each dit with a fresh anti-dit.

    ``rho`` must be a valid (diagonal) state of an ``(m, 0)`` composite
    and ``num_anti >= m``.  The returned spec reads ``sum_c sqrt(p_c)
    e^{i phase_c} |c> (X^s |c>) |tail>``; its marginal on the dits
    reproduces ``rho`` exactly, for any parity vector, tail, phases and
    anti-dit relabeling ``tau``.  The dits themselves are never
    relabeled.
    """
    sig = rho.sig
    if not sig.is_classical():
        raise DomainError("purification input must be a classical composite")
    m, d = sig.m, sig.d
    if num_anti < m:
        raise DomainError(f"need at least {m} anti-dits to purify, got {num_anti}")
    if (off := off_diagonal_max(rho.matrix)) > DEFAULT_ATOL:
        raise NotClassicalError(f"state is not diagonal (off-diagonal mass {off})")
    parity = tuple(parity) if parity is not None else (0,) * m
    tail = tuple(tail) if tail is not None else (0,) * (num_anti - m)
    tau = tau if tau is not None else tuple(range(num_anti))
    probs = np.real(np.diag(rho.matrix))
    coeffs = {}
    for idx in np.nonzero(probs > 0)[0]:
        c = index_to_digits(int(idx), d, m)
        theta = 0.0
        if phases is not None:
            theta = float(phases.get(c, 0.0))
        coeffs[c] = np.sqrt(probs[idx]) * np.exp(1j * theta)
    out_sig = SystemSignature(d, m, num_anti)
    perm = FactorPermutation(tuple(range(m)), tuple(tau))
    return PureStateSpec(out_sig, coeffs, parity=parity, tail=tail, perm=perm)


def is_entangled(v, sig: SystemSignature) -> bool:
    """Decide entanglement of a valid (1, 1) pure state.

    Raises :class:`ValidityError` if ``v`` is not a valid pure state.
    Entangled means the dit marginal has more than one nonzero
    eigenvalue, i.e. the paired coefficients have support size >= 2.
    """
    if (sig.m, sig.n) != (1, 1):
        raise DomainError("entanglement test is defined on (1, 1) composites")
    rep = validate_pure_state(v, sig)
    if not rep.valid:
        raise ValidityError(f"not a valid pure state (residual {rep.residual})")
    marg = partial_trace(projector(v), sig.dims, keep=(0,))
    eigs = np.linalg.eigvalsh(marg)
    return int(np.sum(eigs > DEFAULT_ATOL)) >= 2


def _pair_subspace_specs(sig, perm, parity, tail):
    """Spanning family of pure specs for one (relabeling, parity, tail) cell."""
    p = sig.num_pairs
    strings = list(product(range(sig.d), repeat=p))
    inv_sqrt2 = 1 / np.sqrt(2)
    out = []
    for x in strings:
        out.append(PureStateSpec(sig, {x: 1.0}, parity, tail, perm))
    for a in range(len(strings)):
        for b in range(a + 1, len(strings)):
            x, y = strings[a], strings[b]
            out.append(PureStateSpec(sig, {x: inv_sqrt2, y: inv_sqrt2}, parity, tail, perm))
            out.append(PureStateSpec(sig, {x: inv_sqrt2, y: 1j * inv_sqrt2}, parity, tail, perm))
    return out


def span_dimensions(sig: SystemSignature) -> tuple:
    """Real linear dimensions spanned by product states and by all valid states.

    Returns ``(product_dim, valid_dim)``.  Product states of the
    classical/anti-classical split are diagonal, so their span is probed
    with basis projectors; the valid-state span is probed with a
    deterministic family that spans every paired subspace.  Ranks are
    singular-value counts above ``SPECTRAL_ATOL`` (relative to the largest).
    A composite whose two rank computations would cost more than
    ``SPAN_SVD_WORK`` is refused before anything is built.
    """
    p = sig.num_pairs
    tails = list(product(range(sig.d), repeat=abs(sig.m - sig.n)))
    parities = list(product(range(sig.d), repeat=p))
    from math import factorial

    from .systems import all_factor_permutations

    n_cells = factorial(sig.m) * factorial(sig.n) * len(parities) * len(tails)
    n_rows = n_cells * (sig.d**p) ** 2
    # an SVD of a rows x cols matrix costs about min(rows, cols)^2 * max(rows, cols)
    cols = 2 * sig.dim**2
    if max(min(r, cols) ** 2 * max(r, cols) for r in (sig.dim, n_rows)) > SPAN_SVD_WORK:
        raise DomainError("spanning family too large for this composite; reduce the system")
    rows_product = [np.diag(col).reshape(-1) for col in np.eye(sig.dim)]
    rows_valid = []
    for perm in all_factor_permutations(sig.m, sig.n):
        for parity in parities:
            for tail in tails:
                for spec in _pair_subspace_specs(sig, perm, parity, tail):
                    rows_valid.append(projector(build_pure_state(spec)).reshape(-1))

    def real_rank(rows):
        a = np.array(rows)
        stacked = np.hstack([a.real, a.imag])
        sv = np.linalg.svd(stacked, compute_uv=False)
        return int(np.sum(sv > SPECTRAL_ATOL * sv[0]))

    return real_rank(rows_product), real_rank(rows_valid)
