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

import math
from dataclasses import dataclass
from itertools import product
from numbers import Real

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
    off_diagonal_max,
    partial_trace,
    positive_zeros,
    projector,
    symmetrized,
    vector_norm,
)
from .systems import (
    MAX_COMPOSITE_DIM,
    FactorPermutation,
    SystemSignature,
    admissible_differences,
    cell_cover,
    digits_to_index,
    factor_positions,
    index_table,
    index_to_digits,
)

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
        self.parity = tuple(int(x) for x in self.parity) or (0,) * sig.num_pairs
        self.tail = tuple(int(x) for x in self.tail) or (0,) * abs(sig.m - sig.n)
        if self.perm is None:
            self.perm = FactorPermutation.identity(sig.m, sig.n)
        if len(self.perm.sigma) != sig.m or len(self.perm.tau) != sig.n:
            raise DomainError("factor permutation shape does not match the signature")
        coeffs = {}
        for x, a in self.coeffs.items():
            x = tuple(int(g) for g in (x if isinstance(x, (tuple, list)) else (x,)))
            if x in coeffs:
                raise DomainError(f"duplicate coefficient key {x}")
            coeffs[x] = complex(a)
        if not coeffs:
            raise DegenerateInputError("a pure state needs at least one coefficient")
        _check_row(sig, self.parity, self.tail, coeffs)
        self.coeffs = coeffs


def _check_row(sig: SystemSignature, parity, tail, coeffs) -> None:
    """Raise unless ``parity``, ``tail`` and the keys and amplitudes of ``coeffs`` are the fields
    of a paired state of ``sig``: lengths matching, digits in ``0..d-1`` and unit norm."""
    p = sig.num_pairs
    if len(parity) != p or len(tail) != abs(sig.m - sig.n) or set(map(len, coeffs)) - {p}:
        raise DomainError(f"parity {parity}, tail {tail} or a coefficient key does not fit {sig}")
    if not set().union(parity, tail, *coeffs) <= set(range(sig.d)):
        raise DomainError(f"parity, tail and key digits must lie in 0..{sig.d - 1}")
    total = sum(abs(a) * abs(a) for a in coeffs.values())  # a huge one is inf, not OverflowError
    # written so that a NaN amplitude fails it
    if not abs(total - 1.0) <= DEFAULT_ATOL:
        raise NormalizationError(f"coefficients have squared norm {total}, expected 1")


def build_pure_state(spec: PureStateSpec) -> np.ndarray:
    """Dense state vector for a :class:`PureStateSpec`, checked again so that a spec changed
    since construction is caught.  For one row this key-by-key loop is faster than the array
    placement of :func:`build_states`, and puts the same amplitudes at the same indices."""
    sig, coeffs = spec.sig, spec.coeffs
    d, m, n, p = sig.d, sig.m, sig.n, sig.num_pairs
    _check_row(sig, spec.parity, spec.tail, coeffs)
    place = index_table(sig).place
    # canonical factor t lands on position dest[t] and takes that place value
    w = [place[q] for q in spec.perm.destinations(m, n)]
    tail_w = w[p:m] if m > n else w[m + p :]
    base = sum(t * wt for t, wt in zip(spec.tail, tail_w))
    pairs = list(zip(spec.parity, w[:p], w[m : m + p]))
    v = np.zeros(sig.dim, dtype=complex)
    for x, amp in coeffs.items():
        idx = base
        for g, (s, wd, wa) in zip(x, pairs):
            idx += g * wd + (g + s) % d * wa
        v[idx] = amp
    return v


def build_states(sig: SystemSignature, rows) -> np.ndarray:
    """Dense vectors ``(N, dim)`` of paired states, one per row ``(dest, digits, amps)`` of
    :func:`draw_valid_state`, placed by one index computation for the whole batch.

    ``amps`` holds the amplitude of every digit string ``x`` in ``itertools.product`` order:
    pair ``i`` puts ``x_i`` on its dit and ``x_i + parity_i mod d`` on its anti-dit, the
    unpaired factors carry the tail (``digits`` is the parity vector, then the tail), and
    canonical factor ``t`` moves to ``dest[t]``.  The rows are checked together as
    :class:`PureStateSpec` checks its fields (lengths, digits in ``0..d-1``, unit norm),
    with its exception types and messages.
    """
    d, m, n, p = sig.d, sig.m, sig.n, sig.num_pairs
    width, keys = max(m, n), d**p
    dest, digits, amps = zip(*rows)
    if set(map(len, digits)) != {width} or set(map(len, amps)) != {keys}:
        x = next(x for x, a in zip(digits, amps) if (len(x), len(a)) != (width, keys))
        parity, tail = tuple(map(int, x[:p])), tuple(map(int, x[p:]))
        raise DomainError(f"parity {parity}, tail {tail} or a coefficient key does not fit {sig}")
    dest, digits, amps = (np.concatenate(f).reshape(len(rows), -1) for f in (dest, digits, amps))
    if digits.min() < 0 or digits.max() >= d:
        raise DomainError(f"parity, tail and key digits must lie in 0..{d - 1}")
    total = np.sum(amps.real**2 + amps.imag**2, axis=1)
    # written so that a NaN amplitude fails it
    if not (ok := np.abs(total - 1.0) <= DEFAULT_ATOL).all():
        raise NormalizationError(f"coefficients have squared norm {total[~ok][0]}, expected 1")
    return _place_states(sig, dest, digits, amps)


def _place_states(sig: SystemSignature, dest, digits, amps) -> np.ndarray:
    """The vectors of :func:`build_states` for its rows stacked as ``(N, m + n)``, ``(N, max(m, n))``
    and ``(N, d**p)`` arrays, placed with no check."""
    d, m, n, p = sig.d, sig.m, sig.n, sig.num_pairs
    rows = len(amps)
    # w[r, t]: the place value of the position that row r sends canonical factor t to
    w = np.asarray(index_table(sig).place)[dest]
    tail_w = w[:, p:m] if m > n else w[:, m + p :]
    idx = np.sum(digits[:, p:] * tail_w, axis=1)[:, None]
    # pair i adds, for its dit digit g, g on the dit and g + parity_i on the anti-dit; each
    # pair appends the next key digit, so the keys come out in itertools.product order
    g = np.arange(d)
    for i in range(p):
        pair = g * w[:, i, None] + (g + digits[:, i, None]) % d * w[:, m + i, None]
        idx = (idx[:, :, None] + pair[:, None, :]).reshape(rows, -1)
    v = np.zeros((rows, sig.dim), dtype=complex)
    v[np.arange(rows)[:, None], idx] = amps
    return v


def as_rng(rng) -> np.random.Generator:
    """``rng`` itself if it is a ``numpy`` generator, else ``default_rng(rng)`` (PCG64)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def draw_valid_state(sig: SystemSignature, rng: np.random.Generator) -> tuple:
    """One uniformly sampled valid pure state of ``sig`` as a row of :func:`build_states`.

    Returns integer arrays of the flat factor destinations of the
    relabeling and of the parity digits followed by the tail, and the
    unit amplitude array of every key in ``itertools.product`` order.
    Draw order (fixed for reproducibility): dit permutation, anti-dit
    permutation, parity vector, tail, coefficient reals, coefficient
    imaginaries; the reals and imaginaries come from one ``normal`` call,
    which gives the values and generator state that two calls give.
    """
    d, m, n, p = sig.d, sig.m, sig.n, sig.num_pairs
    keys = d**p
    # a draw of no integers, or a shuffle of at most one, consumes nothing, so it is skipped
    sigma = rng.permutation(m) if m > 1 else np.arange(m)
    tau = rng.permutation(n) if n > 1 else np.arange(n)
    parity = rng.integers(0, d, size=p) if p else np.arange(0)
    tail = rng.integers(0, d, size=abs(m - n)) if m != n else np.arange(0)
    z = rng.normal(size=2 * keys)
    amps = z[:keys] + 1j * z[keys:]
    amps = amps / vector_norm(amps)
    return np.concatenate((sigma, tau + m)), np.concatenate((parity, tail)), amps


def draw_valid_states(sig: SystemSignature, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniformly sampled valid pure states of ``sig`` as ``(count, dim)`` vectors, drawn
    with one generator call per field and placed as :func:`build_states` places its rows.

    Draw order (fixed for reproducibility): the dit permutations and the anti-dit permutations
    (each row an argsort of uniforms), the parity digits, the tail digits, then one
    ``normal(size=(count, 2 * d**p))`` call whose row ``r`` holds state ``r``'s amplitude reals
    then its imaginaries.  A field with nothing to draw (at most one factor to permute, no pair,
    no tail) makes no call.
    """
    d, m, n, p = sig.d, sig.m, sig.n, sig.num_pairs
    keys = d**p
    sigma, tau = (rng.random((count, k)).argsort(axis=1) if k > 1 else np.zeros((count, k), int)
                  for k in (m, n))
    parity, tail = (rng.integers(0, d, size=(count, k)) if k else np.zeros((count, 0), int)
                    for k in (p, abs(m - n)))
    z = rng.normal(size=(count, 2 * keys))
    amps = z[:, :keys] + 1j * z[:, keys:]
    amps /= np.sqrt(np.sum(amps.real**2 + amps.imag**2, axis=1))[:, None]
    return _place_states(sig, np.hstack((sigma, tau + m)), np.hstack((parity, tail)), amps)


def random_valid_state(sig: SystemSignature, rng) -> PureStateSpec:
    """Uniformly sampled valid pure-state spec, drawn by :func:`draw_valid_state`."""
    dest, digits, amps = draw_valid_state(sig, as_rng(rng))
    m, p = sig.m, sig.num_pairs
    coeffs = dict(zip(product(range(sig.d), repeat=p), amps.tolist()))
    perm = FactorPermutation(dest[:m], dest[m:] - m)
    return PureStateSpec(sig, coeffs, parity=digits[:p], tail=digits[p:], perm=perm)


def random_mixed_state(sig: SystemSignature, rng):
    """Random convex mixture of one to three valid pure states; returns (state, certificate).

    Draw order: number of terms, Dirichlet weights, then one
    :func:`random_valid_state` per term.
    """
    rng = as_rng(rng)
    n_terms = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(n_terms))
    cert = []
    mat = np.zeros((sig.dim, sig.dim), dtype=complex)
    for t in range(n_terms):
        spec = random_valid_state(sig, rng)
        v = build_pure_state(spec)
        cert.append((float(weights[t]), spec))
        mat += weights[t] * np.outer(v, v.conj())
    return DensityState._admitted(sig, symmetrized(mat)), cert


def validate_pure_state(v, sig: SystemSignature, atol: float = DEFAULT_ATOL) -> ValidityReport:
    """Exhaustively test whether ``v`` is a valid pure state of ``sig``: the one-row case of
    :func:`pattern_test`, which searches every pairing of dits with anti-dits.

    The witness records the relabeling (the first of the winning pairing),
    parity vector and tail that exhibit the paired structure when valid, else
    those of the first pairing of least leaked mass.
    """
    vec = as_vector(v)
    if vec.size != sig.dim:
        raise ShapeError(f"vector length {vec.size} != composite dimension {sig.dim}")
    valid, leak, k, ref = (x[0] for x in pattern_test(vec[None], sig, atol))
    table = index_table(sig)
    perm, (parity, tail) = table.relabelings[k], table.split_key(ref)
    witness = {"sigma": perm.sigma, "tau": perm.tau, "parity": parity, "tail": tail}
    return ValidityReport(valid=bool(valid), residual=float(leak), witness=witness)


def pattern_test(vecs, sig: SystemSignature, atol: float = DEFAULT_ATOL) -> tuple:
    """The pure-state pattern test of each row of ``vecs``: ``(valid, leak, relabeling, key)``.

    One relabeling per pairing is searched, the rows of the cached :func:`~duoc.systems.index_table`
    (read as ``intp``, which numpy indexes fastest).  Read in the layout before relabeling ``k``,
    a row's key code at its first largest amplitude names its cell, and its leak is the norm of
    its mass off that cell.  A row takes the first relabeling of leak at most ``atol`` (it is
    then valid), else the first of least leak; ``key`` names that cell.  Rows run in chunks
    whose masks hold at most ``MAX_COMPOSITE_DIM**2`` booleans, as a cover at the cap does.
    """
    vecs = np.asarray(vecs, dtype=complex)
    if vecs.ndim != 2 or vecs.shape[1] != sig.dim:
        raise ShapeError(f"vectors of shape {vecs.shape} are not rows of length {sig.dim}")
    mag = np.abs(vecs)
    norms = np.sqrt(np.add.reduce(mag * mag, axis=1))
    # written so that a NaN or infinite entry fails it
    if not (ok := np.abs(norms - 1.0) <= DEFAULT_ATOL).all():
        raise NormalizationError(f"state vector has norm {norms[~ok][0]}, expected 1")
    key, gather = index_table(sig).key, index_table(sig).gather.astype(np.intp)
    (pick, refs), leak = np.zeros((2, len(vecs)), dtype=np.intp), np.zeros(len(vecs))
    step = max(1, MAX_COMPOSITE_DIM**2 // gather.size)
    for lo in range(0, len(vecs), step):
        top = (chunk := mag[lo : lo + step]) == chunk.max(axis=1, keepdims=True)
        # the key at each relabeling's first index of largest amplitude, in its own layout
        keys = key[top[:, gather].argmax(axis=2)]
        for i, (vec, off) in enumerate(zip(vecs[lo : lo + step], key != keys[..., None]), lo):
            # relabelings in order: the first leak at most atol, else the first least
            best = (np.inf, 0)
            for k, cols in enumerate(gather):
                if (lk := vector_norm(vec[cols[off[k]]])) < best[0]:
                    best = (lk, k)
                if lk <= atol:
                    break
            leak[i], pick[i] = best
        refs[lo : lo + step] = keys[np.arange(len(keys)), pick[lo : lo + step]]
    return leak <= atol, leak, pick, refs


def certificate_matches(spec: PureStateSpec, v) -> ValidityReport:
    """Whether ``v`` is ``spec``'s state up to global phase, by certificate reconstruction."""
    vec = as_vector(v)
    if vec.size != spec.sig.dim:
        raise ShapeError("vector length does not match the certificate's composite")
    rep = validate_cone_member(spec.sig, projector(vec), [(1.0, spec)])
    return ValidityReport(valid=rep.valid, residual=rep.residual, witness=spec)


def basis_state_spec(sig: SystemSignature, digits) -> PureStateSpec:
    """Spec of the computational basis state with the given digit string.

    Every basis product vector is a valid pure state: each dit/anti-dit
    pair has the definite parity read off its digits, and unpaired
    digits form the tail.
    """
    digits = tuple(int(g) for g in digits)
    if len(digits) != sig.num_factors:
        raise DomainError(f"need {sig.num_factors} digits, got {len(digits)}")
    if any(g < 0 or g >= sig.d for g in digits):
        raise DomainError(f"digits {digits} must lie in 0..{sig.d - 1}")
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

    A state derived from admitted ones is valid by construction: :meth:`_admitted`
    checks its shape and trace only.  A projector and a product are stored as
    built, the rest :func:`~duoc.linalg.symmetrized`, byte for byte what this
    constructor stores.
    """

    sig: SystemSignature
    matrix: np.ndarray

    def __post_init__(self):
        # hermitian_part coerces the input and checks it is finite and square
        sym, defect = hermitian_part(self.matrix)
        # a wrong size is _require_trace's to report, ahead of the defect
        if sym.shape[0] == self.sig.dim and defect > DEFAULT_ATOL:
            raise DensityMatrixError(f"matrix is not Hermitian (defect {defect})")
        _require_trace(self.sig, sym)
        if not low_rank_psd(sym):
            _require_psd(sym)
        self.matrix = sym

    @classmethod
    def _admitted(cls, sig: SystemSignature, matrix: np.ndarray) -> "DensityState":
        """The state of a ``matrix`` Hermitian and PSD by construction; checks shape and trace."""
        _require_trace(sig, matrix)
        rho = cls.__new__(cls)
        rho.sig, rho.matrix = sig, matrix
        return rho

    @classmethod
    def from_vector(cls, sig: SystemSignature, v) -> "DensityState":
        return cls._admitted(sig, projector(v))

    @property
    def dim(self) -> int:
        return self.sig.dim


def _require_trace(sig: SystemSignature, mat: np.ndarray) -> None:
    """Raise unless the square ``mat`` has ``sig``'s dimension and unit trace (NaN fails)."""
    if mat.shape[0] != sig.dim:
        raise ShapeError(f"matrix dim {mat.shape[0]} != composite dimension {sig.dim}")
    tr = float(np.real(np.trace(mat)))
    if not abs(tr - 1.0) <= DEFAULT_ATOL:
        raise DensityMatrixError(f"matrix has trace {tr}, expected 1")


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
    if not factored and (lo := float(np.linalg.eigvalsh(sym)[0])) < -DEFAULT_ATOL:
        raise DensityMatrixError(f"matrix has negative eigenvalue {lo}")


def product_order(left: SystemSignature, right: SystemSignature) -> list:
    """Factor ``q`` of a product is factor ``order[q]`` of ``left`` and ``right`` side by side:
    left dits, right dits, left anti-dits, right anti-dits."""
    kl, kr, ml, mr = left.num_factors, right.num_factors, left.m, right.m
    return [*range(ml), *range(kl, kl + mr), *range(ml, kl), *range(kl + mr, kl + kr)]


def product_state(left: DensityState, right: DensityState) -> DensityState:
    """The product of two states on one local dimension, in the layout of :func:`product_order`."""
    if left.sig.d != right.sig.d:
        raise DomainError("product states need a common local dimension")
    sig = SystemSignature(left.sig.d, left.sig.m + right.sig.m, left.sig.n + right.sig.n)
    order = product_order(left.sig, right.sig)
    mat = np.kron(left.matrix, right.matrix).reshape(sig.dims * 2)
    mat = mat.transpose(order + [sig.num_factors + t for t in order]).reshape(sig.dim, sig.dim)
    return DensityState._admitted(sig, positive_zeros(mat))


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


def validate_mixed_state(rho: DensityState, certificate=None) -> ValidityReport:
    """Test whether ``rho`` is a mixture of valid pure states.

    A certificate decides by reconstruction.  Else mass above ``DEFAULT_ATOL``
    on an entry that no cell covers (the cached :func:`~duoc.systems.cell_cover`)
    rejects exactly; with one pairing the cells are disjoint blocks and a
    pass is exact too.  Otherwise the eigendecomposition is tried as a
    candidate certificate; a negative answer from that path is flagged
    ``NON-EXHAUSTIVE``.

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
        if not all(isinstance(t, (tuple, list)) and len(t) == 2 and isinstance(t[0], Real)
                   and isinstance(t[1], PureStateSpec) for t in certificate):
            raise DomainError("certificate terms must be (real weight, PureStateSpec) pairs")
        if not all(math.isfinite(w) for w, _ in certificate):
            raise DomainError("certificate weights must be finite")
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
    # every valid operator is zero off the cells; with one pairing they are disjoint blocks
    mag = np.abs(mat)
    np.putmask(mag, cell_cover(sig), 0.0)
    if (off := float(np.max(mag))) > DEFAULT_ATOL or len(index_table(sig).relabelings) == 1:
        return ValidityReport(off <= DEFAULT_ATOL, off, witness="cell test")
    # fall back to the spectral decomposition as a candidate certificate
    vals, vecs = np.linalg.eigh(mat)
    cols = vecs[:, vals > DEFAULT_ATOL].T
    valid, leak = pattern_test(cols, sig, atol=SPECTRAL_ATOL)[:2] if len(cols) else ((), ())
    if not all(valid):
        return ValidityReport(False, float(leak[np.argmin(valid)]),
                              witness="spectral decomposition", flags=("NON-EXHAUSTIVE",))
    return ValidityReport(True, float(max(leak, default=0.0)), witness="spectral decomposition")


def marginal_state(rho: DensityState, keep) -> DensityState:
    """Reduced state on the factors listed in ``keep`` (ascending positions)."""
    keep = tuple(sorted(factor_positions(keep)))
    sub = rho.sig.sub_signature(keep)
    reduced = partial_trace(rho.matrix, rho.sig.dims, keep)
    return DensityState._admitted(sub, symmetrized(reduced))


def purify_classical_state(
    rho: DensityState,
    num_anti: int,
    parity=None,
    tail=None,
    tau=None,
) -> PureStateSpec:
    """Purify a classical state by pairing each dit with a fresh anti-dit.

    ``rho`` must be a valid (diagonal) state of an ``(m, 0)`` composite
    and ``num_anti >= m``.  The returned spec reads ``sum_c sqrt(p_c)
    |c> (X^s |c>) |tail>``; its marginal on the dits reproduces ``rho``
    exactly, for any parity vector, tail and anti-dit relabeling ``tau``.
    The dits themselves are never relabeled.
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
    coeffs = {index_to_digits(int(idx), d, m): np.sqrt(probs[idx])
              for idx in np.nonzero(probs > 0)[0]}
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


def span_dimensions(sig: SystemSignature) -> tuple:
    """Real linear dimensions ``(product_dim, valid_dim)`` spanned by product
    states and by all valid states, counted from the cell structure.

    Product states are diagonal and include the ``dim`` basis projectors, so
    ``product_dim = dim``.  ``valid_dim`` counts the entries ``(i, j)`` with ``i`` and
    ``j`` in one common cell, exactly: every valid pure state lies on one cell; the pure
    states of a cell span all Hermitian matrices on cell x cell; and in the real basis
    ``{E_ii, E_ij + E_ji, i(E_ij - E_ji)}`` these spans are coordinate subspaces, so
    their sum is spanned by the union of their supports, ``dim`` entries per admissible
    digit difference (:func:`~duoc.systems.admissible_differences`).
    """
    return sig.dim, sig.dim * int(np.count_nonzero(admissible_differences(sig)))
