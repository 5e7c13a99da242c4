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
    MAX_ENTRY,
    SPECTRAL_ATOL,
    ZERO_ATOL,
    as_vector,
    factor_product,
    hermitian_part,
    low_rank_psd,
    off_diagonal_max,
    partial_trace,
    positive_zeros,
    projector,
    psd_defect,
    row_blocks,
    symmetrized,
    unit_vector,
    vector_norm,
)
from .systems import (
    MAX_COMPOSITE_DIM,
    FactorPermutation,
    SystemSignature,
    admissible_differences,
    as_integers,
    cover_entries,
    digits_to_index,
    index_table,
    index_to_digits,
)

# The Born rule (effects.born_probabilities) and a reversible map (dynamics._conjugate_monomial)
# read a state's factor above this dimension and its matrix at or below it, so that no corpus or
# demo state (the largest is 81 x 81) changes a byte of output: with the factor read at every
# size, the rows of 06_witness_born, 07_witness_sweep, 21_reversible_phases and the witness demo
# moved in their last digits.  The other kernels read a factor at every size.
FACTOR_PATH_DIM = 256

# at or below this dimension the cell test reads the whole operator: finding and gathering a
# support costs more there than the zero rows it skips
CELL_TEST_SUPPORT_DIM = 64

# Uncertified membership takes its spectral columns from a factor of rank up to dim // 4 from this
# dimension up, in O(dim^2 r) against eigh's O(dim^3): a factor of rank dim // 4 costs 0.66, 0.26
# and 0.12 of the eigh at dimensions 64, 256 and 1024 (they break even near rank 24, 170 and above
# 512), and an attempt that fails at the cap 0.29, 0.06 and 0.03.  Below it an eigh costs a few
# factor steps, and the factor is tried at rank 1 only, as admission tries it.
SPECTRAL_FACTOR_DIM = 16


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
        self.parity = as_integers(self.parity, "parity") or (0,) * sig.num_pairs
        self.tail = as_integers(self.tail, "tail") or (0,) * abs(sig.m - sig.n)
        if self.perm is None:
            self.perm = FactorPermutation.identity(sig.m, sig.n)
        if len(self.perm.sigma) != sig.m or len(self.perm.tau) != sig.n:
            raise DomainError("factor permutation shape does not match the signature")
        coeffs = {}
        for x, a in self.coeffs.items():
            x = as_integers(x if isinstance(x, (tuple, list)) else (x,), "coefficient key")
            if x in coeffs:
                raise DomainError(f"duplicate coefficient key {x}")
            coeffs[x] = complex(a)
        if not coeffs:
            raise DegenerateInputError("a pure state needs at least one coefficient")
        _check_row(sig, self.parity, self.tail, coeffs)
        self.coeffs = coeffs

    @classmethod
    def _admitted(cls, sig: SystemSignature, coeffs: dict, parity: tuple, tail: tuple,
                  perm: FactorPermutation = None) -> "PureStateSpec":
        """The spec of fields that are a paired state of ``sig`` by construction, stored as given
        (keys and digits tuples of ints, amplitudes complex) under ``perm``, else the identity."""
        spec = cls.__new__(cls)
        spec.sig, spec.coeffs, spec.parity, spec.tail = sig, coeffs, parity, tail
        spec.perm = perm or FactorPermutation.identity(sig.m, sig.n)
        return spec


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
    since construction is caught.  Every DSL pure state and certificate term is one spec, and
    for one spec this key-by-key loop is faster than the batch placement of
    :func:`draw_valid_states`, which puts the same amplitudes at the same indices."""
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


def as_rng(rng) -> np.random.Generator:
    """``rng`` itself if it is a ``numpy`` generator, else ``default_rng(rng)`` (PCG64)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _draw_fields(sig: SystemSignature, count: int, rng: np.random.Generator) -> tuple:
    """The fields of :func:`draw_valid_states`' ``count`` states: the ``(count, m + n)`` flat
    factor destinations of the relabelings, the ``(count, max(m, n))`` parity digits followed by
    the tail digits, and the ``(count, d**p)`` unit amplitudes of every key in
    ``itertools.product`` order."""
    d, m, n, p = sig.d, sig.m, sig.n, sig.num_pairs
    keys = d**p
    # a shuffle of at most one factor, or a draw of no digits, consumes nothing, so it is skipped
    sigma, tau = (rng.permuted(np.tile(np.arange(k), (count, 1)), axis=1) if k > 1
                  else np.zeros((count, k), int) for k in (m, n))
    parity, tail = (rng.integers(0, d, size=(count, k)) if k else np.zeros((count, 0), int)
                    for k in (p, abs(m - n)))
    z = rng.normal(size=(count, 2 * keys))
    sq = z * z  # re**2 and im**2, summed as np.sum would but without its per-call cost
    amps = (z[:, :keys] + 1j * z[:, keys:]) / np.sqrt(
        np.add.reduce(sq[:, :keys] + sq[:, keys:], axis=1, keepdims=True))
    return np.concatenate((sigma, tau + m), 1), np.concatenate((parity, tail), 1), amps


def draw_valid_states(sig: SystemSignature, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniformly sampled valid pure states of ``sig`` as ``(count, dim)`` vectors, drawn
    with one generator call per field and placed by one index computation for the whole batch.

    Draw order (fixed for reproducibility): the dit permutations, then the anti-dit
    permutations (each one ``rng.permuted`` call shuffling the rows in turn, as ``count``
    ``rng.permutation`` calls would), the parity digits, the tail digits, then one
    ``normal(size=(count, 2 * d**p))`` call whose row ``r`` holds state ``r``'s amplitude reals
    then its imaginaries.  A field with nothing to draw (at most one factor to permute, no pair,
    no tail) makes no call, so one row uses the generator as ``permutation``, ``integers`` and
    ``normal`` calls of its sizes do.

    Pair ``i`` puts key digit ``x_i`` on its dit and ``x_i + parity_i mod d`` on its anti-dit,
    the unpaired factors carry the tail, and the relabeling then moves each factor into place.
    """
    return _place_states(sig, *_draw_fields(sig, count, rng))


def _place_states(sig: SystemSignature, dest, digits, amps) -> np.ndarray:
    """The ``(count, dim)`` vectors of drawn fields (:func:`_draw_fields`), every ``(row, key)``
    placed by one index computation and one scatter."""
    d, m, n, p = sig.d, sig.m, sig.n, sig.num_pairs
    count = len(amps)
    # w[r, t]: the place value of the position that row r sends canonical factor t to
    w = np.asarray(index_table(sig).place)[dest]
    tail_w = w[:, p:m] if m > n else w[:, m + p :]
    idx = np.sum(digits[:, p:] * tail_w, axis=1)[:, None]
    # pair i adds, for its dit digit g, g on the dit and g + parity_i on the anti-dit; each
    # pair appends the next key digit, so the keys come out in itertools.product order
    g = np.arange(d)
    for i in range(p):
        pair = g * w[:, i, None] + (g + digits[:, i, None]) % d * w[:, m + i, None]
        idx = (idx[:, :, None] + pair[:, None, :]).reshape(count, -1)
    v = np.zeros((count, sig.dim), dtype=complex)
    v[np.arange(count)[:, None], idx] = amps
    return v


def random_valid_state(sig: SystemSignature, rng) -> PureStateSpec:
    """Uniformly sampled valid pure-state spec: the one-row draw of :func:`draw_valid_states`,
    which leaves the generator as that draw does and builds to the same vector."""
    return _row_spec(sig, _draw_fields(sig, 1, as_rng(rng)))


def _row_spec(sig: SystemSignature, row) -> PureStateSpec:
    """The spec of the one row of drawn fields ``row`` (:func:`_draw_fields`), stored as drawn."""
    (dest,), (digits,), (amps,) = row
    m, p = sig.m, sig.num_pairs
    coeffs = dict(zip(product(range(sig.d), repeat=p), amps.tolist()))
    digits = tuple(digits.tolist())
    perm = FactorPermutation(dest[:m], dest[m:] - m)
    return PureStateSpec._admitted(sig, coeffs, digits[:p], digits[p:], perm)


def _draw_terms(sig: SystemSignature, count: int, rng: np.random.Generator) -> tuple:
    """``count`` terms of a sampled mixture or effect, one :func:`random_valid_state` draw each:
    their ``(count, dim)`` vectors, placed as one :func:`draw_valid_states` batch, and specs."""
    rows = [_draw_fields(sig, 1, rng) for _ in range(count)]
    vecs = _place_states(sig, *map(np.concatenate, zip(*rows)))
    return vecs, [_row_spec(sig, row) for row in rows]


def random_mixed_state(sig: SystemSignature, rng):
    """Random convex mixture of one to three valid pure states; returns (state, certificate).

    Draw order: number of terms, Dirichlet weights, then the terms (:func:`_draw_terms`).  The
    state holds only its factor of columns ``sqrt(w_t) v_t``, at every size, and forms ``matrix``
    on the first read.  The certificate holds each term's weight and spec.
    """
    rng = as_rng(rng)
    n_terms = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(n_terms))
    vecs, specs = _draw_terms(sig, n_terms, rng)
    state = DensityState._factored(sig, vecs.T * np.sqrt(weights))
    return state, [(float(w), spec) for w, spec in zip(weights, specs)]


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

    One relabeling per pairing is searched, the rows of the cached
    :func:`~duoc.systems.index_table`.  Read in the layout before relabeling ``k``, a row's key
    code at its first largest amplitude names its cell, and its leak is the norm of its mass off
    that cell.  A row takes the first relabeling of leak at most ``atol`` (it is then valid),
    else the first of least leak; ``key`` names that cell.

    One vectorized pass settles most rows without a norm.  Per row it finds the first
    relabeling that does not clearly leak (clearly: an entry off its cell above
    ``max(2 atol, 1 / MAX_ENTRY)``, whose square rounds neither to ``atol**2`` nor to zero).
    If that relabeling has no nonzero entry off its cell, it wins with leak ``0.0``, the norm
    of exact zeros, just as the norm loop would return.  A valid state built exactly, such as
    a branch of ``run conditional``, is such a row unless an earlier relabeling leaks a little.
    The other rows (eigenvector columns, perturbed rows, invalid ones) take norms, relabeling
    by relabeling.  Rows and relabelings run in blocks that gather at most
    ``MAX_COMPOSITE_DIM**2 / 8`` bytes of magnitudes.
    """
    vecs = np.asarray(vecs, dtype=complex)
    if vecs.ndim != 2 or vecs.shape[1] != sig.dim:
        raise ShapeError(f"vectors of shape {vecs.shape} are not rows of length {sig.dim}")
    mag = np.abs(vecs)
    norms = np.sqrt(np.add.reduce(mag * mag, axis=1))
    # written so that a NaN or infinite entry fails it
    if not (ok := np.abs(norms - 1.0) <= DEFAULT_ATOL).all():
        raise NormalizationError(f"state vector has norm {norms[~ok][0]}, expected 1")
    key, gather = index_table(sig).key, index_table(sig).gather
    (pick, refs), leak = np.zeros((2, len(vecs)), dtype=np.intp), np.zeros(len(vecs))
    clear = max(2.0 * atol, 1 / MAX_ENTRY)
    # each block of rows and relabelings gathers at most MAX_COMPOSITE_DIM**2 / 8 bytes of
    # magnitudes; a table that fits one block is read as intp, which numpy indexes fastest
    kstep = MAX_COMPOSITE_DIM**2 // (64 * sig.dim)
    if whole := len(gather) <= kstep:
        gather = gather.astype(np.intp)
    step = max(1, kstep // len(gather))
    for lo in range(0, len(vecs), step):
        chunk = mag[lo : lo + step]
        keys, off, stray = _cell_leaks(chunk, key, gather) if whole else (
            np.concatenate(part, axis=1) for part in zip(*(
                _cell_leaks(chunk, key, gather[k : k + kstep])
                for k in range(0, len(gather), kstep))))
        rows = np.arange(len(chunk))
        # a row whose first relabeling with no entry above clear has no nonzero entry there
        # takes that relabeling with leak 0.0; the others loop
        first = (stray <= clear).argmax(axis=1)
        pick[lo : lo + step] = first
        for i in stray[rows, first].nonzero()[0]:
            # relabelings in order: the first leak at most atol, else the first least
            best, vec = (np.inf, 0), vecs[lo + i]
            for k, cols in enumerate(gather):
                if (lk := vector_norm(vec[cols[off[i, k]]])) < best[0]:
                    best = (lk, k)
                if lk <= atol:
                    break
            leak[lo + i], pick[lo + i] = best
        refs[lo : lo + step] = keys[rows, pick[lo : lo + step]]
    return leak <= atol, leak, pick, refs


def _cell_leaks(mag, key, gather) -> tuple:
    """Per row of magnitudes ``mag`` and relabeling row of ``gather``: the key at the first
    largest amplitude in that relabeling's layout, the mask of the entries off that cell, and
    the largest magnitude there."""
    # numpy reduces fastest along the longer of the row and entry axes laid out innermost; the
    # table is in range, and mode="raise" took allocations that raised a run's peak RSS by 7 MB
    near = np.take(mag, gather, axis=1, mode="clip") if len(mag) < mag.shape[1] else mag[:, gather]
    keys = key[near.argmax(axis=2)]
    off = key != keys[..., None]
    near *= off
    return keys, off, np.maximum.reduce(near, axis=2)


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
    digits form the tail, so once the digits are checked the fields are
    stored as built.
    """
    digits = as_integers(digits, "digits")
    if len(digits) != sig.num_factors:
        raise DomainError(f"need {sig.num_factors} digits, got {len(digits)}")
    if any(g < 0 or g >= sig.d for g in digits):
        raise DomainError(f"digits {digits} must lie in 0..{sig.d - 1}")
    p = sig.num_pairs
    dits, antis = digits[: sig.m], digits[sig.m :]
    parity = tuple((antis[i] - dits[i]) % sig.d for i in range(p))
    tail = dits[p:] if sig.m > sig.n else antis[p:]
    return PureStateSpec._admitted(sig, {dits[:p]: 1 + 0j}, parity, tail)


class DensityState:
    """Density matrix tagged with its composite signature.

    Construction enforces Hermiticity, positivity and unit trace within
    ``atol = DEFAULT_ATOL`` (eigenvalues may dip to ``-atol``); it does not
    by itself certify membership in the model's state set.

    Positivity is decided on the stored (symmetrized) matrix by
    :func:`~duoc.linalg.psd_defect` at ``atol``: a low-rank factor, then a
    Cholesky factorization of ``matrix + atol*I``, then ``eigvalsh``, which
    gives the eigenvalue reported in the error.  The verdict can differ from
    ``eigvalsh`` alone only within rounding (about ``dim * eps``) of ``-atol``.

    A state derived from admitted ones is valid by construction: :meth:`_admitted`
    checks its shape and trace only.  A projector and a product are stored as
    built, the rest :func:`~duoc.linalg.symmetrized`, byte for byte what this
    constructor stores.

    A low-rank state keeps a ``(dim, r)`` factor ``F`` with ``matrix = F F^H`` as ``factor``
    (``None`` on a state without one).  A pure state (:meth:`from_vector`) is the case
    ``r = 1``, its unit vector as one column; this constructor keeps the factor that
    :func:`~duoc.linalg.low_rank_psd` accepted during admission (rank at most
    ``max(1, dim // 64)``; :func:`_unit_factor`) beside the matrix it stores.  A state made from
    a factor (:meth:`_factored`) forms ``matrix``, :func:`~duoc.linalg.factor_product` of the
    factor, on the first read, once.

    At every size the product of two factored states, a marginal and a conditional read the
    factor, and membership reads it where :func:`_off_cell` does; a reversible map and the Born
    rule read it above :data:`FACTOR_PATH_DIM` only (:func:`large_factor`).  For an admitted
    ``M`` the factor leaves a remainder ``R = M - F F^H`` with ``||R||_F <= DEFAULT_ATOL``, so a
    state derived from it differs from the dense path's by the image of ``R``: in Frobenius norm
    at most ``||R||_F`` for a reversible map, and for a marginal, a conditional or a Born
    probability at most the trace norm of ``R`` (a contraction of it; ``||R||_1 <= sqrt(rank R)
    ||R||_F``).
    """

    def __init__(self, sig: SystemSignature, matrix):
        # hermitian_part coerces the input and checks it is finite and square
        sym, defect = hermitian_part(matrix)
        # a wrong size is _require_trace's to report, ahead of the defect
        if sym.shape[0] == sig.dim and defect > DEFAULT_ATOL:
            raise DensityMatrixError(f"matrix is not Hermitian (defect {defect})")
        _require_trace(sig, sym.shape[0], np.trace(sym))
        short, factor = psd_defect(sym, DEFAULT_ATOL)
        if short > DEFAULT_ATOL:
            raise DensityMatrixError(f"matrix has negative eigenvalue {-short}")
        self.sig, self._matrix, self.factor = sig, sym, _unit_factor(factor)

    @classmethod
    def _admitted(cls, sig: SystemSignature, matrix: np.ndarray, factor=None) -> "DensityState":
        """The state of a ``matrix`` Hermitian and PSD by construction, keeping a low-rank
        ``factor`` of it as :func:`_unit_factor` rules; checks shape and trace."""
        _require_trace(sig, matrix.shape[0], np.trace(matrix))
        rho = cls.__new__(cls)
        rho.sig, rho._matrix, rho.factor = sig, matrix, _unit_factor(factor)
        return rho

    @classmethod
    def _factored(cls, sig: SystemSignature, factor: np.ndarray) -> "DensityState":
        """The state ``F F^H`` of a ``(dim, r)`` factor of unit squared norm by construction;
        checks its rows and that norm."""
        _require_trace(sig, factor.shape[0], np.vdot(factor, factor))
        rho = cls.__new__(cls)
        rho.sig, rho._matrix, rho.factor = sig, None, factor
        return rho

    @classmethod
    def from_vector(cls, sig: SystemSignature, v) -> "DensityState":
        """The pure state of ``v`` over its norm; its ``matrix`` is ``projector(v)``."""
        return cls._factored(sig, unit_vector(v)[:, None])

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = factor_product(self.factor)
        return self._matrix

    @property
    def dim(self) -> int:
        return self.sig.dim

    def __repr__(self):
        if self._matrix is None:
            return f"DensityState(sig={self.sig!r}, factor={self.factor!r})"
        return f"DensityState(sig={self.sig!r}, matrix={self._matrix!r})"


def _unit_factor(factor):
    """``factor`` if its squared norm is within ``DEFAULT_ATOL`` of 1, else ``None``: the states
    the kernels derive from a kept factor must pass :func:`_require_trace` in turn."""
    unit = factor is not None and abs(np.vdot(factor, factor).real - 1.0) <= DEFAULT_ATOL
    return factor if unit else None


def _require_trace(sig: SystemSignature, size: int, trace) -> None:
    """Raise unless an operator of ``size`` rows and trace ``trace`` has ``sig``'s dimension and
    unit trace (NaN fails)."""
    if size != sig.dim:
        raise ShapeError(f"matrix dim {size} != composite dimension {sig.dim}")
    tr = float(np.real(trace))
    if not abs(tr - 1.0) <= DEFAULT_ATOL:
        raise DensityMatrixError(f"matrix has trace {tr}, expected 1")


def large_factor(rho: DensityState):
    """``rho``'s factor when it has one and its dimension is above :data:`FACTOR_PATH_DIM`, else
    ``None``: the Born rule (:func:`~duoc.effects.born_probabilities`) and a reversible map
    (:func:`~duoc.dynamics.apply_reversible`) then read the factor, with no dim x dim matrix."""
    return rho.factor if rho.sig.dim > FACTOR_PATH_DIM else None


def product_order(left: SystemSignature, right: SystemSignature) -> list:
    """Factor ``q`` of a product is factor ``order[q]`` of ``left`` and ``right`` side by side:
    left dits, right dits, left anti-dits, right anti-dits."""
    kl, kr, ml, mr = left.num_factors, right.num_factors, left.m, right.m
    return [*range(ml), *range(kl, kl + mr), *range(ml, kl), *range(kl + mr, kl + kr)]


def product_state(left: DensityState, right: DensityState) -> DensityState:
    """The product of two states on one local dimension, in the layout of :func:`product_order`;
    of two factored states, the state of the ``r_l r_r`` columns ``kron(F_l[:, k], F_r[:, l])``,
    each reordered."""
    if left.sig.d != right.sig.d:
        raise DomainError("product states need a common local dimension")
    sig = SystemSignature(left.sig.d, left.sig.m + right.sig.m, left.sig.n + right.sig.n)
    order = product_order(left.sig, right.sig)
    if left.factor is not None and right.factor is not None:
        cols = left.factor[:, None, :, None] * right.factor[None, :, None, :]
        cols = cols.reshape(*left.sig.dims, *right.sig.dims, -1)
        return DensityState._factored(sig, cols.transpose(*order, len(order)).reshape(sig.dim, -1))
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
        if not all(isinstance(w, Real) for w in weights):
            raise DomainError("separable weights must be real numbers")
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
        for label, w in spec.gamma.items():
            if len(label := as_integers(label, "basis labels")) != 2:
                raise DomainError(f"basis labels {label} must be one digit per factor")
            i, j = label
            if not (0 <= i < d and 0 <= j < d):
                raise DomainError(f"basis labels ({i}, {j}) out of range for d={d}")
            rho[i * d + j, i * d + j] += w
    else:
        for w, dits, anti in spec.terms:
            dits = as_integers(dits, "dit string")
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

    A ``certificate``, a list of ``(weight, PureStateSpec)``, decides by reconstruction: the
    largest modulus of ``sum_t w_t |v_t><v_t| - rho``, formed and read one
    :func:`~duoc.linalg.row_blocks` block at a time, with no dim x dim temporary besides the
    matrix (formed from the factor, and not kept, if the state has not formed it).  Else
    mass above ``DEFAULT_ATOL`` on an entry that no cell covers (the cell test, :func:`_off_cell`)
    rejects exactly; with one pairing the cells are disjoint blocks and a pass is exact too.
    Otherwise the spectral decomposition is tried as a candidate certificate; a negative answer
    from that path is flagged ``NON-EXHAUSTIVE`` unless it tested one column ``u`` too far from
    every cell for any mixture: each needs ``dist(u)^2 q <= tr - q`` for ``q = <u|rho|u>``.

    The test reads what the state holds, with one residual either way (:func:`_off_cell`).  Its
    spectral columns come from one factor, the state's own, else :func:`~duoc.linalg.low_rank_psd`
    of the matrix at the membership cap (rank ``dim // 4`` from :data:`SPECTRAL_FACTOR_DIM` up, 1
    below it; admission's is ``max(1, dim // 64)``): its left singular vectors of
    ``sigma^2 > DEFAULT_ATOL``, the eigenvectors ``eigh`` would keep; with neither, ``eigh``
    gives them.
    """
    return validate_cone_member(rho.sig, rho._matrix, certificate, rho.factor)


def validate_cone_member(sig, mat, certificate=None, factor=None) -> ValidityReport:
    """Membership test shared by valid states and effects; see :func:`validate_mixed_state`.
    ``mat`` (``None`` if not formed), a ``(dim, r)`` ``factor`` with ``mat = F F^H``, or both;
    ``mat`` must be exactly Hermitian, as every admitted state, effect and Choi state is."""
    if mat is None and (certificate is not None or sig.dim <= CELL_TEST_SUPPORT_DIM):
        mat = factor_product(factor)  # what ``matrix`` forms
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
        # sum_t w_t |v_t><v_t| over unit columns v_t, one product row block at a time
        vecs = np.stack([build_pure_state(spec) for _, spec in certificate], axis=1)
        vecs /= np.linalg.norm(vecs, axis=0)
        weighted = vecs * [max(float(w), 0.0) for w, _ in certificate]
        adjoint, defect = vecs.conj().T, 0.0
        for rows in row_blocks(sig.dim):
            recon = weighted[rows] @ adjoint
            recon -= mat[rows]
            defect = max(defect, float(np.max(np.abs(recon))))
        return ValidityReport(defect <= DEFAULT_ATOL, defect, witness="certificate")
    # every valid operator is zero off the cells; with one pairing they are disjoint blocks
    off = _off_cell(sig, mat, factor)
    if off > DEFAULT_ATOL or len(index_table(sig).relabelings) == 1:
        return ValidityReport(off <= DEFAULT_ATOL, off, witness="cell test")
    # fall back to the spectral decomposition as a candidate certificate, from a factor if any
    if factor is None:
        factor = low_rank_psd(mat, sig.dim // 4 if sig.dim >= SPECTRAL_FACTOR_DIM else 1)
    if factor is not None:  # in eigh's ascending order
        left, sing = np.linalg.svd(factor, full_matrices=False)[:2]
        cols = left[:, sing * sing > DEFAULT_ATOL].T[::-1]
    else:
        vals, vecs = np.linalg.eigh(mat)
        cols = vecs[:, vals > DEFAULT_ATOL].T
    valid, leak = pattern_test(cols, sig, atol=SPECTRAL_ATOL)[:2] if len(cols) else ((), ())
    if not all(valid):
        # a valid term a lies on a cell, so |<u,a>| dist(u) <= |a - <u,a> u| and dist^2 q <= tr - q;
        # one column past that bound (DEFAULT_ATOL tr for rounding) is rejected exactly
        flags = ("NON-EXHAUSTIVE",)
        if len(cols) == 1:
            table, u = index_table(sig), cols[0]
            near = max(np.bincount(table.key, np.abs(u[g]) ** 2).max() for g in table.gather)
            q, tr = (u.conj() @ mat @ u, np.trace(mat)) if mat is not None else (
                vector_norm(u.conj() @ factor) ** 2, np.vdot(factor, factor))
            flags = () if (2.0 - near) * q.real > (1.0 + DEFAULT_ATOL) * tr.real else flags
        return ValidityReport(False, float(leak[np.argmin(valid)]), "spectral decomposition", flags)
    return ValidityReport(True, float(max(leak, default=0.0)), witness="spectral decomposition")


def _off_cell(sig: SystemSignature, mat, factor=None) -> float:
    """The largest modulus of ``mat`` on an entry that no cell covers, read in
    :func:`~duoc.linalg.row_blocks` with no dim x dim array.  At or below
    :data:`CELL_TEST_SUPPORT_DIM` it reads the whole of ``mat``; above it only the rows and
    columns of the support (none gives ``0.0``), of a ``(dim, r)`` ``factor`` with
    ``mat = F F^H`` if given: ``|F_rows F_support^H|``.

    Exact only for an exactly Hermitian ``mat``, as every caller passes: its zero rows are then
    its zero columns, so the support's rows and columns hold every nonzero entry."""
    support, size = slice(None), sig.dim  # a slice reads rows and codes with no gather
    if size <= CELL_TEST_SUPPORT_DIM:
        factor = None
    else:
        nonzero = (mat if factor is None else factor).any(axis=1)
        if not (size := int(np.count_nonzero(nonzero))):
            return 0.0
        if size < sig.dim:
            support = np.flatnonzero(nonzero)
    if factor is not None:
        factor = factor[support]
        adjoint = factor.conj().T
    off = 0.0
    for rows in row_blocks(size):
        index = rows if isinstance(support, slice) else support[rows]
        block = np.abs(mat[index][:, support] if factor is None else factor[rows] @ adjoint)
        np.putmask(block, cover_entries(sig, index, support), 0.0)
        off = max(off, float(block.max()))
    return off


def marginal_state(rho: DensityState, keep) -> DensityState:
    """Reduced state on the factors listed in ``keep`` (ascending positions); of a state of
    factor ``F``, ``symmetrized(A A^H)`` with ``A`` the factor reshaped kept factors by the rest
    and its columns."""
    keep = tuple(sorted(as_integers(keep)))
    sub = rho.sig.sub_signature(keep)
    if (factor := rho.factor) is not None:
        nfac = rho.sig.num_factors
        rest = [t for t in range(nfac) if t not in keep]
        mat = factor.reshape(*rho.sig.dims, -1).transpose(*keep, *rest, nfac).reshape(sub.dim, -1)
        return DensityState._admitted(sub, symmetrized(mat @ mat.conj().T))
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
    marg = marginal_state(DensityState.from_vector(sig, v), (0,)).matrix
    return int(np.sum(np.linalg.eigvalsh(marg) > DEFAULT_ATOL)) >= 2


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
