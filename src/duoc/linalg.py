"""Dense tensor-network primitives.

Composite indices follow the usual Kronecker convention: the leftmost
factor is the most significant digit, so ``kron(a, b)`` acts on the
composite index ``i*dim_b + j``.  All operators are dense complex
``numpy`` arrays.

The symmetrization (:func:`hermitian_part`, :func:`symmetrized`) is one
untiled pass; only the residual of :func:`low_rank_psd` walks a matrix
above 256 x 256 in 1 MB row blocks, which stay in cache.
"""

from __future__ import annotations

import math
import string

import numpy as np

from .errors import DegenerateInputError, DomainError, ShapeError

# The tolerance table: every numerical threshold of the engine is one of these.
DEFAULT_ATOL = 1e-10  # equality checks on states, effects, POVMs, unit vectors and channels
ZERO_ATOL = 1e-12  # a magnitude treated as zero: weight slack, null branch, zero norm, eigenvalue
INPUT_ATOL = 1e-9  # typed activation coefficients, script asserts, map spot checks
SPECTRAL_ATOL = 1e-8  # quantities read off an eigendecomposition

# The row blocks of low_rank_psd's residual: 2^16 complex entries (1 MB), all of a 256 x 256 matrix
BLOCK_ENTRIES = 1 << 16

# The largest entry modulus of a vector: its squared norm stays finite up to 10^8 entries
MAX_ENTRY = 1e150

_AXIS_LABELS = string.ascii_letters


def as_vector(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D complex vector whose squared norm cannot overflow."""
    v = np.asarray(x, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not (top := np.abs(v).max()) <= MAX_ENTRY:  # NaN and inf fail too
        if not np.isfinite(top):
            raise ShapeError("vector contains non-finite entries")
        raise DomainError(f"vector entry of modulus {top:.3g} exceeds {MAX_ENTRY:g}")
    return v


def as_operator(x) -> np.ndarray:
    """Coerce ``x`` to a finite square complex matrix."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a nonempty square matrix, got shape {m.shape}")
    return as_operators(m)


def as_operators(x) -> np.ndarray:
    """Coerce ``x`` to a stack of finite square complex matrices on its last two axes, checked
    in one pass over the stack with the messages :func:`as_operator` gives for one matrix."""
    m = np.asarray(x, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ShapeError(f"expected a nonempty square matrix, got shape {m.shape[-2:]}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix contains non-finite entries")
    return m


def vector_norm(v) -> float:
    """``np.linalg.norm`` of a 1-D complex array, in its arithmetic (the dot products of the
    real and imaginary parts, then a square root) without its call overhead."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def tensor_all(*factors) -> np.ndarray:
    """Kronecker product of any number of vectors or operators, left to right."""
    if not factors:
        raise DegenerateInputError("tensor_all needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def projector(v) -> np.ndarray:
    """Rank-1 projector onto ``v``, normalizing first; its own :func:`hermitian_part` byte for byte.

    A fused multiply-add rounds the imaginary part of ``np.outer(vec, conj(vec))`` differently at
    ``(i, j)`` and ``(j, i)``, so that part is ``im_i re_j - re_i im_j``, exactly antisymmetric.

    Raises
    ------
    DegenerateInputError
        If ``v`` has norm below ``ZERO_ATOL`` (direction undefined).
    """
    vec = as_vector(v)
    nrm = vector_norm(vec)
    if nrm < ZERO_ATOL:
        raise DegenerateInputError("cannot project onto a (near-)zero vector")
    vec = vec / nrm
    re, im = vec.real, vec.imag
    out = vec[:, None] * vec.conj()
    np.subtract(im[:, None] * re, re[:, None] * im, out=out.imag)
    return positive_zeros(out)


def positive_zeros(mat) -> np.ndarray:
    """``mat`` with every zero made ``+0``, in place.  An exactly Hermitian matrix with no ``-0``
    is its own :func:`hermitian_part` byte for byte; a ``-0`` need not survive its halving."""
    mat += 0
    return mat


def _check_dims(dims, size):
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ShapeError(f"factor dimensions must be positive, got {dims}")
    total = int(np.prod(dims)) if dims else 1
    if total != size:
        raise ShapeError(f"factor dimensions {dims} do not multiply to {size}")
    return dims


def partial_trace(op, dims, keep) -> np.ndarray:
    """Trace out all factors not listed in ``keep``.

    Parameters
    ----------
    op : array
        Square operator on the full composite.
    dims : sequence of int
        Dimension of each tensor factor, most significant first.
    keep : set of int
        Factor positions to retain, each in ``range(len(dims))``.
        Treated as a set: the output factors appear in ascending
        position order regardless of how ``keep`` is written.

    Returns
    -------
    numpy.ndarray
        Operator on the kept factors.
    """
    mat = as_operator(op)
    dims = _check_dims(dims, mat.shape[0])
    keep = tuple(sorted(int(k) for k in keep))
    nfac = len(dims)
    if len(set(keep)) != len(keep) or any(k < 0 or k >= nfac for k in keep):
        raise ShapeError(f"keep positions {keep} invalid for {nfac} factors")
    if not keep:
        return np.array([[np.trace(mat)]], dtype=complex)

    tensor = mat.reshape(dims + dims)
    row = [""] * nfac
    col = [""] * nfac
    next_label = 0
    out_labels = []
    for k in keep:
        row[k] = _AXIS_LABELS[next_label]
        col[k] = _AXIS_LABELS[next_label + 1]
        out_labels.append((row[k], col[k]))
        next_label += 2
    for t in range(nfac):
        if row[t] == "":
            # traced factor: same label on row and column axis
            row[t] = col[t] = _AXIS_LABELS[next_label]
            next_label += 1
    spec = "".join(row) + "".join(col) + "->" + "".join(r for r, _ in out_labels) + "".join(
        c for _, c in out_labels
    )
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return np.einsum(spec, tensor).reshape(kept_dim, kept_dim)


def _split_factors(positions, dims, op_dim):
    """Check ``positions`` for an operator of dimension ``op_dim``; returns them and the rest."""
    positions = tuple(int(p) for p in positions)
    nfac = len(dims)
    if len(set(positions)) != len(positions) or any(p < 0 or p >= nfac for p in positions):
        raise ShapeError(f"positions {positions} invalid for {nfac} factors")
    sub = int(np.prod([dims[p] for p in positions]))
    if op_dim != sub:
        raise ShapeError(f"operator dim {op_dim} != product of target dims {sub}")
    return positions, [t for t in range(nfac) if t not in positions]


def embed_operator(op, positions, dims) -> np.ndarray:
    """Embed ``op`` into a larger composite, acting at ``positions``.

    ``op`` must act on ``len(positions)`` factors whose dimensions, read
    in order, are ``dims[positions[0]], dims[positions[1]], ...``.  The
    identity acts everywhere else.
    """
    small = as_operator(op)
    dims = tuple(int(d) for d in dims)
    positions, rest = _split_factors(positions, dims, small.shape[0])
    nfac = len(dims)
    rest_dim = int(np.prod([dims[t] for t in rest])) if rest else 1
    full = np.kron(small, np.eye(rest_dim, dtype=complex))
    # source factor order is positions + rest; permute axes back to 0..nfac-1
    src_order = list(positions) + rest
    src_dims = tuple(dims[t] for t in src_order)
    tensor = full.reshape(src_dims + src_dims)
    axis_of = {fac: ax for ax, fac in enumerate(src_order)}
    perm = [axis_of[t] for t in range(nfac)]
    tensor = tensor.transpose(perm + [nfac + p for p in perm])
    total = int(np.prod(dims))
    return tensor.reshape(total, total)


def contract_effect(op, rho, positions, dims) -> np.ndarray:
    """``Tr_S[(E_S x I) rho]``, contracted on the tensor axes of ``rho`` in O(dim^2).

    ``op`` acts on the factors at ``positions`` in that order, as in
    :func:`embed_operator`; the result acts on the other factors in
    ascending order, and its trace is ``Tr[(E_S x I) rho]``.  A stack of
    states ``rho`` (one leading axis) takes a stack of as many effects and
    gives the stack of their contractions.
    """
    small, mat = np.asarray(op, dtype=complex), np.asarray(rho, dtype=complex)
    lead = mat.shape[:-2]
    if small.ndim != mat.ndim or len(lead) > 1 or small.shape[:-2] != lead:
        raise ShapeError(f"effects {small.shape} cannot pair with states {mat.shape}")
    small, mat = as_operators(small), as_operators(mat)
    dims = _check_dims(dims, mat.shape[-1])
    positions, rest = _split_factors(positions, dims, small.shape[-1])
    nfac, sub = len(dims), small.shape[-1]
    rest_dim = mat.shape[-1] // sub
    # axes (a, b, x, y) hold rho[(b, x), (a, y)]; sum over a, b of E[a, b] times that
    axes = [nfac + p for p in positions] + list(positions) + rest + [nfac + t for t in rest]
    tensor = mat.reshape(lead + dims + dims).transpose(
        list(range(len(lead))) + [len(lead) + a for a in axes])
    out = small.reshape(lead + (1, sub * sub)) @ tensor.reshape(
        lead + (sub * sub, rest_dim * rest_dim))
    return out.reshape(lead + (rest_dim, rest_dim))


def permute_vector_factors(v, dims, dest) -> np.ndarray:
    """Reorder tensor factors of a vector.

    ``dest[t]`` is the output position of input factor ``t``.
    """
    vec = as_vector(v)
    dims = _check_dims(dims, vec.size)
    nfac = len(dims)
    dest = tuple(int(p) for p in dest)
    if sorted(dest) != list(range(nfac)):
        raise ShapeError(f"destination {dest} is not a permutation of 0..{nfac - 1}")
    # output axis q holds the input factor t with dest[t] == q
    inv = np.argsort(dest)
    return vec.reshape(dims).transpose(inv).reshape(-1)


def hermitian_part(op) -> tuple:
    """``(symmetrized(op), max |op^H - op|)`` of a finite square ``op``."""
    mat = as_operator(op)
    sym = mat.T.copy()  # a contiguous adjoint: a strided view or out-of-place temporaries cost more
    np.conjugate(sym, out=sym)
    defect = float(np.max(np.abs(sym - mat)))
    sym += mat
    sym /= 2
    return sym, defect


def symmetrized(mat) -> np.ndarray:
    """``(mat + mat^H) / 2`` of a matrix or of each in a stack (last two axes), exactly Hermitian,
    in one untiled pass with no defect scan."""
    sym = mat.swapaxes(-1, -2).copy()
    np.conjugate(sym, out=sym)
    sym += mat
    sym /= 2
    return sym


def row_blocks(dim: int) -> list:
    """Row slices of ``BLOCK_ENTRIES // dim`` rows (at least one) covering a ``dim``-row matrix."""
    step = max(1, BLOCK_ENTRIES // dim)
    return [slice(r, r + step) for r in range(0, dim, step)]


def low_rank_psd(mat) -> bool:
    """True when a low-rank factor proves no eigenvalue of Hermitian ``mat`` is below ``-atol``.

    Here ``atol`` is ``DEFAULT_ATOL``, the tolerance of state admission.

    A pivoted partial Cholesky factorization (Higham 1990) builds ``L`` with
    at most ``dim // 64`` columns, stopping once no remaining diagonal entry
    exceeds ``atol / dim`` (a PSD remainder is then below ``atol`` in trace,
    hence in Frobenius norm).  Each pivot column is read as a conjugated
    row, which equals the column of an exactly Hermitian ``mat``.  True only
    if the residual, summed over :func:`row_blocks`, has
    ``||mat - L L^H||_F <= atol``: by Weyl's inequality no eigenvalue is
    then below ``-atol``.  False decides nothing.
    """
    dim = mat.shape[0]
    # k <= dim // 64 columns keep the residual product (dim^2 k) far below a Cholesky (dim^3 / 3);
    # a rank above the cap gives up after O(dim k^2) work, before any dim^2 step
    cap = dim // 64
    if cap == 0:
        return False
    rest = mat.diagonal().real.copy()  # diagonal of the Schur complement left to factor
    cols = np.empty((dim, cap), dtype=complex)
    for k in range(cap + 1):
        p = int(np.argmax(rest))
        if rest[p] <= DEFAULT_ATOL / dim:
            break
        if k == cap:
            return False
        col = mat[p].conj()
        col -= cols[:, :k] @ cols[p, :k].conj()
        col /= np.sqrt(rest[p])
        cols[:, k] = col
        rest -= col.real**2 + col.imag**2
    adjoint = cols[:, :k].conj().T
    square = 0.0
    for rows in row_blocks(dim):
        # a rank-1 product broadcast costs less than a matmul of inner dimension 1
        resid = cols[rows, :1] * adjoint if k == 1 else cols[rows, :k] @ adjoint
        resid -= mat[rows]
        square += np.vdot(resid, resid).real
    return bool(math.sqrt(square) <= DEFAULT_ATOL)


def off_diagonal_max(mat) -> float:
    """Largest modulus among the off-diagonal entries of a square matrix."""
    mag = np.abs(mat)
    np.fill_diagonal(mag, 0.0)
    return float(np.max(mag))


def min_eigenvalue(op) -> float:
    """Smallest eigenvalue of a (numerically) Hermitian operator."""
    return float(np.linalg.eigvalsh(hermitian_part(op)[0])[0])

