"""Dense tensor-network primitives.

Composite indices follow the usual Kronecker convention: the leftmost
factor is the most significant digit, so ``kron(a, b)`` acts on the
composite index ``i*dim_b + j``.  All operators are dense complex
``numpy`` arrays.

The symmetrization (:func:`hermitian_part`, :func:`symmetrized`) is one
untiled pass.  Three entrywise checks walk a dense matrix in :func:`row_blocks`
of 1 MB, which stay in cache, and form no dim x dim temporary: a factor's
residual (:func:`factor_residual`), a certificate's reconstruction residual
(``states.validate_cone_member``) and the monomial test of a reversible map
(``dynamics.apply_reversible``); so does the cell test ``states._off_cell``.

A low-rank state is held as a ``(dim, r)`` factor ``F`` with ``rho = F F^H``:
:func:`low_rank_psd` returns the pivoted Cholesky factor it accepts, and
:func:`factor_product` forms ``F F^H`` exactly Hermitian, in blocks of 64 rows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, DomainError, ShapeError

# The tolerance table: every numerical threshold of the engine is one of these.
DEFAULT_ATOL = 1e-10  # equality checks on states, effects, POVMs, unit vectors and channels
ZERO_ATOL = 1e-12  # a magnitude treated as zero: weight slack, null branch, zero norm, eigenvalue
INPUT_ATOL = 1e-9  # typed activation coefficients, script asserts, map spot checks
SPECTRAL_ATOL = 1e-8  # quantities read off an eigendecomposition

# The row blocks of the entrywise checks: 2^16 complex entries (1 MB), all of a 256 x 256 matrix
BLOCK_ENTRIES = 1 << 16

# The row blocks of factor_product: each block's product and its mirrored adjoint stay in cache
FACTOR_BLOCK_ROWS = 64

# The largest entry modulus of a vector: its squared norm stays finite up to 10^8 entries
MAX_ENTRY = 1e150


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
    m = as_square(x)
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix contains non-finite entries")
    return m


def as_square(x) -> np.ndarray:
    """Coerce ``x`` to a nonempty square complex matrix, finite or not."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ShapeError(f"expected a nonempty square matrix, got shape {m.shape}")
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
    """Rank-1 projector onto ``v``: :func:`hermitian_outer` of :func:`unit_vector`.

    Raises
    ------
    DegenerateInputError
        If ``v`` has norm below ``ZERO_ATOL`` (direction undefined).
    """
    return hermitian_outer(unit_vector(v))


def unit_vector(v) -> np.ndarray:
    """``v`` (through :func:`as_vector`) over its norm; a norm below ``ZERO_ATOL`` raises
    :class:`DegenerateInputError`."""
    vec = as_vector(v)
    nrm = vector_norm(vec)
    if nrm < ZERO_ATOL:
        raise DegenerateInputError("cannot project onto a (near-)zero vector")
    return vec / nrm


def hermitian_outer(vec) -> np.ndarray:
    """``vec vec^H``, its own :func:`hermitian_part` byte for byte.

    A fused multiply-add rounds the imaginary part of ``np.outer(vec, conj(vec))`` differently at
    ``(i, j)`` and ``(j, i)``, so that part is ``im_i re_j - re_i im_j``, exactly antisymmetric.
    """
    re, im = vec.real, vec.imag
    out = vec[:, None] * vec.conj()
    imag = out.imag
    np.multiply(im[:, None], re, out=imag)
    imag -= re[:, None] * im
    return positive_zeros(out)


def factor_product(cols) -> np.ndarray:
    """``cols cols^H`` of a ``(dim, r)`` factor, exactly Hermitian; at ``r = 1`` byte for byte
    :func:`hermitian_outer` of the column.

    A plain product is not exactly Hermitian (its entries ``(i, j)`` and ``(j, i)`` round apart),
    so each block of :data:`FACTOR_BLOCK_ROWS` rows is multiplied with the rows up to its own
    only: the block above the diagonal is the adjoint of the one below, and the diagonal block
    is :func:`symmetrized`.  The result is its own :func:`hermitian_part` byte for byte.
    """
    if cols.shape[1] == 1:
        return hermitian_outer(cols[:, 0])
    dim = cols.shape[0]
    out = np.empty((dim, dim), dtype=complex)
    adjoint = cols.conj().T
    for lo in range(0, dim, FACTOR_BLOCK_ROWS):
        hi = lo + FACTOR_BLOCK_ROWS
        block = np.matmul(cols[lo:hi], adjoint[:, :hi], out=out[lo:hi, :hi])
        out[:lo, lo:hi] = block[:, :lo].T.conj()
        out[lo:hi, lo:hi] = symmetrized(block[:, lo:hi])
    return out


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

    # axis t is labelled t on the row side; on the column side a kept factor takes nfac + t and a
    # traced one reuses its row label, which einsum sums over
    cols = [nfac + t if t in keep else t for t in range(nfac)]
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return np.einsum(mat.reshape(dims + dims), [*range(nfac), *cols],
                     [*keep, *(nfac + k for k in keep)]).reshape(kept_dim, kept_dim)


def contract_effect(op, rho, positions, dims) -> np.ndarray:
    """``Tr_S[(E_S x I) rho]``, contracted on the tensor axes of ``rho`` in O(dim^2).

    ``op`` acts on the factors at ``positions`` in that order, of dimensions
    ``dims[positions[0]], dims[positions[1]], ...``; the result acts on the
    other factors in ascending order, and its trace is ``Tr[(E_S x I) rho]``.
    """
    small, mat = as_operator(op), as_operator(rho)
    dims = _check_dims(dims, mat.shape[0])
    positions, nfac, sub = tuple(int(p) for p in positions), len(dims), small.shape[0]
    if len(set(positions)) != len(positions) or any(p < 0 or p >= nfac for p in positions):
        raise ShapeError(f"positions {positions} invalid for {nfac} factors")
    if sub != (target := int(np.prod([dims[p] for p in positions]))):
        raise ShapeError(f"operator dim {sub} != product of target dims {target}")
    rest = [t for t in range(nfac) if t not in positions]
    rest_dim = mat.shape[0] // sub
    # axes (a, b, x, y) hold rho[(b, x), (a, y)]; sum over a, b of E[a, b] times that
    axes = [nfac + p for p in positions] + list(positions) + rest + [nfac + t for t in rest]
    tensor = mat.reshape(dims + dims).transpose(axes)
    out = small.reshape(1, sub * sub) @ tensor.reshape(sub * sub, rest_dim * rest_dim)
    return out.reshape(rest_dim, rest_dim)


def contract_pure_effect(op, psi) -> np.ndarray:
    """:func:`contract_effect` of a stack of pure states measured on their leading factors, taken
    from the vectors: ``psi`` is ``(G, a, b)``, each state reshaped measured factors first, and
    ``op`` the ``(G, a, a)`` effects on them.  Row ``g`` is ``psi[g]^T op[g]^T conj(psi[g])``,
    ``(b, b)``; no ``(a b) x (a b)`` projector is formed."""
    return psi.transpose(0, 2, 1) @ (op.transpose(0, 2, 1) @ psi.conj())


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


def low_rank_psd(mat, cap: int, atol: float = DEFAULT_ATOL):
    """A ``(dim, k)`` factor ``L`` that proves no eigenvalue of Hermitian ``mat`` is below
    ``-atol``, or ``None``, which decides nothing.

    A pivoted partial Cholesky factorization (Higham 1990) builds ``L`` with
    at most ``cap`` columns, stopping once no remaining
    diagonal entry exceeds ``atol / dim`` (a PSD remainder is then below
    ``atol`` in trace, hence in Frobenius norm).  Each pivot column is read
    as a conjugated row, which equals the column of an exactly Hermitian
    ``mat``.  ``L`` is returned only if the residual, summed over
    :func:`row_blocks`, has ``||mat - L L^H||_F <= atol``: by Weyl's
    inequality no eigenvalue is then below ``-atol``.  A rank above ``cap``
    gives up after ``O(dim cap^2)`` work, before any ``dim^2`` step.
    """
    dim = mat.shape[0]
    rest = mat.diagonal().real.copy()  # diagonal of the Schur complement left to factor
    cols = np.empty((dim, cap), dtype=complex)
    for k in range(cap + 1):
        p = int(np.argmax(rest))
        if rest[p] <= atol / dim:
            break
        if k == cap:
            return None
        col = mat[p].conj()
        col -= cols[:, :k] @ cols[p, :k].conj()
        col /= np.sqrt(rest[p])
        cols[:, k] = col
        rest -= col.real**2 + col.imag**2
    factor = cols[:, :k].copy()
    return factor if factor_residual(factor, mat) <= atol else None


def factor_residual(cols, mat) -> float:
    """``||mat - cols cols^H||_F`` for a ``(dim, k)`` factor, summed over :func:`row_blocks`."""
    adjoint = cols.conj().T
    square = 0.0
    for rows in row_blocks(mat.shape[0]):
        # a rank-1 product broadcast costs less than a matmul of inner dimension 1
        resid = cols[rows] * adjoint if cols.shape[1] == 1 else cols[rows] @ adjoint
        resid -= mat[rows]
        square += np.vdot(resid, resid).real
    return math.sqrt(square)


def off_diagonal_max(mat) -> float:
    """Largest modulus among the off-diagonal entries of a square matrix."""
    mag = np.abs(mat)
    np.fill_diagonal(mag, 0.0)
    return float(np.max(mag))


def psd_defect(sym, atol: float) -> tuple:
    """``(max(0, -lambda_min), factor)`` of the exactly Hermitian ``sym``.  The defect is 0.0 once
    the first of two cheaper paths rules out an eigenvalue below ``-atol``: a low-rank factor of
    residual at most ``atol`` (:func:`low_rank_psd`, whose factor is returned, else ``None``),
    then a Cholesky factorization of ``sym + atol*I``.  Else :func:`min_eigenvalue` decides, so
    ``psd_defect(sym, atol)[0] <= atol`` differs from ``eigvalsh`` alone only within rounding
    (about ``dim * eps``) of ``-atol``.  The diagonal is shifted in place for the
    factorization, with no second dim^2 copy, and restored.
    """
    # k <= max(1, dim // 64) columns keep the residual product (dim^2 k) below a Cholesky
    if (factor := low_rank_psd(sym, max(1, sym.shape[0] // 64), atol)) is not None:
        return 0.0, factor
    diag = sym.diagonal().copy()
    sym.flat[:: sym.shape[0] + 1] += atol
    try:
        np.linalg.cholesky(sym)
        factored = True
    except np.linalg.LinAlgError:
        factored = False
    np.fill_diagonal(sym, diag)
    return (0.0 if factored else max(0.0, -min_eigenvalue(sym))), None


def min_eigenvalue(sym) -> float:
    """Smallest eigenvalue of an exactly Hermitian matrix (:func:`hermitian_part`'s first value)."""
    return float(np.linalg.eigvalsh(sym)[0])

