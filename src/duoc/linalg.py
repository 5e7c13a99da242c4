"""Dense tensor-network primitives.

Composite indices follow the usual Kronecker convention: the leftmost
factor is the most significant digit, so ``kron(a, b)`` acts on the
composite index ``i*dim_b + j``.  All operators are dense complex
``numpy`` arrays.
"""

from __future__ import annotations

import string

import numpy as np

from .errors import DegenerateInputError, ShapeError

DEFAULT_ATOL = 1e-10

_AXIS_LABELS = string.ascii_letters


def as_vector(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D complex vector."""
    v = np.asarray(x, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ShapeError("vector contains non-finite entries")
    return v


def as_operator(x) -> np.ndarray:
    """Coerce ``x`` to a finite square complex matrix."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ShapeError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix contains non-finite entries")
    return m


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the left factor most significant."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def tensor_all(*factors) -> np.ndarray:
    """Kronecker product of any number of vectors or operators, left to right."""
    if not factors:
        raise DegenerateInputError("tensor_all needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def dagger(op) -> np.ndarray:
    return np.asarray(op, dtype=complex).conj().T


def projector(v) -> np.ndarray:
    """Rank-1 projector onto ``v``, normalizing first.

    Raises
    ------
    DegenerateInputError
        If ``v`` has norm below 1e-12 (direction undefined).
    """
    vec = as_vector(v)
    nrm = np.linalg.norm(vec)
    if nrm < 1e-12:
        raise DegenerateInputError("cannot project onto a (near-)zero vector")
    vec = vec / nrm
    return np.outer(vec, vec.conj())


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
    ascending order, and its trace is ``Tr[(E_S x I) rho]``.
    """
    small, mat = as_operator(op), as_operator(rho)
    dims = _check_dims(dims, mat.shape[0])
    positions, rest = _split_factors(positions, dims, small.shape[0])
    nfac, sub = len(dims), small.shape[0]
    rest_dim = mat.shape[0] // sub
    # axes (a, b, x, y) hold rho[(b, x), (a, y)]; sum over a, b of E[a, b] times that
    tensor = mat.reshape(dims + dims).transpose(
        [nfac + p for p in positions] + list(positions) + rest + [nfac + t for t in rest])
    out = small.reshape(-1) @ tensor.reshape(sub * sub, rest_dim * rest_dim)
    return out.reshape(rest_dim, rest_dim)


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


def factor_permutation_matrix(dims, dest) -> np.ndarray:
    """Unitary matrix sending input factor ``t`` to output position ``dest[t]``."""
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    # row q of the output takes the input basis index that lands on q
    src = permute_vector_factors(np.arange(total), dims, dest).real.astype(int)
    out = np.zeros((total, total), dtype=complex)
    out[np.arange(total), src] = 1.0
    return out


def hermitian_part(op) -> tuple:
    """``((op + op^H) / 2, max |op^H - op|)``; the first is exactly Hermitian."""
    # a contiguous adjoint symmetrized in place: a strided view or dim^2 temporaries cost more
    mat = as_operator(op)
    sym = mat.T.copy()
    np.conjugate(sym, out=sym)
    defect = float(np.max(np.abs(sym - mat)))
    sym += mat
    sym /= 2
    return sym, defect


def hermiticity_defect(op) -> float:
    return hermitian_part(op)[1]


def low_rank_psd(mat, atol: float) -> bool:
    """True when a low-rank factor proves no eigenvalue of Hermitian ``mat`` is below ``-atol``.

    A pivoted partial Cholesky factorization (Higham 1990) builds ``L`` with
    at most ``dim // 64`` columns, stopping once no remaining diagonal entry
    exceeds ``atol / dim`` (a PSD remainder is then below ``atol`` in trace,
    hence in Frobenius norm).  True only if the residual, formed in one dim^2
    buffer, has ``||mat - L L^H||_F <= atol``: by Weyl's inequality no
    eigenvalue is then below ``-atol``.  False decides nothing.
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
        if rest[p] <= atol / dim:
            break
        if k == cap:
            return False
        col = mat[:, p] - cols[:, :k] @ cols[p, :k].conj()
        col /= np.sqrt(rest[p])
        cols[:, k] = col
        rest -= col.real**2 + col.imag**2
    resid = cols[:, :k] @ cols[:, :k].conj().T
    resid -= mat
    return bool(np.linalg.norm(resid) <= atol)


def off_diagonal_max(mat) -> float:
    """Largest modulus among the off-diagonal entries of a square matrix."""
    mag = np.abs(mat)
    np.fill_diagonal(mag, 0.0)
    return float(np.max(mag))


def is_hermitian(op, atol: float = DEFAULT_ATOL) -> bool:
    return hermiticity_defect(op) <= atol


def min_eigenvalue(op) -> float:
    """Smallest eigenvalue of a (numerically) Hermitian operator."""
    mat = as_operator(op)
    return float(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0])


def max_eigenvalue(op) -> float:
    mat = as_operator(op)
    return float(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[-1])


def is_unitary(op, atol: float = DEFAULT_ATOL) -> bool:
    mat = as_operator(op)
    return bool(np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))) <= atol)
