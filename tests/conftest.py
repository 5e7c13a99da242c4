import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


def random_unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


# smallest eigenvalues of the low-rank positivity grid, in units of the default atol 1e-10,
# on both sides of -atol, plus one far below it
LOW_RANK_LAMBDAS = tuple(s * 1e-10 for s in (0.0, -0.5, -0.99, -1.01, -2.0)) + (-1e-6,)


def low_rank_density(rng, dim, rank, lam, support):
    """Exactly Hermitian trace-1 matrix: ``rank`` positive eigenvalues and one equal to ``lam``.

    The eigenvectors are random orthonormal vectors with entries only at the
    indices in ``support``, so the matrix is zero outside ``support x support``.
    """
    g = rng.normal(size=(support.size, rank + 1)) + 1j * rng.normal(size=(support.size, rank + 1))
    q, _ = np.linalg.qr(g)
    weights = rng.uniform(0.5, 1.0, size=rank)
    weights *= (1 - lam) / weights.sum()
    block = (q * np.append(weights, lam)) @ q.conj().T
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.ix_(support, support)] = (block + block.conj().T) / 2
    return mat


def lowest_eigenvalue(mat, support):
    """``eigvalsh(mat)[0]`` for a matrix that is zero outside ``support x support``.

    Its spectrum is the block's plus zeros, so only the block is decomposed.
    """
    lo = np.linalg.eigvalsh(mat[np.ix_(support, support)])[0]
    return lo if support.size == mat.shape[0] else min(lo, 0.0)


def low_rank_support(rng, dim):
    """All indices up to dimension 256; 128 random ones above, to keep ``eigvalsh`` cheap."""
    return np.arange(dim) if dim <= 256 else np.sort(rng.choice(dim, size=128, replace=False))
