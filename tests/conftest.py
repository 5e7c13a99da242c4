import functools
import itertools

import numpy as np
import pytest

from duoc.effects import Effect
from duoc.linalg import DEFAULT_ATOL, as_operator
from duoc.nonlocality import two_copy_state
from duoc.states import PureStateSpec, build_pure_state
from duoc.systems import MAX_COMPOSITE_DIM, FactorPermutation, SystemSignature, phase_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


@pytest.fixture
def linalg_calls(monkeypatch):
    """The shapes of the arrays that ``np.linalg.eigh``, ``eigvalsh`` and ``cholesky`` are called
    on, by name, in call order."""
    seen = {"eigh": [], "eigvalsh": [], "cholesky": []}

    def recorder(name, fn):
        def wrapped(a, *args, **kwargs):
            seen[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in seen:
        monkeypatch.setattr(np.linalg, name, recorder(name, getattr(np.linalg, name)))
    return seen


def random_unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


# the 286 signatures up to the composite cap with d up to 16
ALL_SIGS = [SystemSignature(d, m, n) for d in range(2, 17) for m in range(13) for n in range(13)
            if m + n and d ** (m + n) <= MAX_COMPOSITE_DIM]

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


# dense references: the engine applies relabelings and reversible maps by index gather, and
# tests compare it with these explicit matrices


def embed_operator(op, positions, dims):
    """``op`` on the factors at ``positions`` of the composite ``dims``, read in that order, and
    the identity elsewhere: the literal embedding, a reference for the engine's contractions
    and for its Born rule on regrouped copies, neither of which embeds an operator."""
    op, dims, positions = as_operator(op), tuple(dims), list(positions)
    rest = [t for t in range(len(dims)) if t not in positions]
    order = positions + rest
    sub = [dims[t] for t in order]
    full = np.kron(op, np.eye(int(np.prod(sub)) // op.shape[0], dtype=complex))
    perm = [order.index(t) for t in range(len(dims))]
    total = int(np.prod(dims))
    return full.reshape(sub + sub).transpose(perm + [len(dims) + p for p in perm]).reshape(
        total, total)


def permute_vector_factors(v, dims, dest):
    """Reorder the tensor factors ``dims`` of a vector: ``dest[t]`` is the output position of
    input factor ``t``.  The literal factor move, a reference for the engine's layouts."""
    dest = tuple(int(p) for p in dest)
    assert sorted(dest) == list(range(len(dims))), f"{dest} is not a permutation"
    # output axis q holds the input factor t with dest[t] == q
    return np.asarray(v, dtype=complex).reshape(dims).transpose(np.argsort(dest)).reshape(-1)


def kron_all(*factors):
    """The Kronecker product of ``factors`` left to right by ``np.kron``, a reference for
    ``linalg.tensor_all``."""
    return functools.reduce(np.kron, [np.asarray(f, dtype=complex) for f in factors])


def reference_index_map(spec, sig):
    """``(src, ph)`` of a reversible spec by one ``np.roll`` per shifted axis and the
    :func:`kron_all` of the per-factor phase diagonals, a reference for
    ``dynamics._reversible_index_map``."""
    perm = spec.perm or FactorPermutation.identity(sig.m, sig.n)
    src = np.arange(sig.dim).reshape(sig.dims)
    for axis, j in enumerate(spec.x_shifts):
        src = np.roll(src, j, axis=axis)
    src = src.transpose(np.argsort(perm.destinations(sig.m, sig.n))).reshape(-1)
    phases = np.ones(sig.dim, dtype=complex)
    if spec.z_phases:
        phases = kron_all(*[np.diag(phase_matrix(sig.d, j)) for j in spec.z_phases])
    return src, phases[src]


def factor_permutation_matrix(dims, dest):
    """Unitary matrix sending input factor ``t`` to output position ``dest[t]``."""
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    # row q of the output takes the input basis index that lands on q
    src = permute_vector_factors(np.arange(total), dims, dest).real.astype(int)
    out = np.zeros((total, total), dtype=complex)
    out[np.arange(total), src] = 1.0
    return out


def embed_permutation(sig, perm):
    """Unitary on the full composite that realizes a factor permutation."""
    return factor_permutation_matrix(sig.dims, perm.destinations(sig.m, sig.n))


def is_unitary(op):
    mat = as_operator(op)
    return bool(np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))) <= DEFAULT_ATOL)


def all_factor_permutations(m: int, n: int):
    """Iterate every kind-preserving factor permutation of an (m, n) composite, sigma outer."""
    for sigma in itertools.permutations(range(m)):
        for tau in itertools.permutations(range(n)):
            yield FactorPermutation(sigma, tau)


def relabeled_cells(sig):
    """Each kind-preserving relabeling, in :func:`all_factor_permutations` order, with the cell
    label of every basis index under it, derived from the digits alone: pair ``i`` couples dit
    ``sigma[i]`` with anti-dit ``tau[i]`` and contributes its parity ``(anti - dit) % d``, and
    each unpaired factor contributes its digit."""
    m, n, p = sig.m, sig.n, sig.num_pairs
    digits = np.array(list(itertools.product(range(sig.d), repeat=m + n))).reshape(sig.dim, -1)
    for perm in all_factor_permutations(m, n):
        dits, antis = digits[:, list(perm.sigma)], digits[:, [m + i for i in perm.tau]]
        label = np.hstack([(antis[:, :p] - dits[:, :p]) % sig.d, dits[:, p:], antis[:, p:]])
        yield perm, label @ sig.d ** np.arange(label.shape[1])


def cell_cover(sig):
    """Entries ``(i, j)`` with ``i`` and ``j`` in one cell, from the definition: for every
    relabeling, enumerated here, the indices that it gives one cell label."""
    cover = np.zeros((sig.dim, sig.dim), dtype=bool)
    for _, labels in relabeled_cells(sig):
        cover |= labels[:, None] == labels
    return cover


def digit_difference_cover(sig, rows, cols):
    """Whether basis indices ``rows[a]`` and ``cols[b]`` share some cell, from their digits alone,
    with no relabeling enumerated (which :func:`cell_cover` does, too slowly above dimension 64):
    for each ``t`` in ``1..d-1``, as many dits as anti-dits have ``(j_f - i_f) % d == t``.  A
    pair keeps its parity when its two differences agree, and an unpaired factor must not move."""
    first, second = np.unravel_index(rows, sig.dims), np.unravel_index(cols, sig.dims)
    cover = np.ones((len(rows), len(cols)), dtype=bool)
    for t in range(1, sig.d):
        balance = np.zeros(cover.shape, dtype=np.int8)
        for f in range(sig.num_factors):
            moved = (second[f] - first[f][:, None]) % sig.d == t
            if f < sig.m:
                balance += moved
            else:
                balance -= moved
        cover &= balance == 0
    return cover


def parent_side_op(side, u):
    """A side's effect for direction ``u`` as one certified construction per effect builds it:
    two sector projectors, each a plain outer product of its unit vector, admitted publicly."""
    sig = SystemSignature(2, 1, 1)
    op = np.zeros((4, 4), dtype=complex)
    for sector in range(2):
        if side == "alice":
            coeffs = {(0,): u[0], (1,): u[1]}
        else:
            coeffs = {(sector,): u[0], ((sector + 1) % 2,): u[1]}
        v = build_pure_state(PureStateSpec(sig, coeffs, parity=(sector,)))
        v = v / np.linalg.norm(v)
        op += np.outer(v, v.conj())
    return Effect(sig, op).op


def parent_chsh(alice_bases, bob_bases):
    """CHSH expectations and F from the :func:`parent_side_op` effects of each setting."""
    obs = [[parent_side_op(side, b.vectors[0]) - parent_side_op(side, b.vectors[1]) for b in bases]
           for side, bases in (("alice", alice_bases), ("bob", bob_bases))]
    psi2 = two_copy_state(np.array([1.0, 1.0]) / np.sqrt(2), 0)
    m = psi2.reshape(2, 2, 2, 2).transpose(0, 3, 1, 2).reshape(4, 4)
    e = np.einsum("xjk,yjk->xy", m.conj().T @ np.asarray(obs[0]) @ m, np.asarray(obs[1])).real
    return e, float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])
