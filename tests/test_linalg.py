import numpy as np
import pytest

from duoc.errors import DegenerateInputError, ShapeError
from duoc.linalg import (
    DEFAULT_ATOL,
    INPUT_ATOL,
    contract_effect,
    contract_pure_effect,
    hermitian_outer,
    hermitian_part,
    low_rank_psd,
    min_eigenvalue,
    partial_trace,
    projector,
    psd_defect,
    tensor_all,
    vector_norm,
)

from conftest import (
    LOW_RANK_LAMBDAS,
    embed_operator,
    factor_permutation_matrix,
    is_unitary,
    low_rank_density,
    low_rank_support,
    lowest_eigenvalue,
    permute_vector_factors,
    random_density,
    random_unit,
)


def test_tensor_all_associates():
    a = np.array([1, 2], dtype=complex)
    b = np.array([3, 4], dtype=complex)
    c = np.array([5, 6], dtype=complex)
    np.testing.assert_allclose(tensor_all(a, b, c), np.kron(np.kron(a, b), c))


def test_projector_normalizes():
    p = projector(np.array([2.0, 0.0]))
    np.testing.assert_allclose(p, np.diag([1.0, 0.0]))


def test_projector_rejects_zero_vector():
    with pytest.raises(DegenerateInputError):
        projector(np.zeros(3))


@pytest.mark.parametrize("dim", [1, 2, 4, 9, 36, 64])
def test_stacked_hermitian_outer_matches_rows(dim, rng):
    vecs = rng.normal(size=(2, 3, dim)) + 1j * rng.normal(size=(2, 3, dim))
    vecs[0, 0, : dim // 2] = 0  # zero entries, whose signed zeros the outer product must keep
    stacked = hermitian_outer(vecs)
    assert stacked.shape == (2, 3, dim, dim)
    for block, rows in zip(stacked, vecs):
        for out, vec in zip(block, rows):
            assert out.tobytes() == hermitian_outer(vec).tobytes()


def test_partial_trace_product_factorizes(rng):
    rho = random_density(rng, 3)
    sigma = random_density(rng, 4)
    big = np.kron(rho, sigma)
    np.testing.assert_allclose(partial_trace(big, [3, 4], [0]), rho, atol=1e-12)
    np.testing.assert_allclose(partial_trace(big, [3, 4], [1]), sigma, atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    op = random_density(rng, 12)
    for keep in ([0], [1], [0, 1], []):
        reduced = partial_trace(op, [3, 4], keep)
        assert abs(np.trace(reduced) - np.trace(op)) < 1e-12


def test_partial_trace_keep_order():
    rho = random_density(np.random.default_rng(5), 2)
    sigma = random_density(np.random.default_rng(6), 2)
    big = np.kron(rho, sigma)
    # keep order is ascending regardless of how the set is given
    np.testing.assert_allclose(
        partial_trace(big, [2, 2], [1, 0]), partial_trace(big, [2, 2], [0, 1])
    )


def test_partial_trace_cyclicity_within_traced_factor(rng):
    # Tr_B(rho (I x M)) = Tr_B((I x M) rho)
    rho = random_density(rng, 6)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    im = np.kron(np.eye(2), m)
    left = partial_trace(rho @ im, [2, 3], [0])
    right = partial_trace(im @ rho, [2, 3], [0])
    assert np.max(np.abs(left - right)) < 1e-12


def test_partial_trace_dim_mismatch():
    with pytest.raises(ShapeError):
        partial_trace(np.eye(5), [2, 2], [0])


def test_embed_operator_identity_elsewhere(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    full = embed_operator(m, [1], [2, 3, 2])
    np.testing.assert_allclose(full, np.kron(np.kron(np.eye(2), m), np.eye(2)))


def test_embed_operator_two_positions_any_order(rng):
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    # op acts on factors (0, 2) of a three-factor space
    full = embed_operator(np.kron(a, b), [0, 2], [2, 2, 2])
    expect = np.einsum("ac,bd,eg->abecdg", a, np.eye(2), b).reshape(8, 8)
    np.testing.assert_allclose(full, expect, atol=1e-12)


@pytest.mark.parametrize("positions", [(1,), (2, 0), (0, 1, 3)])
def test_contract_effect_matches_embed_and_trace(positions, rng):
    dims = [2, 3, 2, 2]
    rho = random_density(rng, 24)
    sub = int(np.prod([dims[p] for p in positions]))
    op = random_density(rng, sub)
    keep = [t for t in range(4) if t not in positions]
    want = partial_trace(embed_operator(op, positions, dims) @ rho, dims, keep)
    np.testing.assert_allclose(contract_effect(op, rho, positions, dims), want, atol=1e-14)


def test_contract_effect_checks_shapes(rng):
    rho = random_density(rng, 8)
    with pytest.raises(ShapeError):
        contract_effect(np.eye(4), rho, (0,), [2, 2, 2])
    with pytest.raises(ShapeError):
        contract_effect(np.eye(4), rho, (0, 0), [2, 2, 2])
    with pytest.raises(ShapeError):
        contract_effect(np.eye(2), rho, (0,), [2, 2])
    bad = rho.copy()
    bad[7, 7] = np.nan
    with pytest.raises(ShapeError, match="^matrix contains non-finite entries$"):
        contract_effect(np.eye(2), bad, (0,), [2, 2, 2])
    with pytest.raises(ShapeError, match=r"square matrix, got shape \(2,\)"):
        contract_effect(np.ones(2), rho[0], (0,), [2, 2, 2])
    with pytest.raises(ShapeError, match=r"square matrix, got shape \(2, 3\)"):
        contract_effect(np.ones((2, 3)), rho, (0,), [2, 2, 2])
    with pytest.raises(ShapeError, match=r"square matrix, got shape \(3, 2, 2\)"):
        contract_effect(np.stack([np.eye(2)] * 3), np.stack([rho] * 3), (0,), [2, 2, 2])


@pytest.mark.parametrize("a, b", [(2, 4), (4, 2), (3, 1), (1, 5), (8, 8)])
def test_contract_pure_effect_matches_the_projector_contraction(a, b, rng):
    psi = np.stack([random_unit(rng, a * b) for _ in range(4)])
    ops = np.stack([random_density(rng, a) for _ in range(4)])
    got = contract_pure_effect(ops, psi.reshape(4, a, b))
    dims = [a, b]
    for g in range(4):
        want = contract_effect(ops[g], np.outer(psi[g], psi[g].conj()), (0,), dims)
        np.testing.assert_allclose(got[g], want, atol=1e-14)


def test_vector_norm_is_numpy_norm(rng):
    for n in (1, 2, 3, 8, 33, 1000):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        for w in (v, v[::3], v * 1e-200, v * 1e150):
            assert vector_norm(w) == np.linalg.norm(w)


def test_permute_vector_factors_roundtrip(rng):
    v = random_unit(rng, 2 * 3 * 4)
    dest = (2, 0, 1)  # factor t goes to slot dest[t]
    w = permute_vector_factors(v, [2, 3, 4], dest)
    inv = tuple(np.argsort(dest))
    np.testing.assert_allclose(permute_vector_factors(w, [3, 4, 2], inv), v)


def test_permute_vector_factors_swap_pair():
    e01 = np.zeros(4, dtype=complex)
    e01[1] = 1  # |0>|1>
    swapped = permute_vector_factors(e01, [2, 2], (1, 0))
    assert swapped[2] == 1  # |1>|0>


def test_factor_permutation_matrix_matches_vector_action(rng):
    dims = [2, 3, 2]
    dest = (1, 2, 0)
    v = random_unit(rng, 12)
    mat = factor_permutation_matrix(dims, dest)
    assert set(np.unique(mat)) == {0, 1}
    assert (mat.sum(axis=0) == 1).all() and (mat.sum(axis=1) == 1).all()
    np.testing.assert_allclose(mat @ v, permute_vector_factors(v, dims, dest))
    assert is_unitary(mat)


def test_hermitian_part_matches_direct_forms(rng):
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    sym, defect = hermitian_part(m)
    assert np.array_equal(sym, (m + m.conj().T) / 2)
    assert np.array_equal(sym, sym.conj().T)
    assert defect == np.max(np.abs(m - m.conj().T))


@pytest.mark.parametrize("dim", [64, 256, 1024])
def test_low_rank_psd_matches_eigvalsh(dim, rng):
    # at admission's cap of dim // 64 steps: never accepts what eigvalsh rejects, nor a rank
    # above the cap, and accepts every PSD matrix of rank up to the cap; a negative eigenvalue
    # within atol may leave a Schur-complement residual above atol, which hands the verdict to
    # the fallback
    atol, cap = 1e-10, dim // 64
    support = low_rank_support(rng, dim)
    for rank in range(1, cap + 2):
        for lam in LOW_RANK_LAMBDAS:
            mat = low_rank_density(rng, dim, rank, lam, support)
            lo = lowest_eigenvalue(mat, support)
            assert (lo >= -atol) == (lam >= -atol)
            accepted = low_rank_psd(mat, cap) is not None
            if rank > cap or lo < -atol:
                assert not accepted, (rank, lam)
            elif lam == 0.0:
                assert accepted, rank


def test_low_rank_psd_needs_a_step():
    assert not low_rank_psd(np.eye(63, dtype=complex) / 63, 1)


@pytest.mark.parametrize("dim", [16, 128])
def test_psd_defect_takes_the_callers_tolerance(dim, rng):
    # a low-rank factor settles -atol/2 at INPUT_ATOL, at dim 16 as at 128, and only the exact
    # eigenvalue settles it at DEFAULT_ATOL; the matrix is left as it was
    mat = low_rank_density(rng, dim, 1, -0.5 * INPUT_ATOL, low_rank_support(rng, dim))
    before = mat.tobytes()
    assert psd_defect(mat, INPUT_ATOL)[0] == 0.0
    assert mat.tobytes() == before
    short, factor = psd_defect(mat, DEFAULT_ATOL)
    assert factor is None
    assert short == -min_eigenvalue(mat) == -np.linalg.eigvalsh(mat)[0]
    assert short == pytest.approx(0.5 * INPUT_ATOL, rel=1e-6)
    assert mat.tobytes() == before
    assert low_rank_psd(mat, 1, INPUT_ATOL) is not None
    assert low_rank_psd(mat, 1) is None


def test_eigenvalue_bounds():
    h = np.diag([-2.0, 0.5, 3.0])
    assert min_eigenvalue(h) == pytest.approx(-2.0)


def test_is_unitary():
    theta = 0.3
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert is_unitary(u)
    assert not is_unitary(u * 1.01)
