"""The dim^2 passes over a dense operator, byte for byte against the direct dense forms.

Matrices of any size are symmetrized in one untiled pass and conjugated by
a monomial map as one gather.  Three entrywise checks walk a matrix in row
blocks of at most 1 MB and form no dim x dim temporary: the low-rank
residual, the monomial test of ``apply_reversible`` and a certificate's
reconstruction residual.  Each test compares against the direct
whole-matrix form, byte for byte where the arithmetic is the same, so a
wrong block slice shows; the signatures of dimension 729 end in a partial
block of 17 rows.  The cases that once straddled the 64 x 64 tiles of an
earlier blocked symmetrization are kept.
"""

import tracemalloc

import numpy as np
import pytest

import test_linalg
from duoc.dynamics import _conjugate_monomial, apply_reversible
from duoc.effects import Effect
from duoc.errors import DensityMatrixError, DomainError, ShapeError
from duoc.linalg import BLOCK_ENTRIES, hermitian_part, row_blocks
from duoc.states import DensityState, build_pure_state, random_mixed_state, validate_mixed_state
from duoc.systems import SystemSignature

from conftest import low_rank_density, low_rank_support, lowest_eigenvalue

DIM = 1024


@pytest.fixture(scope="module")
def big():
    """A general dim-1024 complex matrix, with exact zeros of both signs in its imaginary part."""
    rng = np.random.default_rng(1024)
    m = rng.normal(size=(DIM, DIM)) + 1j * rng.normal(size=(DIM, DIM))
    m.imag[rng.random((DIM, DIM)) < 0.2] = 0.0
    m.imag[rng.random((DIM, DIM)) < 0.1] = -0.0
    m.setflags(write=False)
    return m


@pytest.fixture(scope="module")
def mixtures(big):
    """One admitted rank-3 state per signature, built on first use."""
    cache = {}

    def get(sig):
        if sig not in cache:
            cache[sig] = DensityState(sig, mixture(big, sig.dim))
        return cache[sig]

    return get


def mixture(big, dim):
    """Exactly Hermitian rank-3 density matrix from three rows of ``big``."""
    rows = big[:3, :dim] / np.linalg.norm(big[:3, :dim], axis=1, keepdims=True)
    mat = (rows.T * [0.5, 0.3, 0.2]) @ rows.conj()
    return (mat + mat.conj().T) / 2


def test_row_blocks_cover_the_rows_and_one_block_holds_256():
    assert BLOCK_ENTRIES == 256 * 256
    assert row_blocks(256) == [slice(0, 256)]
    blocks = row_blocks(257)
    assert len(blocks) == 2 and blocks[-1].start == 255
    assert sum(len(range(DIM)[r]) for r in row_blocks(DIM)) == DIM
    assert len(row_blocks(729)) == 9 and len(range(729)[row_blocks(729)[-1]]) == 17


@pytest.mark.parametrize("dim", [1, 64, 255, 256, 257, 729, DIM])
def test_hermitian_part_is_the_direct_form(big, dim):
    m = big[:dim, :dim].copy()
    if dim > 1:
        # the largest defect, below the diagonal in the last 64-row band (partial unless 64 | dim)
        m[dim - 1, 0] += 50.0
    sym, defect = hermitian_part(m)
    assert sym.tobytes() == ((m + m.conj().T) / 2).tobytes()
    skew = np.abs(m - m.conj().T)
    assert defect == np.max(skew)
    assert np.argmax(skew) in (dim - 1, (dim - 1) * dim)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_in_an_off_diagonal_tile(big, bad):
    m = big.copy()
    m[DIM - 1, 3 * 64 + 1] = bad
    with pytest.raises(ShapeError, match="non-finite"):
        hermitian_part(m)
    with pytest.raises(ShapeError, match="non-finite"):
        DensityState(SystemSignature(2, 5, 5), m)


@pytest.mark.parametrize("dmn", [(2, 4, 4), (3, 3, 3), (2, 5, 5)])
def test_conjugate_monomial_is_the_gather_form(mixtures, dmn):
    # the dense path: above 256 an admitted mixture keeps its factor, which a state stored
    # without one does not have
    sig = SystemSignature(*dmn)
    rng = np.random.default_rng(sig.dim)
    rho = DensityState._admitted(sig, mixtures(sig).matrix)
    src = rng.permutation(sig.dim)
    ph = np.exp(2j * np.pi * rng.random(sig.dim))
    out = _conjugate_monomial(src, ph, rho).matrix
    ref = DensityState(sig, ph[:, None] * rho.matrix[np.ix_(src, src)] * ph.conj()).matrix
    assert out.tobytes() == ref.tobytes()


def test_low_rank_grid_at_dim_729(rng):
    test_linalg.test_low_rank_psd_matches_eigvalsh(729, rng)


def test_density_state_verdicts_at_dim_1024(big, mixtures, rng):
    sig = SystemSignature(2, 5, 5)
    mat = mixture(big, DIM)
    assert mixtures(sig).matrix.tobytes() == ((mat + mat.conj().T) / 2).tobytes()
    skew = mat.copy()
    skew[DIM - 1, 0] += 1e-6j
    defect = np.max(np.abs(skew - skew.conj().T))
    with pytest.raises(DensityMatrixError) as err:
        DensityState(sig, skew)
    assert str(err.value) == f"matrix is not Hermitian (defect {defect})"
    support = low_rank_support(rng, DIM)
    indefinite = low_rank_density(rng, DIM, 3, -1e-6, support)
    with pytest.raises(DensityMatrixError, match="negative eigenvalue") as err:
        DensityState(sig, indefinite)
    lo = float(str(err.value).rsplit(" ", 1)[1])
    assert lo == pytest.approx(lowest_eigenvalue(indefinite, support), abs=1e-14)


def test_effect_op_is_the_direct_form(big):
    sig = SystemSignature(2, 5, 4)
    op = mixture(big, sig.dim)
    op[sig.dim - 1, 0] += 1e-12
    assert Effect(sig, op).op.tobytes() == ((op + op.conj().T) / 2).tobytes()


# one block at dimensions 8 and 256, 9 at 729 (the last of 17 rows) and 16 at 1024
BLOCKED_SIGS = [(2, 2, 1), (2, 4, 4), (3, 3, 3), (2, 5, 5)]


def monomial(rng, dim):
    src = rng.permutation(dim)
    u = np.zeros((dim, dim), dtype=complex)
    u[np.arange(dim), src] = np.exp(2j * np.pi * rng.random(dim))
    return u


def direct_monomial(u):
    """The whole-matrix monomial test: ``(src, ph, defect)``."""
    mag, rows = np.abs(u), np.arange(u.shape[0])
    src = np.argmax(mag, axis=1)
    defect = np.max(np.abs(mag[rows, src] - 1.0))
    mag[rows, src] = 0.0
    return src, u[rows, src], float(max(defect, np.max(mag)))


@pytest.mark.parametrize("dmn", BLOCKED_SIGS, ids=str)
def test_apply_reversible_accepts_noise_in_the_last_band(mixtures, dmn, rng):
    sig = SystemSignature(*dmn)
    rho = mixtures(sig)
    u = monomial(rng, sig.dim)
    band = u[row_blocks(sig.dim)[-1]]
    band += 5e-11 * (rng.random(band.shape) + 1j * rng.random(band.shape))
    src, ph, defect = direct_monomial(u)
    assert 1e-11 < defect <= 1e-10
    out, ref = apply_reversible(u, rho), _conjugate_monomial(src, ph, rho)
    assert out.matrix.tobytes() == ref.matrix.tobytes()
    assert (out.factor is None) == (ref.factor is None)
    assert out.factor is None or out.factor.tobytes() == ref.factor.tobytes()


@pytest.mark.parametrize("dmn", BLOCKED_SIGS, ids=str)
def test_apply_reversible_reports_the_direct_defect(mixtures, dmn, rng):
    sig = SystemSignature(*dmn)
    u = monomial(rng, sig.dim)
    u[sig.dim - 1] += 3e-10
    defect = direct_monomial(u)[2]
    with pytest.raises(DomainError) as err:
        apply_reversible(u, mixtures(sig))
    assert str(err.value) == f"transformation matrix is not a monomial unitary (defect {defect})"


@pytest.mark.parametrize("dmn", BLOCKED_SIGS, ids=str)
def test_apply_reversible_refuses_one_column_peaked_in_the_first_and_last_block(mixtures, dmn, rng):
    sig = SystemSignature(*dmn)
    u = monomial(rng, sig.dim)
    u[sig.dim - 1] = u[0]  # rows in the first and the last block, every modulus within rounding
    src, _, defect = direct_monomial(u)
    assert src[0] == src[-1] and defect < 1e-15
    with pytest.raises(DomainError) as err:
        apply_reversible(u, mixtures(sig))
    assert str(err.value) == f"transformation matrix is not a monomial unitary (defect {defect})"


def certified(sig, seed):
    """A drawn 3-term mixture with its matrix formed, its certificate and the direct sum."""
    rho, cert = random_mixed_state(sig, seed)
    vecs = np.stack([build_pure_state(spec) for _, spec in cert], axis=1)
    vecs /= np.linalg.norm(vecs, axis=0)
    recon = (vecs * [w for w, _ in cert]) @ vecs.conj().T
    rho.matrix  # formed on the first read, and kept
    return rho, cert, recon


@pytest.mark.parametrize("dmn", BLOCKED_SIGS, ids=str)
def test_certificate_residual_is_the_direct_maximum(dmn):
    sig = SystemSignature(*dmn)
    rho, cert, recon = certified(sig, sig.dim)
    rep = validate_mixed_state(rho, certificate=cert)
    assert rep.valid and rep.residual == pytest.approx(np.max(np.abs(recon - rho.matrix)),
                                                       rel=0, abs=1e-15)
    # one Hermitian pair of entries 2e-10 off in the last band
    mat, i = rho.matrix.copy(), sig.dim - 1
    mat[i, i - 1] += 2e-10
    mat[i - 1, i] += 2e-10
    rep = validate_mixed_state(DensityState._admitted(sig, mat), certificate=cert)
    assert not rep.valid and rep.witness == "certificate"
    assert rep.residual == pytest.approx(np.max(np.abs(recon - mat)), rel=0, abs=1e-15)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monomial_test_at_dim_1024_allocates_no_dim_squared_temporary(rng):
    # the whole-matrix test peaked at 8 MB, the moduli of u
    sig = SystemSignature(2, 5, 5)
    rho, u = random_mixed_state(sig, 1)[0], monomial(rng, sig.dim)
    assert rho.factor is not None
    assert traced_peak(lambda: apply_reversible(u, rho)) < 2e6


def test_certificate_check_at_dim_1024_allocates_no_dim_squared_temporary():
    # the whole-matrix residual peaked at 24 MB, the reconstruction and its moduli
    rho, cert, _ = certified(SystemSignature(2, 5, 5), 1)  # the matrix is formed here
    assert traced_peak(lambda: validate_mixed_state(rho, certificate=cert)) < 4e6
