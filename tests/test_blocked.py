"""The dim^2 admission passes above one block: bit for bit the single-block forms.

Matrices above 256 x 256 are symmetrized in tile pairs, checked for low
rank in row blocks and conjugated by a monomial map in row blocks.  Each
test compares against the direct dense form, byte for byte, so a wrong
tile or block slice shows.
"""

import numpy as np
import pytest

import test_linalg
from duoc.dynamics import _conjugate_monomial
from duoc.effects import Effect
from duoc.errors import DensityMatrixError, ShapeError
from duoc.linalg import BLOCK_ENTRIES, TILE, hermitian_part, row_blocks
from duoc.states import DensityState
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


@pytest.mark.parametrize("dim", [1, 64, 255, 256, 257, 729, DIM])
def test_hermitian_part_is_the_direct_form(big, dim):
    m = big[:dim, :dim].copy()
    if dim > 1:
        # the largest defect, below the diagonal in the last tile row (partial unless TILE | dim)
        m[dim - 1, 0] += 50.0
    sym, defect = hermitian_part(m)
    assert sym.tobytes() == ((m + m.conj().T) / 2).tobytes()
    skew = np.abs(m - m.conj().T)
    assert defect == np.max(skew)
    assert np.argmax(skew) in (dim - 1, (dim - 1) * dim)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_in_an_off_diagonal_tile(big, bad):
    m = big.copy()
    m[DIM - 1, 3 * TILE + 1] = bad
    with pytest.raises(ShapeError, match="non-finite"):
        hermitian_part(m)
    with pytest.raises(ShapeError, match="non-finite"):
        DensityState(SystemSignature(2, 5, 5), m)


@pytest.mark.parametrize("dmn", [(2, 4, 4), (3, 3, 3), (2, 5, 5)])
def test_conjugate_monomial_is_the_gather_form(mixtures, dmn):
    sig = SystemSignature(*dmn)
    rng = np.random.default_rng(sig.dim)
    rho = mixtures(sig)
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
