"""A pure state keeps its vector, as a factor of one column.

``DensityState.from_vector`` stores the unit vector as its factor and forms ``matrix`` on the
first read.  Above 256 x 256 the reversible map, the product, the marginal, the conditional and
the membership test of such a state read the factor; the rows of ``test_admission.py`` pin
their bytes on (2,5,5), and these tests pin their errors, verdicts and memory.
"""

import time
import tracemalloc

import numpy as np
import pytest

from duoc import states
from duoc.dynamics import ReversibleSpec, _conjugate_monomial, _reversible_index_map
from duoc.effects import conditional_state, random_certified_effect
from duoc.errors import DegenerateInputError, DomainError, ShapeError
from duoc.linalg import projector
from duoc.states import (
    DensityState, draw_valid_states, large_factor, marginal_state, product_state,
    random_mixed_state, validate_cone_member, validate_mixed_state,
)
from duoc.systems import FactorPermutation, SystemSignature, index_table

from conftest import digit_difference_cover

SIG11 = SystemSignature(2, 1, 1)


# the errors, messages and order of projector(v) followed by the length check
@pytest.mark.parametrize("v, error, message", [
    ([np.nan, 1, 0, 0], ShapeError, "vector contains non-finite entries"),
    ([np.inf, 0, 0, 0], ShapeError, "vector contains non-finite entries"),
    ([1e200, 0, 0, 0], DomainError, "vector entry of modulus 1e+200 exceeds 1e+150"),
    ([0, 0, 0, 0], DegenerateInputError, "cannot project onto a (near-)zero vector"),
    ([1e-13, 0, 0, 0], DegenerateInputError, "cannot project onto a (near-)zero vector"),
    (np.eye(2), ShapeError, "expected a nonempty 1-D vector, got shape (2, 2)"),
    ([], ShapeError, "expected a nonempty 1-D vector, got shape (0,)"),
    (1.0, ShapeError, "expected a nonempty 1-D vector, got shape ()"),
    ([1, 0, 0], ShapeError, "matrix dim 3 != composite dimension 4"),
    ([1, 0, 0, 0, 0], ShapeError, "matrix dim 5 != composite dimension 4"),
    ([0, 0, 0], DegenerateInputError, "cannot project onto a (near-)zero vector"),
    ([np.nan, 0, 0], ShapeError, "vector contains non-finite entries"),
    ([1e200, 0, 0], DomainError, "vector entry of modulus 1e+200 exceeds 1e+150"),
], ids=["nan", "inf", "huge", "zero", "tiny", "matrix", "empty", "scalar", "short", "long",
        "short-zero", "short-nan", "short-huge"])
def test_from_vector_raises_the_projector_errors(v, error, message):
    with pytest.raises(error) as info:
        DensityState.from_vector(SIG11, v)
    assert type(info.value) is error and str(info.value) == message


def test_factor_kernels_start_above_256():
    assert states.FACTOR_PATH_DIM == 256
    small, large = SystemSignature(2, 4, 4), SystemSignature(2, 5, 4)
    assert large_factor(DensityState.from_vector(small, np.ones(small.dim))) is None
    rho = DensityState.from_vector(large, np.ones(large.dim))
    assert large_factor(rho) is rho.factor and rho.factor.shape == (large.dim, 1)
    assert large_factor(DensityState._admitted(large, rho.matrix)) is None


def test_repr_of_a_pure_state_prints_its_factor_without_forming_the_matrix():
    rho = DensityState.from_vector(SIG11, [1, 0, 0, 1])
    assert "factor=" in repr(rho) and rho._matrix is None
    rho.matrix
    assert "matrix=" in repr(rho)


def leaked(sig, rng, eps):
    """A valid pure state of ``sig`` with ``eps`` added on a basis index outside its support."""
    v = draw_valid_states(sig, 1, rng)[0]
    v[np.flatnonzero(v == 0)[0]] = eps
    return v


# (2,9,0) has one pairing, where the cell test decides; (3,3,3) holds [347, 272, 477], three
# basis states that pairwise share a cell but lie on no common one
MEMBERSHIP = {
    "valid": lambda sig, rng: draw_valid_states(sig, 1, rng)[0],
    "leak 1e-12": lambda sig, rng: leaked(sig, rng, 1e-12),
    "leak 1e-6": lambda sig, rng: leaked(sig, rng, 1e-6),
    "random": lambda sig, rng: rng.normal(size=sig.dim) + 1j * rng.normal(size=sig.dim),
    "covered, on no cell": lambda sig, rng: np.isin(np.arange(sig.dim), [347, 272, 477]),
}


@pytest.mark.parametrize("dmn, case", [
    *((dmn, case) for dmn in [(2, 9, 0), (3, 3, 3), (2, 5, 5), (2, 4, 5)]
      for case in list(MEMBERSHIP)[:4]),
    ((3, 3, 3), "covered, on no cell"),
], ids=str)
def test_membership_from_the_vector_decides_as_the_matrix(dmn, case, rng):
    sig = SystemSignature(*dmn)
    v = MEMBERSHIP[case](sig, rng)
    rho = DensityState.from_vector(sig, v)
    rep = validate_mixed_state(rho)
    assert rho._matrix is None  # decided with no dim x dim projector
    want = validate_cone_member(sig, projector(v))
    assert (rep.valid, rep.witness, rep.flags) == (want.valid, want.witness, want.flags)
    assert rep.residual == pytest.approx(want.residual, rel=1e-9, abs=1e-15)
    if case == "covered, on no cell":
        # the state is exactly rank 1 and its one spectral column lies far from every cell, so
        # no mass cut below DEFAULT_ATOL explains the leak: rejected exactly
        assert not rep.valid and rep.flags == ()


@pytest.mark.parametrize("eps", [1e-7, 1e-6, 1e-5])
def test_mixture_cut_to_one_column_is_not_rejected_exactly(eps):
    # a and b each lie on a cell (c and x share one, c and y another) and sum a valid mixture.
    # Its second eigenvalue eps^2 / 2 falls below the cut, so one spectral column is kept; that
    # column leaks about eps / 2, past SPECTRAL_ATOL, but the cut mass explains the leak
    sig = SystemSignature(3, 3, 3)
    (c, x, y), terms = (347, 272, 477), np.zeros((sig.dim, 2))
    terms[c], terms[x, 0], terms[y, 1] = np.sqrt(1 - eps**2), eps, eps
    factor = terms / np.sqrt(2)
    for rho in (DensityState._factored(sig, factor), DensityState(sig, factor @ factor.T)):
        rep = validate_mixed_state(rho)
        assert (rep.valid, rep.witness, rep.flags) == (
            False, "spectral decomposition", ("NON-EXHAUSTIVE",))


class Products(np.ndarray):
    """A factor that counts the products (``matmul``, ``multiply``) taken of it."""

    taken = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc in (np.matmul, np.multiply):
            Products.taken += 1
        inputs = [x.view(np.ndarray) if isinstance(x, Products) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("dmn", [(2, 2, 2), (2, 3, 3)], ids=str)
@pytest.mark.parametrize("case", list(MEMBERSHIP)[:4])
def test_membership_reads_a_formed_matrix_as_it_reads_the_factor(dmn, case, rng):
    # at or below CELL_TEST_SUPPORT_DIM the cell test reads a held matrix whole, taking no
    # product of the factor; the spectral columns still come from the factor
    sig = SystemSignature(*dmn)
    v = MEMBERSHIP[case](sig, rng)
    unread, read = DensityState.from_vector(sig, v), DensityState.from_vector(sig, v)
    read.matrix
    read.factor = read.factor.view(Products)
    Products.taken = 0
    got, want = validate_mixed_state(read), validate_mixed_state(unread)
    assert Products.taken == 0 and unread._matrix is None
    # with no matrix held the cell test forms the one .matrix forms, so nothing rounds apart
    assert (got.valid, got.witness, got.flags, got.residual) == (
        want.valid, want.witness, want.flags, want.residual)


@pytest.mark.parametrize("dmn", [(2, 2, 2), (2, 3, 3)], ids=str)
def test_residual_does_not_depend_on_a_read_matrix(dmn):
    sig, rng = SystemSignature(*dmn), np.random.default_rng(sum(dmn))
    pairs = [(random_mixed_state(sig, seed)[0], random_mixed_state(sig, seed)[0])
             for seed in range(50)]
    pairs += [(DensityState.from_vector(sig, v), DensityState.from_vector(sig, v))
              for v in (MEMBERSHIP["random"](sig, rng) for _ in range(100))]
    for unread, read in pairs:
        read.matrix
        got, want = validate_mixed_state(read), validate_mixed_state(unread)
        assert unread._matrix is None
        assert (got.valid, got.residual, got.witness, got.flags) == (
            want.valid, want.residual, want.witness, want.flags)


@pytest.mark.parametrize("seed", range(3))
def test_drawn_mixture_at_the_cap_is_drawn_and_checked_within_a_second(seed):
    sig = SystemSignature(2, 6, 6)
    index_table(sig)  # the per-signature tables are built once per process, not per draw
    tracemalloc.start()
    start = time.thread_time()
    try:
        rho, cert = random_mixed_state(sig, seed)
        rep = validate_mixed_state(rho)
        cpu = time.thread_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cpu < 1.0 and peak < 50e6
    # a certified mixture is never rejected decisively
    assert rep.valid or rep.flags == ("NON-EXHAUSTIVE",)
    assert rho._matrix is None and rho.factor.shape == (sig.dim, len(cert))


@pytest.mark.parametrize("dmn", [(3, 3, 3), (2, 5, 5)], ids=str)
@pytest.mark.parametrize("case", list(MEMBERSHIP)[:4])
def test_vector_cell_test_is_the_largest_off_cell_product(dmn, case, rng):
    # the blocked walk over the support gives the whole maximum, to rounding: the walk takes
    # |v_i conj(v_j)|, the product of one entry of a matrix product, not |v_i| |v_j|
    sig = SystemSignature(*dmn)
    f = DensityState.from_vector(sig, MEMBERSHIP[case](sig, rng)).factor
    mag, every = np.abs(f[:, 0]), np.arange(sig.dim)
    want = np.max(np.where(digit_difference_cover(sig, every, every), 0.0, mag[:, None] * mag))
    assert states._off_cell(sig, None, f) == pytest.approx(want, rel=1e-14)


def test_pure_pipeline_at_the_cap_forms_no_cap_sized_array(rng):
    """A (2,6,6) pure state through admission, a reversible map from a spec, a marginal, a
    conditional, a membership test and a product allocates no 4096 x 4096 array, even of
    booleans, and takes a small fraction of a second of CPU."""
    sig, half = SystemSignature(2, 6, 6), SystemSignature(2, 3, 3)
    v = draw_valid_states(sig, 1, rng)[0]
    spec = ReversibleSpec(FactorPermutation(rng.permutation(6), rng.permutation(6)),
                          rng.integers(0, 2, size=12), rng.integers(0, 2, size=12))
    positions = (0, 1, 2, 6, 7, 8)
    effect = random_certified_effect(sig.sub_signature(positions), rng)
    left, right = (DensityState.from_vector(half, u) for u in draw_valid_states(half, 2, rng))
    tracemalloc.start()
    start = time.thread_time()
    try:
        rho = DensityState.from_vector(sig, v)
        moved = _conjugate_monomial(*_reversible_index_map(spec, sig), rho)
        marg = marginal_state(moved, (0, 1, 2, 6, 7, 8))
        prob, post = conditional_state(moved, effect, positions)
        rep = validate_mixed_state(moved)
        joint = product_state(left, right)
        cpu = time.thread_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sig.dim * sig.dim and cpu < 0.1
    assert rep.valid and marg.sig.dim == 64 and joint.sig == sig and joint.factor is not None
    assert post is None or post.sig.dim == 64
    assert abs(prob - np.real(np.trace(effect.op @ marginal_state(moved, positions).matrix))) \
        <= 1e-12
