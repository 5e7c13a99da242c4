"""The sampled channel check decides complete positivity as state admission decides positivity,
and draws its samples as consecutive ``random_mixed_state`` calls on one generator do.

Complete positivity is read off the Hermitian part of the Choi matrix by ``psd_defect`` at
``INPUT_ATOL``: a low-rank factor, then Cholesky, then ``eigvalsh``.  The samples are drawn one
at a time with no spec built, so a check that stops early at sample k has drawn k samples.  A
sampled image that is no density matrix at ``DEFAULT_ATOL`` fails the check with its defect.
"""

import numpy as np
import pytest

from duoc import random_mixed_state
from duoc.dynamics import (
    ReversibleSpec, TRANSFORMATION_SAMPLES, build_reversible, choi_matrix, validate_transformation,
)
from duoc.linalg import INPUT_ATOL, hermitian_part
from duoc.states import validate_mixed_state
from duoc.systems import FactorPermutation, SystemSignature

STREAM_SIGS = [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2)]


def recording(map_fn):
    """``map_fn`` that also keeps a copy of every input it is given."""
    inputs = []

    def wrapped(mat):
        inputs.append(np.array(mat))
        return map_fn(mat)

    return wrapped, inputs


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("dmn", STREAM_SIGS)
def test_samples_are_consecutive_mixed_state_draws(dmn, seed):
    sig = SystemSignature(*dmn)
    map_fn, inputs = recording(lambda r: r)
    rep = validate_transformation(map_fn, sig, sig, seed=seed)
    # two linearity probes, the Choi matrix's shape probe and its dim^2 unit matrices come first
    samples = inputs[3 + sig.dim**2:]
    assert 1 <= len(samples) <= TRANSFORMATION_SAMPLES
    rng = np.random.default_rng(seed)
    undecided = []
    for got in samples:
        want = random_mixed_state(sig, rng)[0]
        assert np.max(np.abs(got - want.matrix)) <= 1e-15
        undecided.append("NON-EXHAUSTIVE" in validate_mixed_state(want).flags)
    if rep.witness == "UNDECIDED output state":
        # the check stops at the first draw it cannot decide, and has drawn nothing beyond it
        assert undecided.index(True) == len(samples) - 1
    else:
        assert rep.valid and len(samples) == TRANSFORMATION_SAMPLES and not any(undecided)


def choi_map(choi, d):
    """The linear map on ``d x d`` matrices whose Choi matrix (:func:`choi_matrix`) is ``choi``."""
    blocks = choi.reshape(d, d, d, d)
    return lambda x: np.einsum("aibj,ij->ab", blocks, x)


def dephasing_with_coupling(c):
    """Choi matrix of a bit's dephasing plus ``E_01 -> c E_10`` and ``E_10 -> conj(c) E_01``:
    a classical channel on diagonal inputs, whose Choi matrix has smallest eigenvalue ``-|c|``."""
    choi = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    choi[2, 1], choi[1, 2] = c, np.conj(c)
    return choi


SIG10 = SystemSignature(2, 1, 0)


def test_choi_just_inside_the_threshold_passes():
    choi = dephasing_with_coupling(0.5 * INPUT_ATOL)
    assert np.linalg.eigvalsh(choi)[0] == pytest.approx(-0.5 * INPUT_ATOL, rel=1e-6)
    rep = validate_transformation(choi_map(choi, 2), SIG10, SIG10)
    assert rep.valid and rep.witness == "sampled channel check"
    assert rep.residual == 0.0  # Cholesky of choi + INPUT_ATOL*I decided; no eigenvalue taken


def test_choi_beyond_the_threshold_rejected_with_its_eigenvalue():
    map_fn = choi_map(dephasing_with_coupling(2 * INPUT_ATOL), 2)
    rep = validate_transformation(map_fn, SIG10, SIG10)
    assert not rep.valid and rep.witness == "complete positivity"
    assert rep.residual == -np.linalg.eigvalsh(hermitian_part(choi_matrix(map_fn, 2))[0])[0]
    assert rep.residual == pytest.approx(2 * INPUT_ATOL, rel=1e-6)


@pytest.fixture
def shapes(monkeypatch):
    """The shapes of the matrices ``np.linalg.eigvalsh`` and ``np.linalg.cholesky`` are called on."""
    seen = {"eigvalsh": [], "cholesky": []}

    def recorder(name, fn):
        def wrapped(a, *args, **kwargs):
            seen[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in seen:
        monkeypatch.setattr(np.linalg, name, recorder(name, getattr(np.linalg, name)))
    return seen


@pytest.mark.parametrize("dmn", [(2, 1, 1), (2, 2, 2)])
def test_full_rank_choi_accepted_by_cholesky(dmn, shapes):
    sig = SystemSignature(*dmn)
    rep = validate_transformation(lambda r: np.trace(r) * np.eye(sig.dim) / sig.dim, sig, sig)
    assert rep.valid and rep.residual <= INPUT_ATOL
    side = sig.dim**2
    assert (side, side) in shapes["cholesky"] and (side, side) not in shapes["eigvalsh"]


def test_reversible_choi_needs_no_eigendecomposition(shapes):
    sig = SystemSignature(2, 2, 2)
    spec = ReversibleSpec(FactorPermutation((1, 0), (1, 0)), x_shifts=(1, 0, 1, 1),
                          z_phases=(0, 1, 1, 0))
    u = build_reversible(spec, sig)
    rep = validate_transformation(lambda r: u @ r @ u.conj().T, sig, sig, seed=3)
    assert rep.witness in ("sampled channel check", "UNDECIDED output state")
    # the rank-1 Choi matrix is proved positive by its low-rank factor
    assert (256, 256) not in shapes["eigvalsh"] and (256, 256) not in shapes["cholesky"]


def slightly_negative_classical_map(r):
    """``diag(x) -> diag((1 + 5e-10) x0 + x1 / 2, -5e-10 x0 + x1 / 2)`` on a bit: its Choi matrix
    has eigenvalue -5e-10, inside ``INPUT_ATOL``, and the image of ``|0><0|`` dips to -5e-10,
    beyond the ``DEFAULT_ATOL`` a density matrix is admitted at."""
    return np.diag([(1 + 5e-10) * r[0, 0] + r[1, 1] / 2, -5e-10 * r[0, 0] + r[1, 1] / 2])


@pytest.mark.parametrize("seed", range(6))
def test_output_below_admission_reported_not_raised(seed):
    rep = validate_transformation(slightly_negative_classical_map, SIG10, SIG10, seed=seed)
    assert not rep.valid and rep.witness == "invalid output state" and rep.flags == ("SAMPLED",)
    assert rep.residual == pytest.approx(5e-10, rel=1e-6)


def antihermitian_drift_map(r):
    """The identity plus ``5e-10 tr(r) [[0, 1], [-1, 0]]``: the Hermitian part of its Choi matrix
    is the identity's, and every image ``X`` has ``max |X^H - X| = 1e-9``."""
    return r + 5e-10 * np.trace(r) * np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("seed", range(3))
def test_non_hermitian_output_reported_with_its_defect(seed):
    rep = validate_transformation(antihermitian_drift_map, SIG10, SIG10, seed=seed)
    assert not rep.valid and rep.witness == "invalid output state" and rep.flags == ("SAMPLED",)
    assert rep.residual == pytest.approx(1e-9, rel=1e-6)
