"""A low-rank operator reaches the membership verdict of the spectral path without its ``eigh``.

``validate_cone_member`` takes the spectral columns of an operator of rank at most
``max(1, dim // 64)`` from the factor of ``linalg.low_rank_psd`` (residual at most
``DEFAULT_ATOL``): its left singular vectors, of a rank-1 operator the one column over its
norm.  The reference below is the spectral path as it stood before: the cell test, then the
pattern test of every eigenvector above ``DEFAULT_ATOL``, whose rejection of more than one
eigenvector is flagged ``NON-EXHAUSTIVE``; a lone eigenvector of these inputs leaks too far for
the mass below the cut to explain, so its rejection is exact.
"""

import numpy as np
import pytest

from duoc.linalg import DEFAULT_ATOL, SPECTRAL_ATOL, projector
from duoc.states import (
    draw_valid_states, pattern_test, random_mixed_state, validate_cone_member,
)
from duoc.systems import SystemSignature, index_table

from conftest import cell_cover

RANK_ONE_SIGS = [(2, 2, 1), (2, 1, 2), (2, 2, 2), (3, 2, 1), (2, 3, 2), (2, 3, 3), (3, 2, 2)]


def spectral_verdict(sig, mat):
    """``(valid, flags)`` of the uncertified membership test by cell test and ``eigh`` alone."""
    mag = np.abs(mat)
    np.putmask(mag, cell_cover(sig), 0.0)
    if (off := float(np.max(mag))) > DEFAULT_ATOL or len(index_table(sig).relabelings) == 1:
        return off <= DEFAULT_ATOL, ()
    vals, vecs = np.linalg.eigh(mat)
    cols = vecs[:, vals > DEFAULT_ATOL].T
    if len(cols) and not pattern_test(cols, sig, atol=SPECTRAL_ATOL)[0].all():
        # every input here is exactly of its rank and a lone column of it leaks past 1e-4, so
        # no mass cut below DEFAULT_ATOL explains the leak: its rejection is exact
        return False, ("NON-EXHAUSTIVE",) if len(cols) > 1 else ()
    return True, ()


@pytest.fixture
def eigh_calls(monkeypatch):
    """The number of ``np.linalg.eigh`` calls made so far, in ``calls[0]``."""
    calls, eigh = [0], np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls[0] += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def rank_one_inputs(sig, rng):
    """Projectors of valid pure states, of the same states moved by 1e-3 and by 1e-12 along a
    random direction, and the effects ``w P`` of each, ``w`` drawn from [0.2, 1)."""
    vecs = draw_valid_states(sig, 10, rng)
    noise = rng.normal(size=vecs.shape) + 1j * rng.normal(size=vecs.shape)
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    states = [projector(v) for eps in (0.0, 1e-3, 1e-12) for v in vecs + eps * noise]
    return states + [rng.uniform(0.2, 1.0) * p for p in states]


@pytest.mark.parametrize("dmn", RANK_ONE_SIGS)
def test_rank_one_verdicts_match_the_spectral_path(dmn, eigh_calls):
    sig = SystemSignature(*dmn)
    inputs = rank_one_inputs(sig, np.random.default_rng(sum(dmn)))
    want = [spectral_verdict(sig, mat) for mat in inputs]
    eigh_calls[0] = 0
    got = [validate_cone_member(sig, mat) for mat in inputs]
    assert [(rep.valid, rep.flags) for rep in got] == want
    assert eigh_calls[0] == 0
    # the valid states and their 1e-12 moves pass, as states and as effects
    assert sum(rep.valid for rep in got) == 40


def test_rank_three_mixture_still_reaches_eigh(eigh_calls):
    sig = SystemSignature(2, 2, 2)
    rho, cert = next(draw for draw in (random_mixed_state(sig, seed) for seed in range(20))
                     if len(draw[1]) == 3)
    eigh_calls[0] = 0
    validate_cone_member(sig, rho.matrix)
    assert eigh_calls[0] == 1


def test_mixture_within_the_factor_cap_skips_eigh(eigh_calls):
    # at dim 256 low_rank_psd factors up to rank 4
    sig = SystemSignature(2, 4, 4)
    draws = [random_mixed_state(sig, seed)[0] for seed in range(12)]
    want = [spectral_verdict(sig, rho.matrix) for rho in draws]
    eigh_calls[0] = 0
    got = [validate_cone_member(sig, rho.matrix) for rho in draws]
    assert [(rep.valid, rep.flags) for rep in got] == want
    assert eigh_calls[0] == 0
