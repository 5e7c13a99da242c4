"""A low-rank operator reaches the membership verdict of the spectral path without its ``eigh``.

``validate_cone_member`` takes the spectral columns of an operator that holds no factor from the
pivoted Cholesky factor of ``linalg.low_rank_psd`` (residual at most ``DEFAULT_ATOL``) when its
rank is at most the membership cap: ``dim // 4`` from dimension ``SPECTRAL_FACTOR_DIM`` (16) up,
1 below it.  The columns are the factor's left singular vectors, of a rank-1 operator the one
column over its norm.  Admission keeps its own cap of ``max(1, dim // 64)``.  The reference below
is the spectral path as it stood before: the cell test, then the pattern test of every
eigenvector above ``DEFAULT_ATOL``, whose rejection of more than one eigenvector is flagged
``NON-EXHAUSTIVE``; a lone eigenvector of these inputs leaks too far for the mass below the cut
to explain, so its rejection is exact.
"""

import time

import numpy as np
import pytest

from duoc.effects import Effect, validate_effect
from duoc.linalg import DEFAULT_ATOL, SPECTRAL_ATOL, projector
from duoc.states import (
    SPECTRAL_FACTOR_DIM, DensityState, draw_valid_states, pattern_test, random_mixed_state,
    validate_cone_member, validate_mixed_state,
)
from duoc.systems import SystemSignature, index_table

from conftest import cell_cover

RANK_ONE_SIGS = [(2, 2, 1), (2, 1, 2), (2, 2, 2), (3, 2, 1), (2, 3, 2), (2, 3, 3), (3, 2, 2)]

# the term counts of the sweep, from 2 up to the membership cap dim // 4; every one at dim <= 81
SWEEP_RANKS = {(2, 2, 2): range(2, 5), (2, 3, 2): range(2, 9), (2, 3, 3): range(2, 17),
               (3, 2, 2): range(2, 21), (2, 4, 4): (2, 3, 5, 8, 16, 32, 64)}


def spectral_verdict(sig, mat, cover=None):
    """``(valid, witness, flags)`` of the uncertified membership test by cell test and ``eigh``
    alone; ``cover`` is :func:`cell_cover` of ``sig``, formed here if not given."""
    mag = np.abs(mat)
    np.putmask(mag, cell_cover(sig) if cover is None else cover, 0.0)
    if (off := float(np.max(mag))) > DEFAULT_ATOL or len(index_table(sig).relabelings) == 1:
        return off <= DEFAULT_ATOL, "cell test", ()
    vals, vecs = np.linalg.eigh(mat)
    cols = vecs[:, vals > DEFAULT_ATOL].T
    if len(cols) and not pattern_test(cols, sig, atol=SPECTRAL_ATOL)[0].all():
        # every input here is exactly of its rank and a lone column of it leaks past 1e-4, so
        # no mass cut below DEFAULT_ATOL explains the leak: its rejection is exact
        flags = ("NON-EXHAUSTIVE",) if len(cols) > 1 else ()
        return False, "spectral decomposition", flags
    return True, "spectral decomposition", ()


def rank_one_inputs(sig, rng):
    """Projectors of valid pure states, of the same states moved by 1e-3 and by 1e-12 along a
    random direction, and the effects ``w P`` of each, ``w`` drawn from [0.2, 1)."""
    vecs = draw_valid_states(sig, 10, rng)
    noise = rng.normal(size=vecs.shape) + 1j * rng.normal(size=vecs.shape)
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    states = [projector(v) for eps in (0.0, 1e-3, 1e-12) for v in vecs + eps * noise]
    return states + [rng.uniform(0.2, 1.0) * p for p in states]


def mixture(vecs, rng):
    """``sum_t w_t |v_t><v_t|`` of the unit rows of ``vecs``, Dirichlet weights."""
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    return (vecs.T * rng.dirichlet(np.ones(len(vecs)))) @ vecs.conj()


def mixtures(sig, terms, rng):
    """Mixtures of ``terms`` valid pure states: of drawn states (of rank ``terms``, and rejected
    unless their eigenvectors happen to be valid), of states with any amplitudes on the support
    of one drawn state (so on one cell, of rank at most its size: they pass) and of basis states
    (diagonal: they pass)."""
    support = np.flatnonzero(draw_valid_states(sig, 1, rng)[0])
    on_cell = np.zeros((terms, sig.dim), dtype=complex)
    on_cell[:, support] = (rng.normal(size=(terms, support.size))
                           + 1j * rng.normal(size=(terms, support.size)))
    basis = np.eye(sig.dim, dtype=complex)[rng.choice(sig.dim, size=terms, replace=False)]
    return [mixture(vecs, rng) for vecs in (draw_valid_states(sig, terms, rng), on_cell, basis)]


def membership_cap(sig):
    return sig.dim // 4 if sig.dim >= SPECTRAL_FACTOR_DIM else 1


@pytest.mark.parametrize("dmn", RANK_ONE_SIGS)
def test_rank_one_verdicts_match_the_spectral_path(dmn, linalg_calls):
    sig = SystemSignature(*dmn)
    inputs = rank_one_inputs(sig, np.random.default_rng(sum(dmn)))
    cover = cell_cover(sig)
    want = [spectral_verdict(sig, mat, cover) for mat in inputs]
    linalg_calls["eigh"].clear()
    got = [validate_cone_member(sig, mat) for mat in inputs]
    assert [(rep.valid, rep.witness, rep.flags) for rep in got] == want
    assert linalg_calls["eigh"] == []
    # the valid states and their 1e-12 moves pass, as states and as effects
    assert sum(rep.valid for rep in got) == 40


@pytest.mark.parametrize("dmn", list(SWEEP_RANKS))
def test_uncertified_members_up_to_the_cap_match_eigh(dmn, linalg_calls):
    # 306 inputs over the five signatures: admitted states and bare effects, decided as
    # the eigh reference decides them, and with no eigh
    sig = SystemSignature(*dmn)
    rng = np.random.default_rng(35 + sum(dmn))
    states, effects = [], []
    for terms in SWEEP_RANKS[dmn]:
        assert terms <= membership_cap(sig)
        for mat in mixtures(sig, terms, rng):
            states.append(DensityState(sig, mat))
            effects.append(Effect(sig, rng.uniform(0.2, 1.0) * mat))
    cover = cell_cover(sig)
    want = [spectral_verdict(sig, op, cover)
            for op in [rho.matrix for rho in states] + [e.op for e in effects]]
    linalg_calls["eigh"].clear()
    got = [validate_mixed_state(rho) for rho in states] + [validate_effect(e) for e in effects]
    assert [(rep.valid, rep.witness, rep.flags) for rep in got] == want
    assert linalg_calls["eigh"] == []
    assert {rep.valid for rep in got} == {True, False}
    assert all(e.certificate is None for e in effects)


@pytest.mark.parametrize("dmn", [(2, 2, 1), (2, 2, 2), (2, 3, 3)])
def test_rank_above_the_membership_cap_still_reaches_eigh(dmn, linalg_calls):
    # one more term than the cap: 2 at dim 8, 5 at dim 16, 17 at dim 64
    sig = SystemSignature(*dmn)
    rng = np.random.default_rng(sig.dim)
    mat = DensityState(sig, mixture(draw_valid_states(sig, membership_cap(sig) + 1, rng),
                                     rng)).matrix
    want = spectral_verdict(sig, mat)
    linalg_calls["eigh"].clear()
    rep = validate_cone_member(sig, mat)
    assert linalg_calls["eigh"] == [(sig.dim, sig.dim)]
    assert (rep.valid, rep.witness, rep.flags) == want


def test_mixture_within_the_factor_cap_skips_eigh(linalg_calls):
    # at dim 256 membership factors up to rank 64
    sig = SystemSignature(2, 4, 4)
    draws = [random_mixed_state(sig, seed)[0] for seed in range(12)]
    want = [spectral_verdict(sig, rho.matrix) for rho in draws]
    linalg_calls["eigh"].clear()
    got = [validate_cone_member(sig, rho.matrix) for rho in draws]
    assert [(rep.valid, rep.witness, rep.flags) for rep in got] == want
    assert linalg_calls["eigh"] == []


def test_rank_forty_state_at_dim_1024_decided_in_half_a_second(linalg_calls):
    # an eigh of the 1024 x 1024 matrix alone takes over a second
    sig = SystemSignature(2, 5, 5)
    rng = np.random.default_rng(40)
    rho = DensityState(sig, mixture(draw_valid_states(sig, 40, rng), rng))
    assert rho.factor is None
    start = time.process_time()
    rep = validate_mixed_state(rho)
    assert time.process_time() - start <= 0.5
    assert linalg_calls["eigh"] == []
    assert rep.witness == "spectral decomposition"
    assert not rep.valid and rep.flags == ("NON-EXHAUSTIVE",)
