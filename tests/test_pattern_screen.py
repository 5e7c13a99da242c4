"""The pattern test's vectorized screen against the per-row, per-relabeling leak loop.

A row with no nonzero entry off some relabeling's cell, that leaks clearly more than ``atol``
under every earlier relabeling, is settled without a norm; the loop would return that
relabeling with leak ``0.0``.  Every other row still takes the loop, so every row must come
back from :func:`~duoc.states.pattern_test` bit for bit as the loop returns it.
"""

import tracemalloc

import numpy as np
import pytest

import duoc.states
from duoc.effects import (
    _measured_first, conditional_failures, corrupt_case, draw_conditional_trials,
)
from duoc.linalg import DEFAULT_ATOL, SPECTRAL_ATOL, vector_norm
from duoc.states import build_pure_state, draw_valid_states, pattern_test, random_mixed_state
from duoc.systems import SystemSignature, index_table


def loop_pattern_test(vecs, sig, atol):
    """Every row through the leak loop: relabelings in order, the first leak at most ``atol``,
    else the first least; the key read at the first largest amplitude of the winner's layout."""
    key, gather = index_table(sig).key, index_table(sig).gather.astype(np.intp)
    out = []
    for vec in np.asarray(vecs, dtype=complex):
        mag = np.abs(vec)
        keys = key[(mag[gather] == mag.max()).argmax(axis=1)]
        best = (np.inf, 0)
        for k, cols in enumerate(gather):
            if (lk := vector_norm(vec[cols[key != keys[k]]])) < best[0]:
                best = (lk, k)
            if lk <= atol:
                break
        out.append((best[0] <= atol, best[0], best[1], keys[best[1]]))
    valid, leak, pick, refs = zip(*out)
    return np.array(valid), np.array(leak), np.array(pick), np.array(refs)


def assert_matches_loop(vecs, sig, atol):
    got, want = pattern_test(vecs, sig, atol), loop_pattern_test(vecs, sig, atol)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def cell(sig, k, index):
    """The basis indices of relabeling ``k``'s cell that holds ``index``."""
    table = index_table(sig)
    row = table.gather[k].astype(np.intp)
    return row[table.key == table.key[np.flatnonzero(row == index)[0]]]


def leaky_row(sig, rng, leak):
    """A unit row exactly supported on relabeling 1's cell of basis state 0, leaking ``leak``
    under relabeling 0 (whose cell of basis state 0 holds its largest amplitude)."""
    on = cell(sig, 1, 0)
    stray = np.setdiff1d(on, cell(sig, 0, 0))
    assert stray.size
    v = np.zeros(sig.dim, dtype=complex)
    v[stray] = rng.normal(size=stray.size) + 1j * rng.normal(size=stray.size)
    v[stray] *= leak / vector_norm(v[stray])
    v[0] = np.sqrt(1 - leak**2)
    return v


# every signature here has at least two pairings
SIGS = [(2, 2, 1), (2, 1, 2), (2, 2, 2), (3, 2, 1), (2, 3, 2), (2, 3, 3)]
ATOLS = [DEFAULT_ATOL, SPECTRAL_ATOL, 0.0, 0.3]


@pytest.mark.parametrize("dmn", SIGS, ids=str)
def test_leak_below_atol_under_an_earlier_relabeling_wins(dmn):
    sig, rng = SystemSignature(*dmn), np.random.default_rng(3)
    v = leaky_row(sig, rng, 0.5 * DEFAULT_ATOL)
    valid, leak, k, _ = pattern_test(v[None], sig)
    assert valid[0] and k[0] == 0 and 0 < leak[0] <= DEFAULT_ATOL
    assert_matches_loop(v[None], sig, DEFAULT_ATOL)


# between atol and the screen's margin the loop decides; beyond it the screen does
@pytest.mark.parametrize("scale", [1.5, 3.0, 1e3])
@pytest.mark.parametrize("dmn", SIGS, ids=str)
def test_leak_above_atol_under_an_earlier_relabeling_loses(dmn, scale):
    sig, rng = SystemSignature(*dmn), np.random.default_rng(4)
    v = leaky_row(sig, rng, scale * DEFAULT_ATOL)
    valid, leak, k, _ = pattern_test(v[None], sig)
    assert valid[0] and k[0] == 1 and leak[0] == 0.0
    assert_matches_loop(v[None], sig, DEFAULT_ATOL)


# the square of an entry this small underflows, so its leak is 0.0 at atol = 0
def test_tiny_entry_leaks_nothing_at_zero_atol():
    sig = SystemSignature(2, 2, 2)
    v = leaky_row(sig, np.random.default_rng(5), 1e-170)
    assert pattern_test(v[None], sig, 0.0)[2][0] == 0
    assert_matches_loop(v[None], sig, 0.0)


@pytest.mark.parametrize("atol", ATOLS)
@pytest.mark.parametrize("dmn", SIGS + [(2, 1, 1), (3, 1, 1), (2, 2, 0), (2, 0, 3)], ids=str)
def test_stack_matches_the_loop_bit_for_bit(dmn, atol):
    # valid rows, perturbed ones, eigenvector columns, ties, and (with two pairings) rows
    # leaking around atol under relabeling 0
    sig, rng = SystemSignature(*dmn), np.random.default_rng(6)
    valid = draw_valid_states(sig, 20, rng)
    noise = rng.normal(size=valid.shape) + 1j * rng.normal(size=valid.shape)
    rows = [valid, valid + 1e-3 * noise, valid + 1e-11 * noise, np.ones((1, sig.dim))]
    mixture = random_mixed_state(sig, rng)[0].matrix
    vals, vecs = np.linalg.eigh(mixture)
    rows.append(vecs[:, vals > DEFAULT_ATOL].T)
    if len(index_table(sig).relabelings) > 1:
        rows.append([leaky_row(sig, rng, s * DEFAULT_ATOL) for s in (0.5, 1.0, 2.0, 2.5, 1e4)])
    vecs = np.concatenate(rows)
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    assert_matches_loop(vecs, sig, atol)


@pytest.mark.parametrize("dmn", [(2, 1, 1), (2, 2, 1), (3, 2, 2)], ids=str)
def test_corrupt_branches_match_the_loop(dmn):
    sig = SystemSignature(*dmn)
    spec, e_vec, _ = corrupt_case(sig)
    branch = e_vec.conj() @ build_pure_state(spec).reshape(sig.d, -1)
    branch /= np.linalg.norm(branch)
    rest = SystemSignature(sig.d, sig.m - 1, sig.n)
    assert not pattern_test(branch[None], rest)[0][0]
    assert_matches_loop(branch[None], rest, DEFAULT_ATOL)


# every branch of a valid trial is exactly supported on a cell, so no norm is taken
@pytest.mark.parametrize("dmn", [(2, 2, 2), (2, 3, 3), (3, 2, 1)], ids=str)
def test_valid_trials_take_no_norm(dmn, monkeypatch):
    sig = SystemSignature(*dmn)
    psi, measured, groups = draw_conditional_trials(200, sig, np.random.default_rng(8))
    psi = _measured_first(sig, psi, measured)
    for sub, rows, terms, weights in groups:
        rest = SystemSignature(sig.d, sig.m - sub.m, sig.n - sub.n)
        branch = (terms.conj() @ psi[rows].reshape(len(rows), sub.dim, rest.dim))[weights > 0]
        size = np.linalg.norm(branch, axis=1)
        assert_matches_loop(branch[size > 1e-6] / size[size > 1e-6, None], rest, DEFAULT_ATOL)
    norms = []
    monkeypatch.setattr(duoc.states, "vector_norm", lambda v: norms.append(v) or vector_norm(v))
    assert conditional_failures(200, sig, np.random.default_rng(8)) == 0
    assert norms == []


# 720 relabelings of 4096 entries run in blocks of 64
def test_blocked_relabelings_match_the_loop():
    sig, rng = SystemSignature(2, 6, 6), np.random.default_rng(9)
    valid = draw_valid_states(sig, 2, rng)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    mixed = (h @ valid[0].reshape(2, -1)).reshape(-1)
    noise = rng.normal(size=sig.dim) * 1e-11
    vecs = np.stack([valid[0], valid[1], mixed, valid[1] + noise])
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    assert_matches_loop(vecs, sig, DEFAULT_ATOL)


# one row on (2, 5, 7) gathers 2520 x 4096 magnitudes in blocks, not at once (83 MB)
def test_one_row_with_many_pairings_gathers_in_blocks():
    sig = SystemSignature(2, 5, 7)
    v = draw_valid_states(sig, 1, np.random.default_rng(10))
    index_table(sig)
    tracemalloc.start()
    try:
        assert pattern_test(v, sig)[0][0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
