import tracemalloc
from itertools import product

import numpy as np
import pytest

import duoc.effects
from duoc.effects import (
    Effect,
    Povm,
    basis_effect,
    born_probabilities,
    check_wiring,
    classical_povm,
    conditional_failures,
    conditional_state,
    draw_conditional_trials,
    random_certified_effect,
    scaled_effects,
    unit_effect,
    validate_effect,
    witness_povm,
    worst_case_no_probability,
)
from duoc.dsl import RunConfig, parse_script
from duoc.dsl.interpreter import _Interpreter
from duoc.errors import DomainError, ShapeError
from duoc.linalg import INPUT_ATOL, hermitian_part, partial_trace
from duoc.oracle import brute_force_conditional_check, oracle_conditional
from duoc.states import (
    DensityState,
    PureStateSpec,
    basis_state_spec,
    build_pure_state,
    validate_pure_state,
)
from duoc.systems import MAX_COMPOSITE_DIM, SystemSignature, parity_projector

from conftest import embed_operator, random_density

SIG11 = SystemSignature(2, 1, 1)


def pair_state(p, parity=0):
    spec = PureStateSpec(
        SIG11, {(0,): np.sqrt(p), (1,): np.sqrt(1 - p)}, parity=(parity,)
    )
    return DensityState.from_vector(SIG11, build_pure_state(spec))


class TestEffect:
    def test_operator_range_enforced(self):
        with pytest.raises(DomainError):
            Effect(SIG11, 2.0 * np.eye(4))
        with pytest.raises(DomainError):
            Effect(SIG11, -0.1 * np.eye(4))

    def test_hermiticity_enforced(self):
        op = np.zeros((4, 4), dtype=complex)
        op[0, 1] = 1.0
        with pytest.raises(DomainError):
            Effect(SIG11, op)

    def test_identity_is_an_effect(self):
        Effect(SIG11, np.eye(4))


def parent_admission_message(op):
    """The eigvalsh rule every effect passed before projectors skipped it: None when admitted."""
    mat = hermitian_part(op)[0]
    lo, hi = (float(w) for w in np.linalg.eigvalsh(mat)[[0, -1]])
    if lo < -1e-10 or hi > 1 + 1e-10:
        return f"effect eigenvalues [{lo}, {hi}] outside [0, 1]"
    return None


def admission_message(sig, op):
    try:
        Effect(sig, op)
    except DomainError as exc:
        return str(exc)
    return None


def spectral_op(rng, lams):
    """``U diag(lams) U^H`` for a random unitary ``U``."""
    n = len(lams)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * np.asarray(lams)) @ q.conj().T


ADMISSION_SIGS = [SystemSignature(2, 1, 1), SystemSignature(3, 1, 1), SystemSignature(2, 2, 2),
                  SystemSignature(4, 1, 2), SystemSignature(2, 4, 3)]


class TestAdmissionBound:
    """The public Effect admits every operator by eigvalsh on [-1e-10, 1 + 1e-10], with the
    message it always had; an effect built by construction skips it."""

    def test_computational_projectors_admitted_without_eigvalsh(self, linalg_calls):
        for bits, antibits in [(1, 1), (2, 2), (3, 3), (4, 3)]:
            interp = _Interpreter(RunConfig())
            parity = "measure Q = parity() on S\n" if bits == antibits == 1 else ""
            interp.execute(parse_script(
                f"system S = composite(d=2, bits={bits}, antibits={antibits})\n"
                f"measure M = computational() on S\n{parity}"
            ))
            dim = 2 ** (bits + antibits)
            assert len(interp.env["M"][1].effects) == dim
        assert dim == 128 and linalg_calls["eigvalsh"] == []

    @pytest.mark.parametrize("sig", ADMISSION_SIGS, ids=str)
    def test_projectors_and_complements_admitted_as_before(self, sig, rng):
        for rank in (1, sig.dim // 2, sig.dim - 1):
            op = spectral_op(rng, [1.0] * rank + [0.0] * (sig.dim - rank))
            for case in (op, np.eye(sig.dim) - op):
                assert admission_message(sig, case) == parent_admission_message(case) is None

    @pytest.mark.parametrize("dmn", [(2, 1, 1), (2, 2, 2), (3, 2, 1)], ids=str)
    def test_random_effects_decomposed_once(self, dmn, rng, linalg_calls):
        # scaled_effects' one eigvalsh scales and admits; the public admission keeps the op
        sig = SystemSignature(*dmn)
        effects = [random_certified_effect(sig, rng) for _ in range(20)]
        assert len(linalg_calls["eigvalsh"]) == 20
        for e in effects:
            assert Effect(sig, e.op).op.tobytes() == e.op.tobytes()

    @pytest.mark.parametrize("sig", ADMISSION_SIGS, ids=str)
    @pytest.mark.parametrize("edge", [1 + 2e-10, -2e-10])
    def test_eigenvalue_past_the_tolerance_rejected_as_before(self, sig, edge, rng):
        lams = [1.0] * (sig.dim // 2) + [0.0] * (sig.dim - sig.dim // 2)
        lams[0 if edge > 1 else -1] = edge
        op = spectral_op(rng, lams)
        want = parent_admission_message(op)
        assert want is not None
        with pytest.raises(DomainError) as info:
            Effect(sig, op)
        assert str(info.value) == want

    @pytest.mark.parametrize("sig", ADMISSION_SIGS[:-1], ids=str)
    def test_verdicts_match_eigvalsh(self, sig, rng):
        n = sig.dim
        cases = []
        for shift in (2e-11, 5e-11, 9e-11, 2e-10, 1e-9, 1e-3):
            for sign in (1, -1):
                lams = rng.integers(0, 2, size=n).astype(float)
                lams[rng.integers(n)] += sign * shift
                cases.append(lams)
        for lo, hi in [(0, 1), (-1e-9, 1), (0, 1 + 1e-9), (-1e-11, 1 + 1e-11), (0.2, 0.7), (-1, 2)]:
            cases.append(rng.uniform(lo, hi, size=n))
        cases += [np.full(n, 0.5), np.full(n, 1 + 1e-9), np.full(n, -1e-9)]
        verdicts = []
        for lams in cases:
            op = spectral_op(rng, lams)
            verdicts.append(admission_message(sig, op))
            assert verdicts[-1] == parent_admission_message(op)
        assert None in verdicts and len(set(verdicts)) > 1


class TestPovm:
    def test_completeness_enforced(self):
        half = Effect(SIG11, 0.5 * np.eye(4))
        with pytest.raises(DomainError):
            Povm([half])
        Povm([half, half])

    def test_mixed_signatures_rejected(self):
        a = Effect(SIG11, np.eye(4))
        b = Effect(SystemSignature(2, 2, 0), np.zeros((4, 4)))
        with pytest.raises(DomainError):
            Povm([a, b])


class TestValidateEffect:
    def test_diagonal_classical_effect_valid(self):
        sig = SystemSignature(2, 1, 0)
        e = Effect(sig, np.diag([0.3, 0.9]).astype(complex))
        assert validate_effect(e).valid

    def test_offdiagonal_classical_effect_invalid(self):
        sig = SystemSignature(2, 1, 0)
        e = Effect(sig, np.full((2, 2), 0.5))
        assert not validate_effect(e).valid

    def test_pair_sector_block_criterion(self):
        # projector onto (|00> + |11>)/sqrt(2): inside one sector, valid
        phi = build_pure_state(PureStateSpec(SIG11, {(0,): 2**-0.5, (1,): 2**-0.5}))
        e = Effect(SIG11, np.outer(phi, phi.conj()))
        assert validate_effect(e).valid
        # projector onto (|00> + |01>)/sqrt(2): crosses sectors, invalid
        v = np.zeros(4, dtype=complex)
        v[0] = v[1] = 2**-0.5
        bad = Effect(SIG11, np.outer(v, v.conj()))
        assert not validate_effect(bad).valid

    def test_certificate_path(self):
        spec = PureStateSpec(SIG11, {(0,): 0.6, (1,): 0.8})
        v = build_pure_state(spec)
        e = Effect(SIG11, 0.7 * np.outer(v, v.conj()), certificate=[(0.7, spec)])
        rep = validate_effect(e)
        assert rep.valid and rep.witness == "certificate"


class TestBorn:
    def test_probabilities_sum_to_one(self, rng):
        rho = pair_state(0.3)
        povm = witness_povm(0.7)
        probs = born_probabilities(povm, rho)
        assert probs.shape == (2,)
        assert abs(probs.sum() - 1.0) < 1e-10

    def test_signature_mismatch_rejected(self):
        rho = DensityState(SystemSignature(2, 1, 0), np.diag([1.0, 0]).astype(complex))
        with pytest.raises(DomainError):
            born_probabilities(witness_povm(0.5), rho)

    def test_unit_effect_probability_one(self):
        rho = pair_state(0.42)
        povm = Povm([unit_effect(SIG11)])
        assert born_probabilities(povm, rho)[0] == pytest.approx(1.0)


class TestConditionalState:
    def test_pair_collapses_to_matching_antidigit(self):
        rho = pair_state(0.5, parity=1)
        e = Effect(SystemSignature(2, 1, 0), np.diag([1.0, 0.0]))
        prob, cond = conditional_state(rho, e, (0,))
        assert prob == pytest.approx(0.5)
        # parity 1 pairs dit 0 with anti-dit 1
        np.testing.assert_allclose(np.diag(cond.matrix).real, [0, 1], atol=1e-12)

    def test_zero_probability_returns_none(self):
        rho = pair_state(1 - 1e-18)  # essentially |00>
        e = Effect(SystemSignature(2, 1, 0), np.diag([0.0, 1.0]))
        prob, cond = conditional_state(rho, e, (0,))
        assert prob == pytest.approx(0.0, abs=1e-12)
        assert cond is None

    def test_must_leave_a_factor(self):
        rho = pair_state(0.5)
        e = unit_effect(SIG11)
        with pytest.raises(DomainError):
            conditional_state(rho, e, (0, 1))

    def test_kind_mismatch_rejected(self):
        rho = pair_state(0.5)
        e = Effect(SystemSignature(2, 0, 1), np.diag([1.0, 0.0]))
        with pytest.raises(DomainError):
            conditional_state(rho, e, (0,))

    @pytest.mark.parametrize("dmn", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 2, 2), (2, 3, 3)])
    def test_matches_dense_embedding(self, dmn, rng):
        sig = SystemSignature(*dmn)
        rho = DensityState(sig, random_density(rng, sig.dim))
        last = sig.num_factors - 1
        wirings = [(0,), (last,)]
        if sig.m >= 2:
            # two dits wired out of order, plus an anti-dit where one can be spared
            wirings.append((1, 0) + ((last,) if sig.n >= 2 else ()))
        for positions in wirings:
            esig = sig.sub_signature(positions)
            op = random_density(rng, esig.dim)
            e = Effect(esig, op / np.linalg.eigvalsh(op)[-1])
            prob, cond = conditional_state(rho, e, positions)
            weighted = embed_operator(e.op, positions, sig.dims) @ rho.matrix
            keep = tuple(t for t in range(sig.num_factors) if t not in positions)
            want_prob = np.trace(weighted).real
            assert prob == pytest.approx(want_prob, abs=1e-12)
            want = partial_trace(weighted, sig.dims, keep) / want_prob
            np.testing.assert_allclose(cond.matrix, want, rtol=0, atol=1e-12)


def test_certificate_on_another_signature_rejected():
    e = Effect(SIG11, np.diag([1, 0, 0, 0]).astype(complex),
               certificate=[(1.0, basis_state_spec(SystemSignature(3, 1, 1), (0, 0)))])
    with pytest.raises(ShapeError, match="certificate"):
        validate_effect(e)


@pytest.mark.parametrize("dmn", [(2, 2, 1), (3, 1, 1), (2, 0, 3)])
def test_unit_effect_certificate_in_index_order(dmn):
    sig = SystemSignature(*dmn)
    cert = unit_effect(sig).certificate
    assert len(cert) == sig.dim
    for z, (w, spec) in enumerate(cert):
        assert w == 1.0 and np.array_equal(build_pure_state(spec), np.eye(sig.dim)[z])


class TestClassicalPovm:
    def test_table_columns_must_be_distributions(self):
        sig = SystemSignature(2, 1, 0)
        with pytest.raises(DomainError):
            classical_povm(np.array([[0.5, 0.2], [0.4, 0.8]]), sig)

    def test_entry_above_one_past_the_tolerance_rejected(self):
        # the column sums to 1 within 1e-10 and no entry is below -1e-12, yet its first entry is no
        # effect weight; the diagonal effects are not checked again
        table = np.array([[1 + 1.005e-10, 0.0], [-0.9e-12, 1.0]])
        with pytest.raises(DomainError, match="probability distributions"):
            classical_povm(table, SystemSignature(2, 1, 0))
        table[0, 0] = 1 + 0.995e-10
        classical_povm(table, SystemSignature(2, 1, 0))

    def test_effects_are_diagonal_with_certificates(self):
        sig = SystemSignature(2, 1, 0)
        povm = classical_povm(np.array([[0.9, 0.2], [0.1, 0.8]]), sig)
        assert len(povm) == 2
        for e in povm.effects:
            assert validate_effect(e).valid

    def test_certificate_in_index_order(self, rng):
        sig = SystemSignature(3, 2, 0)
        table = rng.uniform(size=(2, sig.dim))
        table[:, 4] = (1.0, 0.0)
        table /= table.sum(axis=0)
        for j, e in enumerate(classical_povm(table, sig).effects):
            support = np.flatnonzero(table[j] > 0)
            assert len(e.certificate) == support.size
            for i, (w, spec) in zip(support, e.certificate):
                assert w == table[j, i]
                assert np.array_equal(build_pure_state(spec), np.eye(sig.dim)[i])


class TestWitnessPovm:
    def test_completeness(self):
        povm = witness_povm(0.3)
        total = sum(e.op for e in povm.effects)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_detects_target_state(self):
        rho = pair_state(0.3)
        p_yes, p_no = born_probabilities(witness_povm(0.3), rho)
        assert p_yes == pytest.approx(1.0, abs=1e-12)
        assert abs(p_no) < 1e-12

    def test_no_probability_on_basis_states(self):
        # p(no | ij) = 1 - p for 00, 1 for 01 and 10, p for 11
        p = 0.3
        povm = witness_povm(p)
        expect = {(0, 0): 1 - p, (0, 1): 1.0, (1, 0): 1.0, (1, 1): p}
        for (i, j), want in expect.items():
            mat = np.zeros((4, 4), dtype=complex)
            mat[2 * i + j, 2 * i + j] = 1.0
            rho = DensityState(SIG11, mat)
            p_no = born_probabilities(povm, rho)[1]
            assert p_no == pytest.approx(want, abs=1e-12)

    def test_no_certificate_is_valid(self):
        povm = witness_povm(0.4)
        for e in povm.effects:
            assert validate_effect(e).valid

    def test_shifted_parity_variant(self):
        rho = pair_state(0.3, parity=1)
        p_yes, p_no = born_probabilities(witness_povm(0.3, parity=1), rho)
        assert p_yes == pytest.approx(1.0, abs=1e-12)

    def test_p_range_enforced(self):
        with pytest.raises(DomainError):
            witness_povm(0.0)
        with pytest.raises(DomainError):
            witness_povm(1.2)


class TestWorstCaseNo:
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.8])
    def test_matches_min_p_bound(self, p):
        value, gamma = worst_case_no_probability(p, grid_step=0.05)
        assert value == pytest.approx(min(p, 1 - p), abs=1e-12)

    def test_matches_independent_grid_oracle(self):
        from duoc.oracle import GridSpec, separable_grid_min

        for p in (0.2, 0.35):
            engine, _ = worst_case_no_probability(p, grid_step=0.05)
            oracle = separable_grid_min(p, GridSpec(0.05))
            assert engine == pytest.approx(oracle, abs=1e-12)

    def test_returned_gamma_achieves_minimum(self):
        from duoc.states import build_separable

        p = 0.3
        value, gamma = worst_case_no_probability(p, grid_step=0.1)
        rho = build_separable(gamma, SIG11)
        p_no = born_probabilities(witness_povm(p), rho)[1]
        assert p_no == pytest.approx(value, abs=1e-12)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            worst_case_no_probability(0.0)
        with pytest.raises(DomainError):
            worst_case_no_probability(0.3, grid_step=0.5)


DRAW_SIGS = [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 0), (2, 0, 3), (2, 3, 3)]


def reference_trials(trials, sig, rng):
    """The scenarios of ``draw_conditional_trials`` drawn one field at a time in its documented
    order, each vector placed digit by digit.  Returns ``(psi, positions, {sub: [(trial, terms,
    weights)]})``, with each trial's terms and weights unpadded."""

    def states(s, count):
        d, m, n, p = s.d, s.m, s.n, s.num_pairs
        sigma = np.array([rng.permutation(m) for _ in range(count)]).reshape(count, m)
        tau = np.array([rng.permutation(n) for _ in range(count)]).reshape(count, n)
        parity = rng.integers(0, d, size=(count, p)) if p else np.zeros((count, 0), int)
        tail = rng.integers(0, d, size=(count, abs(m - n))) if m != n else np.zeros((count, 0), int)
        z = rng.normal(size=(count, 2 * d**p))
        out = np.zeros((count, s.dim), dtype=complex)
        for r in range(count):
            raw = z[r, : d**p] + 1j * z[r, d**p :]
            raw = raw / np.sqrt(np.sum(raw.real**2 + raw.imag**2))
            # canonical factor t (dits, then anti-dits) lands on position dest[t]
            dest = [int(x) for x in sigma[r]] + [m + int(i) for i in tau[r]]
            for x, amp in zip(product(range(d), repeat=p), raw):
                dits = list(x) + ([int(g) for g in tail[r]] if m > n else [])
                antis = [(g + int(t)) % d for g, t in zip(x, parity[r])] + (
                    [int(g) for g in tail[r]] if n > m else [])
                placed = [0] * s.num_factors
                for t, g in enumerate(dits + antis):
                    placed[dest[t]] = g
                out[r, sum(g * d ** (s.num_factors - 1 - q) for q, g in enumerate(placed))] = amp
        return out

    nfac = sig.num_factors
    psi = states(sig, trials)
    sizes = rng.integers(1, nfac, size=trials)
    order = rng.random((trials, nfac)).argsort(axis=1)
    positions = [tuple(sorted(int(t) for t in order[g, : sizes[g]])) for g in range(trials)]
    counts = rng.integers(1, 4, size=trials)
    flat = iter(rng.uniform(0.2, 1.0, size=int(counts.sum())))
    weights = [np.array([next(flat) for _ in range(c)]) for c in counts]
    subs = [sig.sub_signature(pos) for pos in positions]
    groups = {}
    for sub in sorted(set(subs), key=lambda s: (s.m, s.n)):
        members = [g for g in range(trials) if subs[g] == sub]
        vecs = iter(states(sub, int(sum(counts[g] for g in members))))
        groups[sub] = [(g, np.array([next(vecs) for _ in weights[g]]), weights[g])
                       for g in members]
    return psi, positions, groups


def trial_probabilities(trials, sig, seed):
    """Each scenario's probability ``Tr[(E_S x I) rho]`` by ``oracle.oracle_conditional``, with
    the effect scaled below the identity as a certified effect is."""
    psi, measured, groups = draw_conditional_trials(trials, sig, np.random.default_rng(seed))
    probs = []
    for _, rows, terms, weights in groups:
        for g, vecs, ws in zip(rows, terms, weights):
            op = scaled_effects(vecs[None], ws[None])[0][0]
            rho = np.outer(psi[g], psi[g].conj())
            probs.append(oracle_conditional(rho, sig.d, sig.num_factors, op,
                                            np.flatnonzero(measured[g]))[0])
    return np.array(probs)


class TestConditionalFailures:
    """The stacked engine check against the oracle's per-trial sweep."""

    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("dmn", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1), (2, 1, 2),
                                     (3, 2, 1), (2, 3, 3), (3, 2, 2), (2, 1, 3)], ids=str)
    def test_matches_oracle_seed_by_seed(self, dmn, corrupt):
        sig = SystemSignature(*dmn)
        for seed in range(3):
            engine, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            count = conditional_failures(25, sig, engine, corrupt=corrupt)
            assert count == brute_force_conditional_check(25, sig, oracle, corrupt=corrupt)
            assert count == (25 if corrupt else 0)
            assert engine.bit_generator.state == oracle.bit_generator.state

    # every trial of probability above INPUT_ATOL fails, and some draws measure an effect
    # orthogonal to the state
    def test_branches_that_miss_the_contraction_fail(self, monkeypatch):
        contract = duoc.effects.contract_pure_effect
        monkeypatch.setattr(duoc.effects, "contract_pure_effect",
                            lambda *args: contract(*args) * (1 + 1e-6))
        sig = SystemSignature(2, 2, 1)
        want = np.count_nonzero(trial_probabilities(20, sig, 0) > INPUT_ATOL)
        assert 0 < want < 20
        assert conditional_failures(20, sig, 0) == want

    def test_an_invalid_branch_fails(self, monkeypatch):
        test = duoc.effects.pattern_test
        monkeypatch.setattr(duoc.effects, "pattern_test",
                            lambda vecs, sig: (~test(vecs, sig)[0],) + test(vecs, sig)[1:])
        sig = SystemSignature(2, 2, 1)
        want = np.count_nonzero(trial_probabilities(20, sig, 0) > INPUT_ATOL)
        assert 0 < want < 20
        assert conditional_failures(20, sig, 0) == want

    @pytest.mark.parametrize("dmn", DRAW_SIGS, ids=str)
    def test_batched_draw_matches_per_trial_reference(self, dmn):
        sig = SystemSignature(*dmn)
        for seed in range(5):
            batched, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            psi, measured, groups = draw_conditional_trials(12, sig, batched)
            psi_ref, positions, want = reference_trials(12, sig, reference)
            assert psi.tobytes() == psi_ref.tobytes() and psi.shape == psi_ref.shape
            assert [tuple(np.flatnonzero(row)) for row in measured] == positions
            assert [group[0] for group in groups] == list(want)
            for (sub, rows, terms, weights), members in zip(groups, want.values()):
                assert rows.tolist() == [g for g, _, _ in members]
                assert terms.shape == (len(rows), 3, sub.dim) and weights.shape == (len(rows), 3)
                for vecs, ws, (_, vecs_ref, ws_ref) in zip(terms, weights, members):
                    k = len(ws_ref)
                    assert vecs[:k].tobytes() == vecs_ref.tobytes() and not vecs[k:].any()
                    assert ws[:k].tobytes() == ws_ref.tobytes() and not ws[k:].any()
            assert batched.bit_generator.state == reference.bit_generator.state

    # a draw per trial or per position set would call it more often; with 60 trials each of
    # these draws more position sets than sub-signatures
    @pytest.mark.parametrize("dmn", [(2, 2, 2), (2, 3, 1), (3, 2, 1)], ids=str)
    def test_one_build_per_signature(self, dmn, monkeypatch):
        sig = SystemSignature(*dmn)
        _, measured, groups = draw_conditional_trials(60, sig, np.random.default_rng(4))
        subs = [group[0] for group in groups]
        assert len({row.tobytes() for row in measured}) > len(subs)
        calls = []
        draw = duoc.effects.draw_valid_states
        monkeypatch.setattr(duoc.effects, "draw_valid_states",
                            lambda s, count, rng: calls.append(s) or draw(s, count, rng))
        assert conditional_failures(60, sig, np.random.default_rng(4)) == 0
        assert calls == [sig] + subs

    # 14 position sets form 7 classes on (2,2,2), 62 form 14 on (2,3,3)
    @pytest.mark.parametrize("dmn, classes", [((2, 2, 2), 7), ((2, 3, 3), 14)], ids=str)
    def test_one_stack_per_signature_pair(self, dmn, classes, monkeypatch):
        sig = SystemSignature(*dmn)
        _, measured, _ = draw_conditional_trials(2000, sig, np.random.default_rng(5))
        assert len({row.tobytes() for row in measured}) == 2**sig.num_factors - 2
        calls = []
        stack = duoc.effects._stack_failures
        monkeypatch.setattr(duoc.effects, "_stack_failures",
                            lambda sub, rest, *args: calls.append((sub, rest))
                            or stack(sub, rest, *args))
        assert conditional_failures(2000, sig, np.random.default_rng(5)) == 0
        assert len(calls) == len(set(calls)) == classes
        assert all((sub.m + rest.m, sub.n + rest.n) == (sig.m, sig.n) for sub, rest in calls)

    def test_draws_cover_every_subset_and_term_count(self):
        sig = SystemSignature(2, 2, 2)
        psi, measured, groups = draw_conditional_trials(2000, sig, np.random.default_rng(6))
        subsets = {tuple(np.flatnonzero(row)) for row in measured}
        assert len(subsets) == 14 and all(0 < len(s) < 4 for s in subsets)
        counts = np.concatenate([np.count_nonzero(weights, axis=1) for *_, weights in groups])
        assert set(counts.tolist()) == {1, 2, 3}
        assert sum(len(group[1]) for group in groups) == 2000

    @pytest.mark.parametrize("dmn", [(2, 2, 2), (3, 2, 1), (2, 0, 3), (2, 1, 3)], ids=str)
    def test_every_drawn_state_is_valid(self, dmn):
        sig = SystemSignature(*dmn)
        psi, measured, groups = draw_conditional_trials(40, sig, np.random.default_rng(7))
        for v in psi:
            assert validate_pure_state(v, sig).valid
        for sub, rows, terms, weights in groups:
            assert all(sub == sig.sub_signature(np.flatnonzero(measured[g])) for g in rows)
            for v in terms[weights > 0]:
                assert validate_pure_state(v, sub).valid

    # more than three factors of one kind, with fewer trials as the dimension grows
    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("dmn, trials", [((2, 5, 1), 10), ((2, 4, 4), 4), ((2, 6, 5), 1)],
                             ids=str)
    def test_large_sides_match_oracle_seed_by_seed(self, dmn, trials, corrupt):
        sig = SystemSignature(*dmn)
        for seed in range(3):
            engine, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            count = conditional_failures(trials, sig, engine, corrupt=corrupt)
            assert count == brute_force_conditional_check(trials, sig, oracle, corrupt=corrupt)
            assert count == (trials if corrupt else 0)
            assert engine.bit_generator.state == oracle.bit_generator.state

    # the contraction is taken from the state vectors; the dim^2 projector of one trial alone
    # held 64 MB here, and with its transposed copy the trial peaked at 128-132 MB
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_large_trial_forms_no_projector(self, seed):
        sig = SystemSignature(2, 6, 5)
        tracemalloc.start()
        try:
            assert conditional_failures(1, sig, seed) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_needs_a_proper_subset_and_a_pair_for_corruption(self):
        with pytest.raises(DomainError):
            conditional_failures(3, SystemSignature(2, 1, 0), 0)
        with pytest.raises(DomainError):
            conditional_failures(3, SystemSignature(2, 2, 0), 0, corrupt=True)


class TestWiring:
    """The one wiring check behind ``conditional_state`` and ``ConditionalEvolutionSpec``."""

    @pytest.mark.parametrize("positions", [(0.9,), ("0",), (0.0,)], ids=repr)
    def test_positions_must_be_integers(self, positions):
        e = Effect(SystemSignature(2, 1, 0), np.diag([1.0, 0.0]))
        with pytest.raises(DomainError, match="must be integers"):
            conditional_state(pair_state(0.5), e, positions)

    def test_numpy_integers_accepted(self):
        e = Effect(SystemSignature(2, 1, 0), np.diag([1.0, 0.0]))
        assert check_wiring(SIG11, e.sig, np.array([0])) == (0,)
        assert conditional_state(pair_state(0.5), e, (np.int64(0),))[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("esig, positions", [
        ((2, 1, 0), (2,)), ((2, 1, 0), (-1,)), ((2, 2, 0), (0, 0)), ((2, 1, 0), (0, 1)),
        ((3, 1, 0), (0,)), ((2, 0, 1), (0,)), ((2, 1, 1), (0, 1))], ids=str)
    def test_bad_wirings_refused(self, esig, positions):
        with pytest.raises(DomainError):
            check_wiring(SystemSignature(2, 2, 1), SystemSignature(*esig), positions)


class TestScaledEffects:
    """One scaling kernel for the engine's stacks and the sampler's effects."""

    # when the engine scaled its own stack in other arithmetic, 3967 of 32000 effects (seeds
    # 0-1999, four trials each, these signatures) differed in the last bit of a weight
    @pytest.mark.parametrize("dmn", [(2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 2, 2)], ids=str)
    def test_engine_weights_equal_the_certificate_weights(self, dmn):
        # the stacked scaling gives each trial the weights random_certified_effect's one-effect
        # scaling gives its certificate
        sig = SystemSignature(*dmn)
        for seed in range(40):
            _, _, want = reference_trials(4, sig, np.random.default_rng(seed))
            _, _, groups = draw_conditional_trials(4, sig, np.random.default_rng(seed))
            for (sub, _, terms, weights), members in zip(groups, want.values()):
                scaled = scaled_effects(terms, weights)[1]
                for row, (_, vecs, ws) in zip(scaled, members):
                    certificate = scaled_effects(vecs[None], ws[None])[1][0]
                    assert row[: len(ws)].tolist() == certificate.tolist()
                    assert not row[len(ws):].any()

    def test_scaled_below_the_identity_and_admitted(self):
        terms = np.stack([np.eye(4)[[0, 0, 3]], np.eye(4)[[1, 2, 2]]]).astype(complex)
        weights = np.array([[0.8, 0.7, 0.0], [0.5, 0.25, 0.25]])
        op, scaled = scaled_effects(terms, weights)
        assert np.linalg.eigvalsh(op[0])[-1] < 1 and scaled[0, 0] == pytest.approx(0.8 / 1.5)
        assert np.array_equal(scaled[1], weights[1])
        np.testing.assert_array_equal(op[1], np.diag([0, 0.5, 0.5, 0]))
        hermitian = Effect(SIG11, op[0]).op
        assert hermitian.tobytes() == op[0].tobytes()


def reference_basis_effects(sig, kind, table=None):
    """The diagonal effects the DSL and the effect builders made before :func:`basis_effect`:
    one loop per builder, certified by the basis states of positive weight."""
    strings = list(product(range(sig.d), repeat=sig.num_factors))
    if kind == "computational":
        effects = []
        for idx, digits in enumerate(strings):
            op = np.zeros((sig.dim, sig.dim), dtype=complex)
            op[idx, idx] = 1.0
            effects.append(Effect(sig, op, certificate=[(1.0, basis_state_spec(sig, digits))]))
        return effects
    if kind == "parity":
        return [Effect(sig, parity_projector(sig.d, k),
                       certificate=[(1.0, basis_state_spec(sig, (i, (i + k) % sig.d)))
                                    for i in range(sig.d)])
                for k in range(sig.d)]
    if kind == "unit":
        cert = [(1.0, basis_state_spec(sig, digits)) for digits in strings]
        return [Effect(sig, np.eye(sig.dim, dtype=complex), certificate=cert)]
    effects = []
    for j in range(table.shape[0]):
        cert = [(float(table[j, i]), basis_state_spec(sig, digits))
                for i, digits in enumerate(strings) if table[j, i] > 0]
        effects.append(Effect(sig, np.diag(table[j].astype(complex)), certificate=cert or None))
    return effects


def certificate_terms(e):
    """``(weight, basis digits)`` of each certificate term, with the weight's type."""
    if e.certificate is None:
        return None
    out = []
    for w, spec in e.certificate:
        (x, amp), = spec.coeffs.items()
        assert amp == 1.0 and spec.perm.is_identity()
        out.append((type(w), w, x, spec.parity, spec.tail))
    return out


def assert_same_effects(got, want):
    assert len(got) == len(want)
    for e, ref in zip(got, want):
        assert e.op.dtype == ref.op.dtype and e.op.tobytes() == ref.op.tobytes()
        assert certificate_terms(e) == certificate_terms(ref)


class TestBasisEffect:
    """Every basis-certified diagonal effect against the builder loops it replaced."""

    @staticmethod
    def measured(sig, ctor):
        interp = _Interpreter(RunConfig())
        interp.execute(parse_script(
            f"system S = composite(d={sig.d}, bits={sig.m}, antibits={sig.n})\n"
            f"measure M = {ctor}() on S\n"))
        return interp.env["M"][1].effects

    @pytest.mark.parametrize("sig", [SystemSignature(d, m, n) for d in range(2, 65)
                                     for m in range(7) for n in range(7)
                                     if m + n and d ** (m + n) <= 64], ids=str)
    def test_computational(self, sig):
        assert_same_effects(self.measured(sig, "computational"),
                            reference_basis_effects(sig, "computational"))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_parity(self, d):
        sig = SystemSignature(d, 1, 1)
        assert_same_effects(self.measured(sig, "parity"), reference_basis_effects(sig, "parity"))

    @pytest.mark.parametrize("dmn", [(2, 1, 0), (2, 2, 1), (3, 1, 1), (2, 0, 3), (4, 2, 1)],
                             ids=str)
    def test_unit_effect(self, dmn):
        sig = SystemSignature(*dmn)
        assert_same_effects([unit_effect(sig)], reference_basis_effects(sig, "unit"))

    @pytest.mark.parametrize("dmn", [(2, 1, 0), (3, 2, 0), (2, 3, 0)], ids=str)
    def test_classical_povm(self, dmn, rng):
        sig = SystemSignature(*dmn)
        table = rng.uniform(size=(3, sig.dim))
        table[:, 1] = (1.0, 0.0, 0.0)
        table[2] = 0.0  # an effect of no positive weight carries no certificate
        table /= table.sum(axis=0)
        got = classical_povm(table, sig).effects
        assert got[2].certificate is None
        assert_same_effects(got, reference_basis_effects(sig, "classical", table))

    def test_weights_below_zero_stay_on_the_diagonal_without_a_term(self):
        sig = SystemSignature(2, 1, 1)
        e = basis_effect(sig, [0.5, -1e-13, 0.0, 1.0])
        assert np.array_equal(np.diag(e.op), [0.5, -1e-13, 0.0, 1.0])
        assert [(w, spec.coeffs, spec.parity) for w, spec in e.certificate] == [
            (0.5, {(0,): 1.0}, (0,)), (1.0, {(1,): 1.0}, (0,))]
        assert validate_effect(e).valid
