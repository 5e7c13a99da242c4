import numpy as np
import pytest

from duoc.effects import (
    Povm,
    born_probabilities,
    conditional_state,
    random_certified_effect,
    validate_effect,
)
from duoc.errors import DomainError
from duoc.oracle import (
    GridSpec,
    brute_force_conditional_check,
    brute_force_mixed_membership,
    oracle_conditional,
    separable_grid_min,
)
from duoc.states import (
    DensityState,
    PureStateSpec,
    build_pure_state,
    random_mixed_state,
    random_valid_state,
    validate_mixed_state,
    validate_pure_state,
)
from duoc.systems import SystemSignature


class TestRandomGenerators:
    @pytest.mark.parametrize("m,n,d", [(1, 1, 2), (2, 1, 3), (1, 2, 2), (2, 2, 2)])
    def test_states_validate(self, m, n, d, rng):
        sig = SystemSignature(d, m, n)
        for _ in range(10):
            spec = random_valid_state(sig, rng)
            rep = validate_pure_state(build_pure_state(spec), sig)
            assert rep.valid

    def test_deterministic_for_fixed_seed(self):
        sig = SystemSignature(2, 2, 1)
        a = random_valid_state(sig, np.random.default_rng(7))
        b = random_valid_state(sig, np.random.default_rng(7))
        assert (a.parity, a.tail, a.coeffs) == (b.parity, b.tail, b.coeffs)
        np.testing.assert_array_equal(build_pure_state(a), build_pure_state(b))

    @pytest.mark.parametrize("dmn", [(2, 1, 1), (3, 2, 1), (2, 0, 3), (2, 2, 0), (2, 2, 2), (4, 1, 2)])
    def test_draws_match_elementwise_conversion(self, dmn):
        from itertools import product

        sig = SystemSignature(*dmn)
        d, m, n, p = sig.d, sig.m, sig.n, sig.num_pairs
        new, old = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(5):
            spec = random_valid_state(sig, new)
            # the draws converted one element at a time, with the empty draws made
            sigma = tuple(int(x) for x in old.permutation(m))
            tau = tuple(int(x) for x in old.permutation(n))
            parity = tuple(int(x) for x in old.integers(0, d, size=p))
            tail = tuple(int(x) for x in old.integers(0, d, size=abs(m - n)))
            raw = old.normal(size=d**p) + 1j * old.normal(size=d**p)
            raw = raw / np.sqrt(np.sum(raw.real**2 + raw.imag**2))
            coeffs = {x: complex(a) for x, a in zip(product(range(d), repeat=p), raw)}
            assert (spec.perm.sigma, spec.perm.tau) == (sigma, tau)
            assert (spec.parity, spec.tail) == (parity or (0,) * p, tail or (0,) * abs(m - n))
            assert spec.coeffs == coeffs
        assert new.bit_generator.state == old.bit_generator.state

    def test_effects_within_unit_interval(self, rng):
        sig = SystemSignature(2, 1, 1)
        for _ in range(10):
            e = random_certified_effect(sig, rng)
            vals = np.linalg.eigvalsh(e.op)
            assert vals[0] >= -1e-12 and vals[-1] <= 1 + 1e-9

    def test_effect_certificates_reconstruct(self, rng):
        sig = SystemSignature(3, 1, 1)
        for _ in range(5):
            e = random_certified_effect(sig, rng)
            assert validate_effect(e).valid

    def test_mixed_states_validate(self, rng):
        sig = SystemSignature(2, 1, 2)
        for _ in range(5):
            rho, cert = random_mixed_state(sig, rng)
            rep = validate_mixed_state(rho, certificate=cert)
            assert rep.valid


class TestOracleConditional:
    def test_agrees_with_engine_on_random_inputs(self, rng):
        # dual-route check: engine uses operator embeddings and partial
        # traces, the oracle contracts digit axes directly
        sig = SystemSignature(2, 2, 1)
        esig = SystemSignature(2, 1, 1)
        for _ in range(25):
            spec = random_valid_state(sig, rng)
            v = build_pure_state(spec)
            rho = DensityState.from_vector(sig, v)
            e = random_certified_effect(esig, rng)
            prob, cond = conditional_state(rho, e, (0, 2))
            oprob, oraw = oracle_conditional(rho.matrix, 2, 3, e.op, (0, 2))
            assert prob == pytest.approx(oprob, abs=1e-12)
            if cond is not None:
                np.testing.assert_allclose(cond.matrix * prob, oraw, atol=1e-12)

    def test_identity_effect_is_partial_trace(self, rng):
        sig = SystemSignature(2, 1, 1)
        spec = random_valid_state(sig, rng)
        rho = DensityState.from_vector(sig, build_pure_state(spec))
        prob, raw = oracle_conditional(rho.matrix, 2, 2, np.eye(2), (0,))
        assert prob == pytest.approx(1.0, abs=1e-12)
        from duoc.linalg import partial_trace

        np.testing.assert_allclose(raw, partial_trace(rho.matrix, (2, 2), (1,)), atol=1e-12)

    def test_position_bounds_checked(self):
        with pytest.raises(DomainError):
            oracle_conditional(np.eye(4) / 4, 2, 2, np.eye(2), (2,))


class TestConditionalSweep:
    def test_valid_runs_produce_no_failures(self, rng):
        failures = brute_force_conditional_check(60, SystemSignature(2, 2, 1), rng)
        assert failures == 0

    def test_qutrit_pairs_clean(self, rng):
        failures = brute_force_conditional_check(40, SystemSignature(3, 1, 1), rng)
        assert failures == 0

    def test_corrupt_control_always_fails(self, rng):
        failures = brute_force_conditional_check(
            20, SystemSignature(2, 1, 1), rng, corrupt=True
        )
        assert failures == 20

    def test_corrupt_needs_a_pair(self, rng):
        with pytest.raises(DomainError):
            brute_force_conditional_check(5, SystemSignature(2, 1, 0), rng, corrupt=True)


class TestSeparableGridMin:
    def test_matches_closed_form(self):
        grid = GridSpec(0.05)
        for p in [0.1, 0.2, 0.35, 0.5, 0.75]:
            assert separable_grid_min(p, grid) == pytest.approx(min(p, 1 - p), abs=1e-12)

    def test_finer_grid_same_answer(self):
        assert separable_grid_min(0.3, GridSpec(0.01)) == pytest.approx(0.3, abs=1e-12)

    def test_grid_step_positive(self):
        with pytest.raises(DomainError):
            GridSpec(0.0)
        with pytest.raises(DomainError):
            GridSpec(1.5)


class TestMixedMembership:
    def test_valid_mixture_small_residual(self):
        sig = SystemSignature(2, 1, 1)
        v0 = build_pure_state(PureStateSpec(sig, {(0,): 0.6, (1,): 0.8}, parity=(0,)))
        v1 = build_pure_state(
            PureStateSpec(sig, {(0,): 2**-0.5, (1,): 2**-0.5}, parity=(1,))
        )
        rho = 0.5 * np.outer(v0, v0.conj()) + 0.5 * np.outer(v1, v1.conj())
        assert brute_force_mixed_membership(rho) < 1e-3

    def test_complex_phase_state_covered(self):
        sig = SystemSignature(2, 1, 1)
        v = build_pure_state(PureStateSpec(sig, {(0,): 0.6, (1,): 0.8j}))
        assert brute_force_mixed_membership(np.outer(v, v.conj())) < 1e-3

    def test_maximally_mixed_exact(self):
        assert brute_force_mixed_membership(np.eye(4) / 4) < 1e-12

    def test_cross_sector_coherence_excluded(self):
        bad = np.zeros(4, dtype=complex)
        bad[0] = bad[1] = 2**-0.5
        assert brute_force_mixed_membership(np.outer(bad, bad.conj())) > 0.5

    def test_dit_coherence_excluded(self):
        bad = np.zeros(4, dtype=complex)
        bad[0] = bad[2] = 2**-0.5
        assert brute_force_mixed_membership(np.outer(bad, bad.conj())) > 0.5

    def test_qutrit_cases(self):
        sig = SystemSignature(3, 1, 1)
        w = build_pure_state(PureStateSpec(sig, {(0,): 0.6, (1,): 0.8}, parity=(1,)))
        rho = 0.7 * np.outer(w, w.conj()) + 0.3 * np.eye(9) / 9
        assert brute_force_mixed_membership(rho, d=3) < 1e-3
        bad = np.zeros(9, dtype=complex)
        bad[0] = bad[1] = 2**-0.5
        assert brute_force_mixed_membership(np.outer(bad, bad.conj()), d=3) > 0.5
