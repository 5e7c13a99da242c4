import numpy as np
import pytest

from duoc.errors import (
    DegenerateInputError,
    DensityMatrixError,
    DomainError,
    NormalizationError,
    NotClassicalError,
    ValidityError,
)
from duoc.states import (
    DensityState,
    PureStateSpec,
    SeparableSpec,
    basis_state_spec,
    build_pure_state,
    build_separable,
    certificate_matches,
    is_entangled,
    marginal_state,
    purify_classical_state,
    span_dimensions,
    validate_mixed_state,
    validate_pure_state,
)
from duoc.linalg import low_rank_psd, projector
from duoc.states import _pattern_leak
from duoc.systems import FactorPermutation, SystemSignature, digits_to_index, index_to_digits

from conftest import LOW_RANK_LAMBDAS, low_rank_density, low_rank_support, lowest_eigenvalue

SIG11 = SystemSignature(2, 1, 1)
SIG11_3 = SystemSignature(3, 1, 1)


def vec(*pairs_and_dim):
    """Sparse complex vector helper: vec(dim, (idx, amp), ...)."""
    dim, *pairs = pairs_and_dim
    v = np.zeros(dim, dtype=complex)
    for idx, amp in pairs:
        v[idx] = amp
    return v


class TestPureStateSpec:
    def test_normalization_enforced(self):
        with pytest.raises(NormalizationError):
            PureStateSpec(SIG11, {(0,): 1.0, (1,): 1.0})

    def test_digit_range_checked(self):
        with pytest.raises(DomainError):
            PureStateSpec(SIG11, {(2,): 1.0})

    def test_key_length_checked(self):
        with pytest.raises(DomainError):
            PureStateSpec(SIG11, {(0, 0): 1.0})

    def test_parity_defaults_to_zero(self):
        spec = PureStateSpec(SIG11, {(0,): 1.0})
        assert spec.parity == (0,)

    def test_empty_coeffs_rejected(self):
        with pytest.raises(DegenerateInputError):
            PureStateSpec(SIG11, {})


class TestBuildPureState:
    def test_entangled_pair(self):
        # sqrt(p)|00> + sqrt(1-p)|11>
        p = 0.3
        spec = PureStateSpec(SIG11, {(0,): np.sqrt(p), (1,): np.sqrt(1 - p)})
        v = build_pure_state(spec)
        np.testing.assert_allclose(v, vec(4, (0, np.sqrt(p)), (3, np.sqrt(1 - p))))

    def test_parity_shifts_anti_digit(self):
        spec = PureStateSpec(SIG11_3, {(0,): 0.6, (1,): 0.8}, parity=(2,))
        v = build_pure_state(spec)
        # |0>|2> at 0*3+2, |1>|0> at 1*3+0
        np.testing.assert_allclose(v, vec(9, (2, 0.6), (3, 0.8)))

    def test_tail_on_longer_dit_side(self):
        sig = SystemSignature(2, 2, 1)
        spec = PureStateSpec(sig, {(0,): 1.0}, parity=(1,), tail=(1,))
        v = build_pure_state(spec)
        # digits (D0, D1, A0) = (0, 1, 1)
        assert v[digits_to_index((0, 1, 1), 2)] == 1.0

    def test_tail_on_longer_anti_side(self):
        sig = SystemSignature(2, 1, 2)
        spec = PureStateSpec(sig, {(1,): 1.0}, parity=(0,), tail=(0,))
        v = build_pure_state(spec)
        assert v[digits_to_index((1, 1, 0), 2)] == 1.0

    def test_factor_permutation_moves_pairing(self):
        # pair (D0, A0) built, then anti factors swapped: support on D0/A1
        sig = SystemSignature(2, 1, 2)
        base = PureStateSpec(sig, {(0,): 2**-0.5, (1,): 2**-0.5}, tail=(0,))
        moved = PureStateSpec(
            sig,
            {(0,): 2**-0.5, (1,): 2**-0.5},
            tail=(0,),
            perm=FactorPermutation((0,), (1, 0)),
        )
        vb = build_pure_state(base)
        vm = build_pure_state(moved)
        assert abs(vb[digits_to_index((1, 1, 0), 2)]) > 0.5
        assert abs(vm[digits_to_index((1, 0, 1), 2)]) > 0.5

    def test_phases_allowed_in_coeffs(self):
        spec = PureStateSpec(SIG11, {(0,): 2**-0.5, (1,): 1j * 2**-0.5})
        v = build_pure_state(spec)
        assert v[3] == pytest.approx(1j * 2**-0.5)


class TestValidatePureState:
    def test_accepts_built_states(self, rng):
        for sig in (SIG11, SystemSignature(2, 2, 1), SystemSignature(3, 1, 2)):
            from duoc.oracle import random_valid_state

            for _ in range(5):
                spec = random_valid_state(sig, rng)
                rep = validate_pure_state(build_pure_state(spec), sig)
                assert rep.valid and rep.residual <= 1e-10

    def test_witness_reports_parity_and_tail(self):
        sig = SystemSignature(2, 1, 2)
        spec = PureStateSpec(sig, {(0,): 0.6, (1,): 0.8}, parity=(1,), tail=(1,))
        rep = validate_pure_state(build_pure_state(spec), sig)
        assert rep.valid
        assert rep.witness["parity"] == (1,)
        assert rep.witness["tail"] == (1,)

    def test_rejects_cross_sector_superposition(self):
        v = vec(4, (0, 2**-0.5), (1, 2**-0.5))  # |00> + |01|
        rep = validate_pure_state(v, SIG11)
        assert not rep.valid
        assert rep.residual >= 0.5

    def test_rejects_classical_superposition(self):
        sig = SystemSignature(2, 1, 0)
        rep = validate_pure_state(np.array([1, 1]) / np.sqrt(2), sig)
        assert not rep.valid

    def test_accepts_classical_basis_only(self):
        sig = SystemSignature(2, 1, 0)
        assert validate_pure_state(np.array([0, 1.0]), sig).valid

    def test_norm_checked(self):
        with pytest.raises(NormalizationError):
            validate_pure_state(np.array([1.0, 1.0, 0, 0]), SIG11)

    def test_perm_search_refused_when_too_large(self):
        sig = SystemSignature(2, 4, 4)
        v = np.zeros(256)
        v[0] = 1.0
        with pytest.raises(DomainError):
            validate_pure_state(v, sig)

    def test_needs_relabeling_to_validate(self):
        # pair (D0, A1) instead of (D0, A0): only tau=(1,0) fits
        sig = SystemSignature(2, 1, 2)
        spec = PureStateSpec(
            sig,
            {(0,): 2**-0.5, (1,): 2**-0.5},
            tail=(1,),
            perm=FactorPermutation((0,), (1, 0)),
        )
        rep = validate_pure_state(build_pure_state(spec), sig)
        assert rep.valid
        assert rep.witness["tau"] == (1, 0)


def _pattern_leak_loop(v_pre, sig):
    """The per-index reference fit: one digit decomposition per nonzero amplitude."""
    d, m, n = sig.d, sig.m, sig.n
    p = sig.num_pairs
    digits = index_to_digits(int(np.argmax(np.abs(v_pre))), d, m + n)
    dits, antis = digits[:m], digits[m:]
    parity = tuple((antis[i] - dits[i]) % d for i in range(p))
    tail = dits[p:] if m > n else antis[p:]
    leak_sq = 0.0
    for idx in np.nonzero(np.abs(v_pre) > 0)[0]:
        dg = index_to_digits(int(idx), d, m + n)
        c, a = dg[:m], dg[m:]
        ok = all((a[i] - c[i]) % d == parity[i] for i in range(p))
        ok = ok and (c[p:] if m > n else a[p:]) == tail
        if not ok:
            leak_sq += abs(v_pre[idx]) ** 2
    return float(np.sqrt(leak_sq)), parity, tail


class TestPatternLeak:
    @pytest.mark.parametrize("dmn", [(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 1, 2), (2, 2, 2)])
    def test_matches_per_index_loop(self, rng, dmn):
        from duoc.oracle import random_valid_state

        sig = SystemSignature(*dmn)
        for trial in range(12):
            spec = random_valid_state(sig, rng)  # rebuilt unrelabeled: the fit's layout
            v = build_pure_state(PureStateSpec(sig, spec.coeffs, spec.parity, spec.tail))
            if trial % 3 == 1:  # dense noise: every index carries mass
                v = v + 0.1 * (rng.normal(size=v.size) + 1j * rng.normal(size=v.size))
            elif trial % 3 == 2:  # a few off-pattern entries, zeros elsewhere
                v[rng.choice(v.size, size=2, replace=False)] += 0.3
            v = v / np.linalg.norm(v)
            leak, parity, tail = _pattern_leak(v, sig)
            ref_leak, ref_parity, ref_tail = _pattern_leak_loop(v, sig)
            assert abs(leak - ref_leak) <= 1e-12
            assert (parity, tail) == (ref_parity, ref_tail)
            if trial % 3 == 0:
                assert leak <= 1e-12


class TestCertificate:
    def test_matches_up_to_global_phase(self):
        spec = PureStateSpec(SIG11, {(0,): 0.6, (1,): 0.8})
        v = build_pure_state(spec) * np.exp(0.7j)
        rep = certificate_matches(spec, v)
        assert rep.valid

    def test_mismatch_reported(self):
        spec = PureStateSpec(SIG11, {(0,): 0.6, (1,): 0.8})
        other = build_pure_state(PureStateSpec(SIG11, {(0,): 0.8, (1,): 0.6}))
        rep = certificate_matches(spec, other)
        assert not rep.valid and rep.residual > 0.1


def test_basis_state_spec_reconstructs():
    sig = SystemSignature(3, 2, 1)
    digits = (2, 1, 0)
    v = build_pure_state(basis_state_spec(sig, digits))
    assert v[digits_to_index(digits, 3)] == 1.0


class TestDensityState:
    def test_trace_enforced(self):
        with pytest.raises(DensityMatrixError):
            DensityState(SIG11, np.eye(4, dtype=complex))

    def test_positivity_enforced(self):
        mat = np.diag([1.5, -0.5, 0, 0]).astype(complex)
        with pytest.raises(DensityMatrixError):
            DensityState(SIG11, mat)

    def test_hermiticity_enforced(self):
        mat = np.diag([1.0, 0, 0, 0]).astype(complex)
        mat[0, 1] = 0.5
        with pytest.raises(DensityMatrixError):
            DensityState(SIG11, mat)

    @pytest.mark.parametrize("dmn", [(2, 1, 1), (2, 2, 2), (2, 3, 3)])
    @pytest.mark.parametrize("scale", [-2.0, -0.5, 0.0])
    def test_positivity_verdict_matches_eigvalsh(self, dmn, scale, rng):
        # spectrum with its smallest eigenvalue at scale * atol, in a random basis
        sig = SystemSignature(*dmn)
        atol = 1e-10
        spectrum = rng.uniform(0.1, 1.0, size=sig.dim)
        spectrum[0] = 0.0
        spectrum *= (1 - scale * atol) / spectrum.sum()
        spectrum[0] = scale * atol
        q, _ = np.linalg.qr(rng.normal(size=(sig.dim,) * 2) + 1j * rng.normal(size=(sig.dim,) * 2))
        mat = (q * spectrum) @ q.conj().T
        lo = np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0]
        if lo < -atol:
            with pytest.raises(DensityMatrixError, match="negative eigenvalue") as err:
                DensityState(sig, mat, atol=atol)
            reported = float(str(err.value).rsplit(" ", 1)[1])
            assert reported == pytest.approx(lo, abs=1e-14)
        else:
            DensityState(sig, mat, atol=atol)
        assert (lo < -atol) == (scale < -1)


    # every rank up to the low-rank cap (dim // 64) and one above it at dims 64 and 256; at
    # 1024, where each rejection runs a full eigvalsh, one rank on each side of the cap
    @pytest.mark.parametrize("dmn, ranks, lams", [
        ((2, 3, 3), range(1, 3), LOW_RANK_LAMBDAS),
        ((2, 4, 4), range(1, 6), LOW_RANK_LAMBDAS),
        ((2, 5, 5), (1, 17), (-0.99e-10, -1.01e-10)),
    ])
    def test_positivity_verdict_matches_eigvalsh_at_low_rank(self, dmn, ranks, lams, rng):
        sig = SystemSignature(*dmn)
        atol = 1e-10
        support = low_rank_support(rng, sig.dim)
        for rank in ranks:
            for lam in lams:
                mat = low_rank_density(rng, sig.dim, rank, lam, support)
                lo = lowest_eigenvalue(mat, support)
                if lo < -atol:
                    with pytest.raises(DensityMatrixError, match="negative eigenvalue") as err:
                        DensityState(sig, mat, atol=atol)
                    assert float(str(err.value).rsplit(" ", 1)[1]) == pytest.approx(lo, abs=1e-14)
                else:
                    np.testing.assert_array_equal(DensityState(sig, mat, atol=atol).matrix, mat)

    def test_residual_not_pivots_decides_positivity(self, rng):
        # a rank-1 projector's diagonal with a zero-diagonal coupling that makes it indefinite:
        # one pivot leaves nothing on the diagonal, the explicit residual sees the coupling
        sig, atol = SystemSignature(2, 3, 3), 1e-10
        v = rng.normal(size=sig.dim) + 1j * rng.normal(size=sig.dim)
        mat = projector(v)
        p = int(np.argmax(mat.diagonal().real))
        a, b = [i for i in range(sig.dim) if i != p][:2]
        mat[a, b] += 1e-6
        mat[b, a] += 1e-6
        np.testing.assert_array_equal(mat.diagonal(), projector(v).diagonal())
        rest = mat.diagonal().real - np.abs(mat[:, p]) ** 2 / mat[p, p].real
        assert np.max(rest) <= atol / sig.dim
        assert np.linalg.eigvalsh(mat)[0] < -atol
        assert not low_rank_psd(mat, atol)
        with pytest.raises(DensityMatrixError, match="negative eigenvalue"):
            DensityState(sig, mat, atol=atol)


class TestSeparable:
    def test_gamma_form(self):
        spec = SeparableSpec(gamma={(0, 0): 0.25, (1, 1): 0.75})
        rho = build_separable(spec, SIG11)
        np.testing.assert_allclose(np.diag(rho.matrix), [0.25, 0, 0, 0.75])

    def test_terms_form(self):
        anti = DensityState(SystemSignature(2, 0, 1), np.diag([0.5, 0.5]).astype(complex))
        spec = SeparableSpec(terms=[(1.0, (0,), anti)])
        rho = build_separable(spec, SIG11)
        np.testing.assert_allclose(np.diag(rho.matrix), [0.5, 0.5, 0, 0])

    def test_weights_must_normalize(self):
        with pytest.raises(DomainError):
            SeparableSpec(gamma={(0, 0): 0.5, (1, 1): 0.6})

    def test_exactly_one_form(self):
        with pytest.raises(DomainError):
            SeparableSpec()


class TestValidateMixedState:
    def test_diagonal_classical_valid(self):
        sig = SystemSignature(2, 2, 0)
        rho = DensityState(sig, np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))
        assert validate_mixed_state(rho).valid

    def test_classical_coherence_invalid(self):
        sig = SystemSignature(2, 1, 0)
        mat = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        rep = validate_mixed_state(DensityState(sig, mat))
        assert not rep.valid and rep.residual == pytest.approx(0.3)

    def test_pair_block_diagonal_valid(self):
        # coherence inside a parity sector is fine
        phi = build_pure_state(PureStateSpec(SIG11, {(0,): 2**-0.5, (1,): 2**-0.5}))
        rho = DensityState.from_vector(SIG11, phi)
        assert validate_mixed_state(rho).valid

    def test_pair_cross_sector_invalid(self):
        mat = np.full((4, 4), 0.25, dtype=complex)  # |+>|+> projector
        rep = validate_mixed_state(DensityState(SIG11, mat))
        assert not rep.valid
        assert rep.residual == pytest.approx(0.25)

    def test_certificate_path(self, rng):
        from duoc.oracle import random_mixed_state

        rho, cert = random_mixed_state(SystemSignature(2, 2, 1), rng)
        rep = validate_mixed_state(rho, certificate=cert)
        assert rep.valid and rep.witness == "certificate"

    @pytest.mark.parametrize("dmn", [(2, 2, 1), (2, 2, 2), (3, 2, 1)])
    def test_certificate_defect_matches_per_term_sum(self, dmn, rng):
        from duoc.oracle import random_mixed_state

        rho, cert = random_mixed_state(SystemSignature(*dmn), rng)
        # the exact claim, scaled weights, and a first weight clamped up from just below zero
        for claim in (cert, [(0.9 * w, s) for w, s in cert], [(-1e-13, cert[0][1])] + cert[1:]):
            recon = np.zeros_like(rho.matrix)
            for w, s in claim:
                recon += max(float(w), 0.0) * projector(build_pure_state(s))
            want = float(np.max(np.abs(recon - rho.matrix)))
            rep = validate_mixed_state(rho, certificate=claim)
            assert rep.residual == pytest.approx(want, abs=1e-15)
            assert rep.valid == (want <= 1e-10)

    def test_wrong_certificate_rejected(self):
        spec = PureStateSpec(SIG11, {(0,): 1.0})
        rho = DensityState(SIG11, np.diag([0, 0, 0, 1]).astype(complex))
        rep = validate_mixed_state(rho, certificate=[(1.0, spec)])
        assert not rep.valid

    def test_spectral_path_on_larger_composite(self, rng):
        from duoc.oracle import random_mixed_state

        sig = SystemSignature(2, 2, 1)
        rho, _ = random_mixed_state(sig, rng)
        rep = validate_mixed_state(rho)
        # spectral route may be inconclusive but must not reject a genuine mixture outright
        assert rep.valid or "NON-EXHAUSTIVE" in rep.flags


def test_marginal_state_of_product(rng):
    sig = SystemSignature(2, 1, 1)
    rho = DensityState(sig, np.diag([0.4, 0.0, 0.0, 0.6]).astype(complex))
    marg = marginal_state(rho, (0,))
    assert marg.sig == SystemSignature(2, 1, 0)
    np.testing.assert_allclose(np.diag(marg.matrix), [0.4, 0.6])


class TestPurification:
    def test_marginal_recovers_input(self):
        sig = SystemSignature(2, 2, 0)
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        rho = DensityState(sig, np.diag(probs).astype(complex))
        spec = purify_classical_state(rho, 2)
        big = DensityState.from_vector(spec.sig, build_pure_state(spec))
        marg = marginal_state(big, (0, 1))
        assert np.max(np.abs(marg.matrix - rho.matrix)) < 1e-12

    def test_any_parity_and_tail_work(self):
        sig = SystemSignature(2, 1, 0)
        rho = DensityState(sig, np.diag([0.7, 0.3]).astype(complex))
        spec = purify_classical_state(rho, 2, parity=(1,), tail=(1,))
        big = DensityState.from_vector(spec.sig, build_pure_state(spec))
        marg = marginal_state(big, (0,))
        np.testing.assert_allclose(np.diag(marg.matrix).real, [0.7, 0.3], atol=1e-12)

    def test_purification_is_valid_state(self):
        sig = SystemSignature(2, 2, 0)
        rho = DensityState(sig, np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex))
        spec = purify_classical_state(rho, 2, tau=(1, 0))
        rep = validate_pure_state(build_pure_state(spec), spec.sig)
        assert rep.valid

    def test_rejects_nonclassical_input(self):
        phi = build_pure_state(PureStateSpec(SIG11, {(0,): 2**-0.5, (1,): 2**-0.5}))
        rho = DensityState.from_vector(SIG11, phi)
        with pytest.raises(DomainError):
            purify_classical_state(rho, 1)

    def test_rejects_too_few_antidits(self):
        sig = SystemSignature(2, 2, 0)
        rho = DensityState(sig, np.diag([0.25] * 4).astype(complex))
        with pytest.raises(DomainError):
            purify_classical_state(rho, 1)


class TestIsEntangled:
    def test_product_basis_not_entangled(self):
        v = vec(4, (0, 1.0))
        assert not is_entangled(v, SIG11)

    def test_two_term_state_entangled(self):
        v = vec(4, (0, 0.6), (3, 0.8))
        assert is_entangled(v, SIG11)

    def test_invalid_state_raises(self):
        v = vec(4, (0, 2**-0.5), (1, 2**-0.5))
        with pytest.raises(ValidityError):
            is_entangled(v, SIG11)


class TestSpanDimensions:
    def test_pair_d2(self):
        assert span_dimensions(SIG11) == (4, 8)

    def test_pair_d3(self):
        # product states see d^2 dimensions, valid states see d * d^2
        assert span_dimensions(SIG11_3) == (9, 27)

    def test_classical_composite_all_product(self):
        sig = SystemSignature(2, 2, 0)
        prod, full = span_dimensions(sig)
        assert prod == full == 4
