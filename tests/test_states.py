import math
import time
import tracemalloc
from itertools import combinations, permutations, product

import numpy as np
import pytest

from duoc.errors import (
    DegenerateInputError,
    DensityMatrixError,
    DomainError,
    NormalizationError,
    NotClassicalError,
    ShapeError,
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
    draw_valid_states,
    is_entangled,
    marginal_state,
    pattern_test,
    product_order,
    product_state,
    purify_classical_state,
    random_valid_state,
    span_dimensions,
    validate_mixed_state,
    validate_pure_state,
)
from duoc.linalg import (
    DEFAULT_ATOL,
    SPECTRAL_ATOL,
    low_rank_psd,
    off_diagonal_max,
    projector,
    tensor_all,
    vector_norm,
)
from duoc import systems
from duoc.systems import (
    FactorPermutation,
    SystemSignature,
    digits_to_index,
    index_table,
)

from conftest import (
    ALL_SIGS,
    LOW_RANK_LAMBDAS,
    all_factor_permutations,
    cell_cover,
    digit_difference_cover,
    factor_permutation_matrix,
    low_rank_density,
    low_rank_support,
    lowest_eigenvalue,
    permute_vector_factors,
    random_density,
)

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

    @pytest.mark.parametrize("dmn", [(2, 1, 1), (3, 2, 1), (2, 1, 3)])
    def test_default_perm_is_the_shared_identity(self, dmn):
        sig = SystemSignature(*dmn)
        coeffs = {(0,) * sig.num_pairs: 0.6, (1,) * sig.num_pairs: 0.8}
        spec = PureStateSpec(sig, coeffs, parity=(1,) * sig.num_pairs)
        assert spec.perm is FactorPermutation.identity(sig.m, sig.n)
        explicit = FactorPermutation(tuple(range(sig.m)), tuple(range(sig.n)))
        given = PureStateSpec(sig, coeffs, parity=(1,) * sig.num_pairs, perm=explicit)
        assert np.array_equal(build_pure_state(spec), build_pure_state(given))


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

    def test_four_per_side_answers_with_its_witness(self):
        # each of dits 0, 1 and 2 moves alone, so only the spec's own pairing fits
        sig = SystemSignature(2, 4, 4)
        strings = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
        spec = PureStateSpec(sig, dict.fromkeys(strings, 0.5), parity=(1, 0, 1, 0),
                             perm=FactorPermutation((0, 1, 2, 3), (1, 0, 3, 2)))
        rep = validate_pure_state(build_pure_state(spec), sig)
        assert rep.valid and rep.residual == 0.0
        assert rep.witness == {"sigma": (0, 1, 2, 3), "tau": (1, 0, 3, 2),
                               "parity": (1, 0, 1, 0), "tail": ()}

    @pytest.mark.parametrize("dmn", [(2, 4, 4), (2, 6, 6), (2, 5, 7)], ids=str)
    def test_drawn_states_validate_beyond_three_per_side(self, dmn):
        # and are rejected once a Hadamard on dit 0 moves it apart from its anti-dit
        sig = SystemSignature(*dmn)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for seed in range(3):
            v = build_pure_state(random_valid_state(sig, seed))
            assert validate_pure_state(v, sig).valid
            assert not validate_pure_state((h @ v.reshape(2, -1)).reshape(-1), sig).valid

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


def _pattern_leak_indices(v_pre, sig):
    """The fit as one ``np.indices`` key table per call, each key a column of digits."""
    m, n, p = sig.m, sig.n, sig.num_pairs
    digits = np.indices(sig.dims).reshape(m + n, -1)
    key = np.vstack([(digits[m : m + p] - digits[:p]) % sig.d,
                     digits[p:m] if m > n else digits[m + p :]])
    ref = key[:, int(np.argmax(np.abs(v_pre)))]
    leak = float(np.linalg.norm(v_pre[np.any(key != ref[:, None], axis=0)]))
    return leak, tuple(int(x) for x in ref[:p]), tuple(int(x) for x in ref[p:])


def _validate_pure_loop(vec, sig, atol):
    """The relabeling search as one transpose and one key table per relabeling."""
    best = None
    for sigma in permutations(range(sig.m)):
        for tau in permutations(range(sig.n)):
            perm = FactorPermutation(sigma, tau)
            v_pre = permute_vector_factors(vec, sig.dims, perm.inverse().destinations(sig.m, sig.n))
            leak, parity, tail = _pattern_leak_indices(v_pre, sig)
            cand = (leak, {"sigma": sigma, "tau": tau, "parity": parity, "tail": tail})
            if best is None or leak < best[0]:
                best = cand
            if leak <= atol:
                return True, leak, cand[1]
    return False, best[0], best[1]


def _check_against_loop(v, sig, atol, valid, residual, witness):
    """The pattern-test contract against the per-relabeling loop: one relabeling per pairing is
    searched, so a valid row gives the loop's first fit bit for bit, and an invalid one its
    least leak up to the summation order of the same entries (the loop takes the minimum over
    every order), a leak that its witness reproduces bit for bit."""
    want_valid, want_residual, want_witness = _validate_pure_loop(v, sig, atol)
    assert valid == want_valid
    if valid:
        assert (residual, witness) == (want_residual, want_witness)
        return
    assert abs(residual - want_residual) <= 4 * np.spacing(want_residual)
    perm = FactorPermutation(witness["sigma"], witness["tau"])
    v_pre = permute_vector_factors(v, sig.dims, perm.inverse().destinations(sig.m, sig.n))
    assert _pattern_leak_indices(v_pre, sig) == (residual, witness["parity"], witness["tail"])


def _build_pure_loop(spec):
    """The state vector built digit string by digit string, then transposed into place."""
    sig = spec.sig
    d, m, n, p = sig.d, sig.m, sig.n, sig.num_pairs
    v = np.zeros(sig.dim, dtype=complex)
    for x, amp in sorted(spec.coeffs.items()):
        dits = list(x) + [0] * (m - p)
        antis = [(x[i] + spec.parity[i]) % d for i in range(p)] + [0] * (n - p)
        if m > n:
            dits[p:] = spec.tail
        else:
            antis[p:] = spec.tail
        v[digits_to_index(dits + antis, d)] = amp
    if spec.perm.is_identity():
        return v
    return permute_vector_factors(v, sig.dims, spec.perm.destinations(m, n))


TABLE_SIGS = [(2, 1, 1), (2, 2, 1), (2, 0, 2), (3, 2, 1), (2, 3, 3), (4, 1, 2)]


class TestIndexTablePaths:
    """The table-driven search and state construction against the derivations they replace."""

    def _vectors(self, sig, rng):
        out = []
        for _ in range(6):
            v = build_pure_state(random_valid_state(sig, rng))
            noise = rng.normal(size=v.size) + 1j * rng.normal(size=v.size)
            out += [v, v + 0.1 * noise]
        # ties: every relabeling leaks alike from a uniform vector; a valid state plus its
        # image under a dit or anti-dit swap leaks alike under the swapped relabelings
        out.append(np.ones(sig.dim, dtype=complex))
        spec = random_valid_state(sig, rng)
        swap = FactorPermutation(tuple(range(sig.m))[::-1], tuple(range(sig.n))[::-1])
        mirrored = PureStateSpec(sig, spec.coeffs, spec.parity, spec.tail, swap.compose(spec.perm))
        out.append(build_pure_state(spec) + build_pure_state(mirrored))
        return [v / np.linalg.norm(v) for v in out]

    @pytest.mark.parametrize("dmn", TABLE_SIGS)
    @pytest.mark.parametrize("atol", [DEFAULT_ATOL, 0.3])
    def test_validate_matches_per_relabeling_loop(self, rng, dmn, atol):
        sig = SystemSignature(*dmn)
        for v in self._vectors(sig, rng):
            rep = validate_pure_state(v, sig, atol=atol)
            _check_against_loop(v, sig, atol, rep.valid, rep.residual, rep.witness)

    @pytest.mark.parametrize("dmn", TABLE_SIGS)
    @pytest.mark.parametrize("atol", [DEFAULT_ATOL, 0.3])
    def test_stacked_rows_match_one_row_validator(self, rng, dmn, atol):
        # valid states, perturbed (invalid) ones and ties, all in one stack
        sig = SystemSignature(*dmn)
        vecs = self._vectors(sig, rng)
        valid, leak, k, key = pattern_test(np.array(vecs), sig, atol)
        assert valid[0] and (atol > DEFAULT_ATOL or not valid[1])
        table = index_table(sig)
        for i, v in enumerate(vecs):
            rep = validate_pure_state(v, sig, atol=atol)
            parity, tail = table.split_key(key[i])
            perm = table.relabelings[k[i]]
            witness = {"sigma": perm.sigma, "tau": perm.tau, "parity": parity, "tail": tail}
            assert (rep.valid, rep.residual, rep.witness) == (valid[i], leak[i], witness)

    @pytest.mark.parametrize("dmn", [(2, 4, 1), (2, 1, 4)])
    def test_stack_beyond_three_per_side_matches_the_loop(self, rng, dmn):
        sig = SystemSignature(*dmn)
        vecs = self._vectors(sig, rng)
        valid, leak, k, key = pattern_test(np.array(vecs), sig)
        table = index_table(sig)
        for i, v in enumerate(vecs):
            perm, (parity, tail) = table.relabelings[k[i]], table.split_key(key[i])
            witness = {"sigma": perm.sigma, "tau": perm.tau, "parity": parity, "tail": tail}
            _check_against_loop(v, sig, DEFAULT_ATOL, valid[i], leak[i], witness)

    @pytest.mark.parametrize("dmn", TABLE_SIGS + [(2, 0, 3), (3, 0, 2), (2, 2, 0), (2, 4, 1),
                                     (2, 1, 4)])
    def test_one_row_draw_matches_the_single_row_sampler(self, dmn):
        # the sampler that drew one state alone: its permutations, digits and amplitudes, in
        # that order, normalized by vector_norm
        def single_row(sig, rng):
            d, m, n, p = sig.d, sig.m, sig.n, sig.num_pairs
            sigma = rng.permutation(m) if m > 1 else np.arange(m)
            tau = rng.permutation(n) if n > 1 else np.arange(n)
            parity = rng.integers(0, d, size=p) if p else np.arange(0)
            tail = rng.integers(0, d, size=abs(m - n)) if m != n else np.arange(0)
            z = rng.normal(size=2 * d**p)
            amps = z[: d**p] + 1j * z[d**p :]
            coeffs = dict(zip(product(range(d), repeat=p), amps / vector_norm(amps)))
            return PureStateSpec(sig, coeffs, parity, tail, FactorPermutation(sigma, tau))

        sig = SystemSignature(*dmn)
        for seed in range(20):
            new, old, batch = (np.random.default_rng(seed) for _ in range(3))
            spec, want = random_valid_state(sig, new), single_row(sig, old)
            assert new.bit_generator.state == old.bit_generator.state
            assert (spec.perm.sigma, spec.perm.tau) == (want.perm.sigma, want.perm.tau)
            assert (spec.parity, spec.tail) == (want.parity, want.tail)
            v = build_pure_state(spec)
            assert np.max(np.abs(v - build_pure_state(want))) <= 1e-15
            assert v.tobytes() == draw_valid_states(sig, 1, batch)[0].tobytes()
            assert v.tobytes() == _build_pure_loop(spec).tobytes()
            assert batch.bit_generator.state == new.bit_generator.state

    @pytest.mark.parametrize("dmn", TABLE_SIGS + [(2, 4, 1), (3, 0, 2), (2, 5, 3)])
    def test_build_matches_digit_loop(self, rng, dmn):
        sig = SystemSignature(*dmn)
        for trial in range(10):
            spec = random_valid_state(sig, rng)
            if trial % 2 and len(spec.coeffs) > 1:  # a sparse support, renormalized
                keep = list(spec.coeffs)[:: 2]
                scale = np.sqrt(sum(abs(spec.coeffs[x]) ** 2 for x in keep))
                spec = PureStateSpec(sig, {x: spec.coeffs[x] / scale for x in keep},
                                     spec.parity, spec.tail, spec.perm)
            assert build_pure_state(spec).tobytes() == _build_pure_loop(spec).tobytes()

    @pytest.mark.parametrize("dmn,field,value", [
        ((2, 2, 1), "tail", (2,)),
        ((2, 2, 1), "tail", (-1,)),
        ((2, 1, 2), "tail", (5,)),
        ((2, 2, 1), "coeffs", {(2,): 1.0}),
        ((2, 2, 1), "coeffs", {(-1,): 1.0}),
        ((3, 2, 2), "coeffs", {(0, 3): 1.0}),
    ])
    def test_mutated_spec_with_out_of_range_digit_raises(self, dmn, field, value):
        sig = SystemSignature(*dmn)
        p = sig.num_pairs
        perm = FactorPermutation(tuple(range(sig.m))[::-1], tuple(range(sig.n))[::-1])
        spec = PureStateSpec(sig, {(0,) * p: 1.0}, perm=perm)
        setattr(spec, field, value)
        with pytest.raises(DomainError):
            build_pure_state(spec)


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


# a paired anti-dit digit enters only the parity (anti - dit) % d, where 7 and -1 read as 1
@pytest.mark.parametrize("digits", [(0, 7), (0, -1), (2, 0), (-1, 1)])
def test_basis_state_spec_refuses_digits_out_of_range(digits):
    with pytest.raises(DomainError, match="must lie in 0..1"):
        basis_state_spec(SIG11, digits)


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
        atol = DEFAULT_ATOL
        spectrum = rng.uniform(0.1, 1.0, size=sig.dim)
        spectrum[0] = 0.0
        spectrum *= (1 - scale * atol) / spectrum.sum()
        spectrum[0] = scale * atol
        q, _ = np.linalg.qr(rng.normal(size=(sig.dim,) * 2) + 1j * rng.normal(size=(sig.dim,) * 2))
        mat = (q * spectrum) @ q.conj().T
        lo = np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0]
        if lo < -atol:
            with pytest.raises(DensityMatrixError, match="negative eigenvalue") as err:
                DensityState(sig, mat)
            reported = float(str(err.value).rsplit(" ", 1)[1])
            assert reported == pytest.approx(lo, abs=1e-14)
        else:
            DensityState(sig, mat)
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
        atol = DEFAULT_ATOL
        support = low_rank_support(rng, sig.dim)
        for rank in ranks:
            for lam in lams:
                mat = low_rank_density(rng, sig.dim, rank, lam, support)
                lo = lowest_eigenvalue(mat, support)
                if lo < -atol:
                    with pytest.raises(DensityMatrixError, match="negative eigenvalue") as err:
                        DensityState(sig, mat)
                    assert float(str(err.value).rsplit(" ", 1)[1]) == pytest.approx(lo, abs=1e-14)
                else:
                    np.testing.assert_array_equal(DensityState(sig, mat).matrix, mat)

    def test_residual_not_pivots_decides_positivity(self, rng):
        # a rank-1 projector's diagonal with a zero-diagonal coupling that makes it indefinite:
        # one pivot leaves nothing on the diagonal, the explicit residual sees the coupling
        sig, atol = SystemSignature(2, 3, 3), DEFAULT_ATOL
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
        assert not low_rank_psd(mat, 1)
        with pytest.raises(DensityMatrixError, match="negative eigenvalue"):
            DensityState(sig, mat)


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

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pair_residual_is_largest_cross_sector_entry(self, d, rng):
        sig = SystemSignature(d, 1, 1)
        rho = DensityState.from_vector(sig, rng.normal(size=d * d) + 1j * rng.normal(size=d * d))
        idx = np.arange(d * d)
        sector = (idx % d - idx // d) % d
        want = float(np.max(np.abs(rho.matrix[sector[:, None] != sector[None, :]])))
        rep = validate_mixed_state(rho)
        assert not rep.valid and rep.residual == want

    def test_certificate_path(self, rng):
        from duoc.states import random_mixed_state

        rho, cert = random_mixed_state(SystemSignature(2, 2, 1), rng)
        rep = validate_mixed_state(rho, certificate=cert)
        assert rep.valid and rep.witness == "certificate"

    @pytest.mark.parametrize("dmn", [(2, 2, 1), (2, 2, 2), (3, 2, 1)])
    def test_certificate_defect_matches_per_term_sum(self, dmn, rng):
        from duoc.states import random_mixed_state

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

    @pytest.mark.parametrize("other", [(2, 2, 2), (4, 1, 0)])
    def test_certificate_on_another_signature_rejected(self, other):
        # (2,2,2) has another dimension; (4,1,0) has the same dimension 4
        rho = DensityState(SIG11, np.diag([1, 0, 0, 0]).astype(complex))
        spec = basis_state_spec(SystemSignature(*other), (0,) * sum(other[1:]))
        with pytest.raises(ShapeError, match="certificate"):
            validate_mixed_state(rho, certificate=[(1.0, spec)])

    def test_wrong_certificate_rejected(self):
        spec = PureStateSpec(SIG11, {(0,): 1.0})
        rho = DensityState(SIG11, np.diag([0, 0, 0, 1]).astype(complex))
        rep = validate_mixed_state(rho, certificate=[(1.0, spec)])
        assert not rep.valid

    @pytest.mark.parametrize("term", ["spec", (1.0, 3), (1.0, None), ("x", "spec"), (1j, "spec")],
                             ids=["bare spec", "int spec", "None spec", "str weight",
                                  "complex weight"])
    def test_malformed_certificate_term_refused(self, term):
        from duoc.effects import Effect, validate_effect

        spec = PureStateSpec(SIG11, {(0,): 1.0})
        term = spec if term == "spec" else tuple(spec if t == "spec" else t for t in term)
        mat = projector(build_pure_state(spec))
        with pytest.raises(DomainError, match="certificate terms must be"):
            validate_mixed_state(DensityState(SIG11, mat), certificate=[term])
        with pytest.raises(DomainError, match="certificate terms must be"):
            validate_effect(Effect(SIG11, mat, certificate=[term]))

    # an inf weight used to print an overflow warning and a NaN one to answer valid=False, nan
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan, np.float64(np.nan)], ids=repr)
    def test_non_finite_certificate_weight_refused(self, weight):
        from duoc.effects import Effect, validate_effect

        spec = PureStateSpec(SIG11, {(0,): 1.0})
        mat = projector(build_pure_state(spec))
        other = basis_state_spec(SIG11, (1, 1))
        for certificate in ([(weight, spec)], [(1.0, spec), (weight, other)]):
            with pytest.raises(DomainError, match="weights must be finite"):
                validate_mixed_state(DensityState(SIG11, mat), certificate=certificate)
            with pytest.raises(DomainError, match="weights must be finite"):
                validate_effect(Effect(SIG11, mat, certificate=certificate))

    def test_spectral_path_on_larger_composite(self, rng):
        from duoc.states import random_mixed_state

        sig = SystemSignature(2, 2, 1)
        rho, _ = random_mixed_state(sig, rng)
        rep = validate_mixed_state(rho)
        # spectral route may be inconclusive but must not reject a genuine mixture outright
        assert rep.valid or "NON-EXHAUSTIVE" in rep.flags


def hadamard_on_dit_0(sig):
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return tensor_all(h, np.eye(sig.dim // 2))


# every signature up to dimension 64
CELL_SIGS = [SystemSignature(d, m, n) for d in range(2, 65) for m in range(7) for n in range(7)
             if m + n and d ** (m + n) <= 64]
HADAMARD_SIGS = [(2, 2, 1), (2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 3, 3)]


class TestCellTest:
    """The one pattern branch of :func:`validate_cone_member` on states and effects."""

    @staticmethod
    def old_residual(sig, mat):
        """The residual of the branches the cell test replaced: the diagonal test on one kind,
        the sector-block test on (1, 1)."""
        if sig.is_classical() or sig.is_anticlassical():
            return off_diagonal_max(mat)
        sector = index_table(sig).key
        return float(np.max(np.abs(mat[sector[:, None] != sector])))

    @pytest.mark.parametrize("dmn", [(2, 1, 0), (2, 3, 0), (3, 2, 0), (2, 0, 1), (2, 0, 3),
                                     (3, 0, 2), (2, 1, 1), (3, 1, 1), (4, 1, 1)], ids=str)
    def test_residual_and_verdict_equal_the_old_branches(self, dmn, rng):
        from duoc.effects import Effect, random_certified_effect, validate_effect
        from duoc.states import random_mixed_state

        sig = SystemSignature(*dmn)
        for _ in range(4):
            valid_state = random_mixed_state(sig, rng)[0]
            invalid_state = DensityState(sig, random_density(rng, sig.dim))
            valid_effect = Effect(sig, random_certified_effect(sig, rng).op)
            # a density matrix has its spectrum in [0, 1]
            invalid_effect = Effect(sig, random_density(rng, sig.dim))
            for obj, valid in ((valid_state, True), (invalid_state, False),
                               (valid_effect, True), (invalid_effect, False)):
                if isinstance(obj, DensityState):
                    mat, rep = obj.matrix, validate_mixed_state(obj)
                else:
                    mat, rep = obj.op, validate_effect(obj)
                want = self.old_residual(sig, mat)
                assert rep.residual == want and rep.valid == (want <= DEFAULT_ATOL) == valid
                assert rep.witness == "cell test" and rep.flags == ()

    @pytest.mark.parametrize("sig", CELL_SIGS, ids=str)
    def test_cover_equals_the_definition(self, sig):
        # over every index pair; the digit-difference reference, used above dimension 64, too
        every = np.arange(sig.dim)
        want = cell_cover(sig)
        assert np.array_equal(systems.cover_entries(sig, every, every), want)
        assert np.array_equal(digit_difference_cover(sig, every, every), want)

    @pytest.mark.parametrize("sig", CELL_SIGS, ids=str)
    def test_cover_entries_equal_the_definition(self, sig):
        rng = np.random.default_rng(sig.dim)
        rows, cols = rng.integers(0, sig.dim, size=5), rng.permutation(sig.dim)
        assert np.array_equal(systems.cover_entries(sig, rows, cols),
                              cell_cover(sig)[np.ix_(rows, cols)])

    @pytest.mark.parametrize("dmn", [(2, 4, 3), (3, 3, 2), (2, 5, 5), (4, 3, 3), (2, 6, 6),
                                     (2, 5, 7), (2, 12, 0), (8, 2, 2), (64, 1, 1), (16, 0, 3)],
                             ids=str)
    def test_cover_entries_equal_the_digit_differences(self, dmn):
        sig = SystemSignature(*dmn)
        rng = np.random.default_rng(sig.dim)
        rows, cols = rng.integers(0, sig.dim, size=40), rng.permutation(sig.dim)
        assert np.array_equal(systems.cover_entries(sig, rows, cols),
                              digit_difference_cover(sig, rows, cols))

    @pytest.mark.parametrize("dmn", [(2, 1, 1), (2, 2, 2), (3, 2, 1), (2, 4, 3), (2, 0, 7)],
                             ids=str)
    def test_zero_effect_is_valid(self, dmn):
        # (2, 4, 3) and (2, 0, 7) lie above states.CELL_TEST_SUPPORT_DIM, where the cell test
        # looks for a support, and the zero operator has none
        from duoc.effects import basis_effect, validate_effect

        sig = SystemSignature(*dmn)
        rep = validate_effect(basis_effect(sig, [0.0] * sig.dim))
        one_pairing = len(index_table(sig).relabelings) == 1
        assert rep.valid and rep.residual == 0.0 and rep.flags == ()
        assert rep.witness == ("cell test" if one_pairing else "spectral decomposition")

    @pytest.mark.parametrize("sig", CELL_SIGS, ids=str)
    def test_certified_inputs_carry_no_mass_off_the_cells(self, sig):
        from duoc.effects import Effect, random_certified_effect, validate_effect
        from duoc.states import random_mixed_state

        rng = np.random.default_rng(sig.dim)
        off = ~cell_cover(sig)
        for _ in range(3):
            rho = random_mixed_state(sig, rng)[0]
            e = Effect(sig, random_certified_effect(sig, rng).op)
            for mat, rep in ((rho.matrix, validate_mixed_state(rho)), (e.op, validate_effect(e))):
                assert np.max(np.abs(mat[off]), initial=0.0) == 0.0
                # never rejected exactly; undecided at most
                assert rep.valid or rep.flags == ("NON-EXHAUSTIVE",)

    @pytest.mark.parametrize("dmn", HADAMARD_SIGS, ids=str)
    def test_hadamard_rotated_inputs_rejected_exactly(self, dmn):
        from duoc.effects import Effect, random_certified_effect, validate_effect
        from duoc.states import random_mixed_state

        sig = SystemSignature(*dmn)
        u = hadamard_on_dit_0(sig)
        rng = np.random.default_rng(0)
        for _ in range(10):
            rho = DensityState(sig, u @ random_mixed_state(sig, rng)[0].matrix @ u.conj().T)
            e = Effect(sig, u @ random_certified_effect(sig, rng).op @ u.conj().T)
            for rep in (validate_mixed_state(rho), validate_effect(e)):
                assert not rep.valid and rep.residual > DEFAULT_ATOL
                assert rep.witness == "cell test" and rep.flags == ()


def test_marginal_state_of_product(rng):
    sig = SystemSignature(2, 1, 1)
    rho = DensityState(sig, np.diag([0.4, 0.0, 0.0, 0.6]).astype(complex))
    marg = marginal_state(rho, (0,))
    assert marg.sig == SystemSignature(2, 1, 0)
    np.testing.assert_allclose(np.diag(marg.matrix), [0.4, 0.6])


@pytest.mark.parametrize("keep", [(1.5,), ("0",), (0.0,)], ids=repr)
def test_marginal_positions_must_be_integers(keep):
    rho = DensityState(SIG11, np.diag([0.4, 0.0, 0.0, 0.6]).astype(complex))
    with pytest.raises(DomainError, match="must be integers"):
        marginal_state(rho, keep)


def test_marginal_accepts_numpy_integers():
    rho = DensityState(SIG11, np.diag([0.4, 0.0, 0.0, 0.6]).astype(complex))
    assert marginal_state(rho, np.array([1])).sig == SystemSignature(2, 0, 1)


@pytest.mark.parametrize("left, right", [((2, 1, 0), (2, 1, 1)), ((2, 1, 1), (2, 2, 1)),
                                         ((3, 0, 1), (3, 1, 0)), ((2, 2, 1), (2, 0, 2))], ids=str)
def test_product_state_is_the_permuted_kron(left, right, rng):
    a = DensityState(SystemSignature(*left), random_density(rng, left[0] ** sum(left[1:])))
    b = DensityState(SystemSignature(*right), random_density(rng, right[0] ** sum(right[1:])))
    prod = product_state(a, b)
    order = product_order(a.sig, b.sig)
    assert prod.sig == SystemSignature(left[0], left[1] + right[1], left[2] + right[2])
    # concatenated factor order[q] lands on product position q
    u = factor_permutation_matrix(a.sig.dims + b.sig.dims, np.argsort(order))
    np.testing.assert_allclose(prod.matrix, u @ np.kron(a.matrix, b.matrix) @ u.T,
                               rtol=0, atol=1e-15)
    with pytest.raises(DomainError, match="common local dimension"):
        product_state(a, DensityState(SystemSignature(5, 1, 0), np.eye(5) / 5))


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

    def test_largest_pair_decided_from_the_vector(self):
        # the dit marginal of a (64, 1, 1) state is taken from its vector: the 4096 x 4096
        # projector took 0.2-0.5 s and peaked at 403 MB
        sig = SystemSignature(64, 1, 1)
        diagonal, basis = np.zeros((2, sig.dim), complex)
        diagonal[::65], basis[65 * 7] = 1 / 8, 1.0
        is_entangled(diagonal, sig)  # builds the signature's index table
        for v, entangled in ((diagonal, True), (basis, False)):
            tracemalloc.start()
            start = time.thread_time()
            try:
                assert is_entangled(v, sig) == entangled
                assert time.thread_time() - start < 0.1
                assert tracemalloc.get_traced_memory()[1] < 4_000_000
            finally:
                tracemalloc.stop()


def dense_span(sig):
    """Span dimensions the dense way: the real SVD rank, at ``SPECTRAL_ATOL`` relative to the
    largest singular value, of the basis projectors and of a spanning family of every cell.

    Relabelings of one pairing build the same vectors, so each distinct vector is projected
    once, and the entries that every projector leaves zero are dropped; neither changes a rank.
    """
    strings = list(product(range(sig.d), repeat=sig.num_pairs))
    r = 2**-0.5
    family = [{x: 1.0} for x in strings] + [
        {x: r, y: c * r} for x, y in combinations(strings, 2) for c in (1, 1j)]
    vecs = {v.tobytes(): v for v in (
        build_pure_state(PureStateSpec(sig, coeffs, parity, tail, perm))
        for perm in all_factor_permutations(sig.m, sig.n)
        for parity in product(range(sig.d), repeat=sig.num_pairs)
        for tail in product(range(sig.d), repeat=abs(sig.m - sig.n))
        for coeffs in family)}
    rows_valid = [projector(v).reshape(-1) for v in vecs.values()]
    rows_product = [np.diag(col).reshape(-1) for col in np.eye(sig.dim)]

    def real_rank(rows):
        a = np.array(rows)
        a = np.hstack([a.real, a.imag])
        sv = np.linalg.svd(a[:, np.any(a != 0, axis=0)], compute_uv=False)
        return int(np.sum(sv > SPECTRAL_ATOL * sv[0]))

    return real_rank(rows_product), real_rank(rows_valid)


def closed_form_span(sig):
    """``valid_dim`` in closed form: ``dim`` times the digit differences in which, for each
    ``t`` in ``1..d-1``, ``c_t`` dits and ``c_t`` anti-dits differ by ``t``; with
    ``S = c_1 + ... + c_(d-1)`` there are ``m! / ((m - S)! prod c_t!)`` ways to choose the dits
    and ``n! / ((n - S)! prod c_t!)`` to choose the anti-dits."""
    total = 0
    for counts in product(range(sig.num_pairs + 1), repeat=sig.d - 1):
        if (s := sum(counts)) <= sig.num_pairs:
            ways = math.prod(math.factorial(c) for c in counts)
            total += (math.factorial(sig.m) // math.factorial(sig.m - s) // ways
                      * math.factorial(sig.n) // math.factorial(sig.n - s) // ways)
    return sig.dim * total


# every signature of dimension <= 64 that the dense method answered under its old cost bound,
# then those with pairs and four or five factors of one kind
DENSE_SPAN_SIGNATURES = [
    (2, 0, 1), (2, 0, 2), (2, 0, 3), (2, 0, 4), (2, 1, 0), (2, 1, 1), (2, 1, 2), (2, 1, 3),
    (2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 3, 0), (2, 3, 1), (2, 4, 0), (3, 0, 1), (3, 0, 2),
    (3, 0, 3), (3, 1, 0), (3, 1, 1), (3, 1, 2), (3, 2, 0), (3, 2, 1), (3, 3, 0), (4, 0, 1),
    (4, 0, 2), (4, 1, 0), (4, 1, 1), (4, 2, 0), (5, 0, 1), (5, 0, 2), (5, 1, 0), (5, 1, 1),
    (5, 2, 0), (6, 0, 1), (6, 0, 2), (6, 1, 0), (6, 1, 1), (6, 2, 0), (7, 0, 1), (7, 0, 2),
    (7, 1, 0), (7, 2, 0), (8, 0, 1), (8, 0, 2), (8, 1, 0), (8, 2, 0), (9, 0, 1), (9, 1, 0),
    (10, 0, 1), (10, 1, 0), (11, 0, 1), (11, 1, 0), (12, 0, 1), (12, 1, 0), (13, 0, 1),
    (13, 1, 0), (14, 0, 1), (14, 1, 0), (15, 0, 1), (15, 1, 0), (16, 0, 1), (16, 1, 0),
    (2, 4, 1), (2, 1, 4), (2, 4, 2), (2, 2, 4), (2, 5, 1), (2, 1, 5),
]


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

    @pytest.mark.parametrize("dmn", DENSE_SPAN_SIGNATURES, ids=str)
    def test_count_matches_dense_rank(self, dmn):
        sig = SystemSignature(*dmn)
        assert span_dimensions(sig) == dense_span(sig)

    # the dense rank refused these (without its cost bound, (3,1,3) took about 6 s and
    # (3,2,2) 21.7 s); the cell count answers them within the refusal bound below
    @pytest.mark.parametrize("dmn, dims", [((3, 1, 3), (81, 567)), ((3, 2, 2), (81, 1215)),
                                           ((2, 0, 5), (32, 32))])
    def test_count_is_quick_where_dense_was_refused(self, dmn, dims):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert span_dimensions(SystemSignature(*dmn)) == dims
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.5 and peak < 1e6

    # the count needs no dim x dim mask: with one it took 33.6 MB (tracemalloc) on the first two
    @pytest.mark.parametrize("dmn, dims", [((2, 12, 0), (4096, 4096)),
                                           ((64, 1, 1), (4096, 262144)),
                                           ((2, 6, 6), (4096, 3784704))], ids=str)
    def test_count_needs_no_mask(self, dmn, dims):
        sig = SystemSignature(*dmn)
        tracemalloc.start()
        try:
            assert span_dimensions(sig) == dims
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_count_at_the_composite_cap(self):
        start = time.perf_counter()
        assert span_dimensions(SystemSignature(4, 3, 3)) == (4096, 1048576)
        assert time.perf_counter() - start < 1.0

    def test_count_equals_the_closed_form(self):
        assert closed_form_span(SystemSignature(2, 4, 4)) == 256 * 70 == 17920
        assert closed_form_span(SystemSignature(2, 6, 6)) == 4096 * 924 == 3784704
        for sig in ALL_SIGS:
            assert span_dimensions(sig) == (sig.dim, closed_form_span(sig)), sig

    def test_every_signature_answers_within_a_second(self):
        # span, the pure-state test of a drawn state and the cell test, each with its first
        # table build; entries (0, 1) differ in one digit, which no cell covers.  Then the tables
        # the systems caches hold for every signature stay under 150 MB in total
        from duoc.states import validate_cone_member

        cached = (systems.index_table, systems._difference_codes)
        try:
            for sig in ALL_SIGS:
                v = build_pure_state(random_valid_state(sig, 0))
                mat = np.zeros((sig.dim, sig.dim), dtype=complex)
                mat[:2, :2] = 0.5
                for check in (lambda: span_dimensions(sig)[0] == sig.dim,
                              lambda: validate_pure_state(v, sig).valid,
                              lambda: not validate_cone_member(sig, mat).valid):
                    start = time.perf_counter()
                    assert check(), sig
                    assert time.perf_counter() - start < 1.0, sig
            held = sum(table.key.nbytes + table.gather.nbytes
                       + sum(a.nbytes for a in systems._difference_codes(sig))
                       for sig in ALL_SIGS for table in [systems.index_table(sig)])
            assert held < 150e6
        finally:
            for f in cached:
                f.cache_clear()

    # (2,1,4) used to run for about 2 s, and (2,4,4) built 256 dense basis projectors
    # (268 MB) before a size check refused it
    @pytest.mark.parametrize("dmn, dims", [((2, 1, 4), (32, 160)), ((2, 4, 4), (256, 17920))])
    def test_costly_family_answers_before_anything_is_built(self, dmn, dims):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert span_dimensions(SystemSignature(*dmn)) == dims
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.5 and peak < 1e6
