import numpy as np
import pytest

from duoc.dynamics import (
    ClassicalChannel,
    ConditionalEvolutionSpec,
    ReversibleSpec,
    apply_reversible,
    build_reversible,
    choi_matrix,
    classical_channel_map,
    conditional_evolution,
    validate_transformation,
)
from duoc.dynamics import _conjugate_monomial, _reversible_index_map
from duoc.effects import Effect
from duoc.errors import DomainError, NotClassicalError, ShapeError
from duoc.linalg import embed_operator, is_unitary, partial_trace, tensor_all
from duoc.states import DensityState, PureStateSpec, basis_state_spec, build_pure_state, validate_pure_state
from duoc.systems import (
    FactorPermutation,
    SystemSignature,
    all_factor_permutations,
    embed_permutation,
    parity_projector,
    phase_matrix,
    shift_matrix,
)

from conftest import random_density

# signatures on which the structured kernels are compared with dense references
KERNEL_SIGS = [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 2, 2), (2, 3, 3)]

SIG11 = SystemSignature(2, 1, 1)
SIG10 = SystemSignature(2, 1, 0)


def phi_plus_density():
    spec = PureStateSpec(SIG11, {(0,): 2**-0.5, (1,): 2**-0.5})
    return DensityState.from_vector(SIG11, build_pure_state(spec))


class TestReversible:
    def test_default_spec_is_identity(self):
        u = build_reversible(ReversibleSpec(), SIG11)
        np.testing.assert_allclose(u, np.eye(4))

    def test_shift_layer(self):
        u = build_reversible(ReversibleSpec(x_shifts=(1,)), SIG10)
        np.testing.assert_allclose(u.real, [[0, 1], [1, 0]])

    def test_phase_layer_convention(self):
        # Z^j multiplies |s> by omega^(s+j): never the identity, but the
        # j-dependence is only a global phase
        z0 = build_reversible(ReversibleSpec(z_phases=(0,)), SIG10)
        z1 = build_reversible(ReversibleSpec(z_phases=(1,)), SIG10)
        np.testing.assert_allclose(np.diag(z0), [1, -1])
        np.testing.assert_allclose(z1, -z0, atol=1e-14)

    def test_composite_is_unitary(self, rng):
        sig = SystemSignature(3, 2, 1)
        spec = ReversibleSpec(
            perm=FactorPermutation((1, 0), (0,)),
            x_shifts=(1, 2, 0),
            z_phases=(0, 1, 2),
        )
        u = build_reversible(spec, sig)
        assert is_unitary(u)

    def test_wrong_layer_length_rejected(self):
        with pytest.raises(DomainError):
            build_reversible(ReversibleSpec(x_shifts=(1,)), SIG11)

    def test_preserves_validity(self, rng):
        from duoc.oracle import random_valid_state

        sig = SystemSignature(3, 1, 2)
        for _ in range(5):
            spec = random_valid_state(sig, rng)
            v = build_pure_state(spec)
            u = build_reversible(
                ReversibleSpec(x_shifts=(2, 1, 0), z_phases=(1, 0, 2)), sig
            )
            rep = validate_pure_state(u @ v, sig)
            assert rep.valid

    def test_anti_shift_moves_parity(self):
        # X on the anti-dit shifts the parity read off the state by 1
        spec = PureStateSpec(SIG11, {(0,): 0.6, (1,): 0.8}, parity=(0,))
        v = build_pure_state(spec)
        u = build_reversible(ReversibleSpec(x_shifts=(0, 1)), SIG11)
        rep = validate_pure_state(u @ v, SIG11)
        assert rep.valid and rep.witness["parity"] == (1,)

    def test_phases_leave_parity_alone(self):
        spec = PureStateSpec(SIG11, {(0,): 0.6, (1,): 0.8}, parity=(1,))
        v = build_pure_state(spec)
        u = build_reversible(ReversibleSpec(z_phases=(1, 1)), SIG11)
        rep = validate_pure_state(u @ v, SIG11)
        assert rep.valid and rep.witness["parity"] == (1,)

    def test_apply_requires_unitary(self):
        rho = phi_plus_density()
        with pytest.raises(DomainError):
            apply_reversible(np.ones((4, 4)), rho)
        with pytest.raises(ShapeError):
            apply_reversible(np.eye(2), rho)


def random_reversible_spec(sig, rng):
    perms = list(all_factor_permutations(sig.m, sig.n))
    return ReversibleSpec(
        perm=perms[int(rng.integers(len(perms)))],
        x_shifts=tuple(int(x) for x in rng.integers(0, sig.d, size=sig.num_factors)),
        z_phases=tuple(int(x) for x in rng.integers(0, sig.d, size=sig.num_factors)),
    )


def random_effect_op(dim, rng):
    a = random_density(rng, dim)
    return a / np.linalg.eigvalsh(a)[-1]


class TestStructuredReversible:
    """Index-map kernels against the dense products they replace."""

    @pytest.mark.parametrize("dmn", KERNEL_SIGS)
    def test_build_matches_dense_product(self, dmn, rng):
        sig = SystemSignature(*dmn)
        for _ in range(3):
            spec = random_reversible_spec(sig, rng)
            dense = (
                embed_permutation(sig, spec.perm)
                @ tensor_all(*[shift_matrix(sig.d, j) for j in spec.x_shifts])
                @ tensor_all(*[phase_matrix(sig.d, j) for j in spec.z_phases])
            )
            np.testing.assert_allclose(build_reversible(spec, sig), dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dmn", KERNEL_SIGS)
    def test_apply_matches_dense_conjugation(self, dmn, rng):
        sig = SystemSignature(*dmn)
        rho = DensityState(sig, random_density(rng, sig.dim))
        u = build_reversible(random_reversible_spec(sig, rng), sig)
        out = apply_reversible(u, rho)
        np.testing.assert_allclose(out.matrix, u @ rho.matrix @ u.conj().T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dmn", KERNEL_SIGS)
    def test_index_map_matches_built_unitary(self, dmn, rng):
        sig = SystemSignature(*dmn)
        spec = random_reversible_spec(sig, rng)
        u = build_reversible(spec, sig)
        src, ph = _reversible_index_map(spec, sig)
        v = rng.normal(size=sig.dim) + 1j * rng.normal(size=sig.dim)
        np.testing.assert_allclose(ph * v[src], u @ v, rtol=0, atol=1e-15)
        rho = DensityState(sig, random_density(rng, sig.dim))
        out = _conjugate_monomial(src, ph, rho).matrix
        assert np.array_equal(out, apply_reversible(u, rho).matrix)
        # bit for bit the fancy-index gather with the phases applied out of place
        old = DensityState(sig, ph[:, None] * rho.matrix[np.ix_(src, src)] * ph.conj()).matrix
        assert np.array_equal(out, old)

    def test_apply_rejects_mixing_unitary(self):
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        u = np.kron(hadamard, np.eye(2))
        assert is_unitary(u)
        with pytest.raises(DomainError, match="monomial"):
            apply_reversible(u, phi_plus_density())

    def test_apply_rejects_off_support_noise(self, rng):
        u = build_reversible(random_reversible_spec(SIG11, rng), SIG11)
        noisy = u + 1e-6 * (np.ones((4, 4)) - np.abs(u))
        with pytest.raises(DomainError, match="monomial"):
            apply_reversible(noisy, phi_plus_density())

    def test_apply_rejects_wrong_modulus(self):
        with pytest.raises(DomainError, match="monomial"):
            apply_reversible(np.eye(4) * (1 + 1e-6), phi_plus_density())

    def test_apply_rejects_repeated_column(self):
        u = np.eye(4)
        u[1] = u[0]
        with pytest.raises(DomainError, match="monomial"):
            apply_reversible(u, phi_plus_density())


class TestClassicalChannel:
    def test_column_stochastic_enforced(self):
        with pytest.raises(DomainError):
            ClassicalChannel(np.array([[0.5, 0.2], [0.4, 0.8]]), 2, 1, 1)

    def test_map_acts_on_probabilities(self):
        ch = ClassicalChannel(np.array([[0.9, 0.2], [0.1, 0.8]]), 2, 1, 1)
        rho = DensityState(SIG10, np.diag([0.5, 0.5]).astype(complex))
        out = classical_channel_map(ch, rho)
        np.testing.assert_allclose(np.diag(out.matrix).real, [0.55, 0.45])

    def test_compose(self):
        a = ClassicalChannel(np.array([[0.0, 1.0], [1.0, 0.0]]), 2, 1, 1)
        b = ClassicalChannel(np.array([[0.9, 0.2], [0.1, 0.8]]), 2, 1, 1)
        ba = b.compose(a)
        np.testing.assert_allclose(ba.matrix, b.matrix @ a.matrix)

    def test_rejects_nondiagonal_input(self):
        mat = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
        ch = ClassicalChannel(np.eye(2), 2, 1, 1)
        with pytest.raises(NotClassicalError):
            classical_channel_map(ch, DensityState(SIG10, mat))

    def test_output_length_change(self):
        # coarse-grain two bits to one
        table = np.zeros((2, 4))
        table[0, 0] = table[0, 1] = 1.0
        table[1, 2] = table[1, 3] = 1.0
        ch = ClassicalChannel(table, 2, 2, 1)
        sig = SystemSignature(2, 2, 0)
        rho = DensityState(sig, np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))
        out = classical_channel_map(ch, rho)
        np.testing.assert_allclose(np.diag(out.matrix).real, [0.3, 0.7])


class TestConditionalEvolution:
    def setup_method(self):
        phi = build_pure_state(PureStateSpec(SIG11, {(0,): 2**-0.5, (1,): 2**-0.5}))
        self.ancilla = DensityState.from_vector(SIG11, phi)
        self.pair_proj = Effect(
            SIG11,
            np.outer(phi, phi.conj()),
            certificate=[(1.0, PureStateSpec(SIG11, {(0,): 2**-0.5, (1,): 2**-0.5}))],
        )

    def test_swap_style_transfer(self):
        # effect pairs the input dit with the ancilla anti-dit (positions
        # 0 and 2 of the [input | ancilla] layout); the surviving ancilla
        # dit carries the input state
        spec = ConditionalEvolutionSpec(SIG10, self.ancilla, self.pair_proj, (0, 2))
        rho = DensityState(SIG10, np.diag([0.3, 0.7]).astype(complex))
        prob, out = conditional_evolution(spec, rho)
        assert prob == pytest.approx(0.25, abs=1e-12)
        assert out.sig == SIG10
        np.testing.assert_allclose(np.diag(out.matrix).real, [0.3, 0.7], atol=1e-12)

    def test_parity_projector_effect_doubles_probability(self):
        p0 = Effect(
            SIG11,
            parity_projector(2, 0),
            certificate=[
                (1.0, basis_state_spec(SIG11, (0, 0))),
                (1.0, basis_state_spec(SIG11, (1, 1))),
            ],
        )
        spec = ConditionalEvolutionSpec(SIG10, self.ancilla, p0, (0, 2))
        rho = DensityState(SIG10, np.diag([0.3, 0.7]).astype(complex))
        prob, out = conditional_evolution(spec, rho)
        assert prob == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(np.diag(out.matrix).real, [0.3, 0.7], atol=1e-12)

    def test_effect_must_consume_all_input(self):
        with pytest.raises(DomainError):
            ConditionalEvolutionSpec(SIG10, self.ancilla, self.pair_proj, (1, 2))

    def test_kind_wiring_checked(self):
        with pytest.raises(DomainError):
            ConditionalEvolutionSpec(SIG10, self.ancilla, self.pair_proj, (0, 1))

    def test_output_positions(self):
        spec = ConditionalEvolutionSpec(SIG10, self.ancilla, self.pair_proj, (0, 2))
        assert spec.output_positions == (1,)

    def test_matches_oracle_contraction(self, rng):
        from duoc.oracle import oracle_conditional

        spec = ConditionalEvolutionSpec(SIG10, self.ancilla, self.pair_proj, (0, 2))
        rho = DensityState(SIG10, np.diag([0.6, 0.4]).astype(complex))
        prob, out = conditional_evolution(spec, rho)
        joint = np.kron(rho.matrix, self.ancilla.matrix)
        oprob, oraw = oracle_conditional(joint, 2, 3, self.pair_proj.op, (0, 2))
        assert prob == pytest.approx(oprob, abs=1e-12)
        np.testing.assert_allclose(out.matrix, oraw / oprob, atol=1e-12)

    @pytest.mark.parametrize("dmn", KERNEL_SIGS)
    def test_matches_dense_embedding(self, dmn, rng):
        sig = SystemSignature(*dmn)
        ancilla = DensityState(sig, random_density(rng, sig.dim))
        # the input dit plus one or two ancilla factors, dits wired out of order
        if sig.m >= 2:
            esig, positions = SystemSignature(sig.d, 2, 1), (2, 0, sig.num_factors)
        else:
            esig, positions = SystemSignature(sig.d, 1, 1), (0, sig.num_factors)
        effect = Effect(esig, random_effect_op(esig.dim, rng))
        in_sig = SystemSignature(sig.d, 1, 0)
        spec = ConditionalEvolutionSpec(in_sig, ancilla, effect, positions)
        rho = DensityState(in_sig, random_density(rng, sig.d))
        prob, out = conditional_evolution(spec, rho)
        dims = in_sig.dims + sig.dims
        weighted = embed_operator(effect.op, positions, dims) @ np.kron(rho.matrix, ancilla.matrix)
        want_prob = np.trace(weighted).real
        want = partial_trace(weighted, dims, spec.output_positions) / want_prob
        assert prob == pytest.approx(want_prob, abs=1e-12)
        np.testing.assert_allclose(out.matrix, want, rtol=0, atol=1e-12)


class TestChoiAndValidation:
    def test_identity_choi_is_maximally_entangled(self):
        c = choi_matrix(lambda r: r, 2)
        vals = np.linalg.eigvalsh(c)
        np.testing.assert_allclose(vals, [0, 0, 0, 2], atol=1e-12)

    def test_transpose_choi_not_psd(self):
        c = choi_matrix(lambda r: r.T, 2)
        assert np.linalg.eigvalsh(c)[0] < -0.5

    @pytest.mark.parametrize("dim_in, dim_out", [(4, 4), (8, 2), (4, 8), (16, 16)])
    def test_choi_matches_kron_definition(self, dim_in, dim_out, rng):
        k = rng.normal(size=(dim_out, dim_in)) + 1j * rng.normal(size=(dim_out, dim_in))

        def channel(r):  # a transpose, so the map is not completely positive
            return k @ r.T @ k.conj().T

        want = np.zeros((dim_out * dim_in,) * 2, dtype=complex)
        for i in range(dim_in):
            for j in range(dim_in):
                unit = np.zeros((dim_in, dim_in), dtype=complex)
                unit[i, j] = 1.0
                want += np.kron(channel(unit), unit)
        assert np.array_equal(choi_matrix(channel, dim_in), want)

    def test_identity_map_validates(self):
        rep = validate_transformation(lambda r: r, SIG10, SIG10)
        assert rep.valid
        assert "SAMPLED" in rep.flags

    def test_transpose_map_rejected(self):
        rep = validate_transformation(lambda r: r.T, SIG11, SIG11)
        assert not rep.valid

    def test_nonlinear_map_rejected(self):
        with pytest.raises(DomainError):
            validate_transformation(lambda r: r @ r, SIG10, SIG10)

    def test_parity_breaking_map_rejected(self):
        # measure-and-forget the anti-dit, leaving coherence on the pair
        def leaky(mat):
            out = mat.copy()
            return out

        def coherence_injector(mat):
            tr = np.trace(mat)
            plus = np.full((4, 4), 0.25, dtype=complex)
            return tr * plus

        rep = validate_transformation(coherence_injector, SIG11, SIG11)
        assert not rep.valid

    @pytest.mark.parametrize("dmn", [(2, 2, 1), (2, 2, 2)])
    def test_undecided_output_is_not_a_pass(self, dmn):
        # a Hadamard on dit 0 superposes basis states; the spectral check cannot decide
        sig = SystemSignature(*dmn)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        u = tensor_all(h, np.eye(sig.dim // 2))
        rep = validate_transformation(lambda r: u @ r @ u.conj().T, sig, sig)
        assert not rep.valid
        assert rep.witness == "UNDECIDED output state"
        assert rep.flags == ("SAMPLED", "NON-EXHAUSTIVE")
