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
from duoc.effects import Effect, random_certified_effect, unit_effect
from duoc.errors import DomainError, NotClassicalError, ShapeError
from duoc.linalg import ZERO_ATOL, contract_effect, partial_trace, tensor_all
from duoc.states import (
    DensityState,
    PureStateSpec,
    basis_state_spec,
    build_pure_state,
    random_mixed_state,
    validate_pure_state,
)
from duoc.systems import (
    FactorPermutation,
    SystemSignature,
    parity_projector,
    phase_matrix,
    shift_matrix,
)

from conftest import (
    all_factor_permutations, embed_operator, embed_permutation, is_unitary, random_density,
)

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
        from duoc.states import random_valid_state

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


def parent_conditional_evolution(spec, rho):
    """The conditional evolution written out on the concatenated layout: the Kronecker product of
    input and ancilla, contracted at the wiring as given, cut at ``ZERO_ATOL``, and the output
    signature counted from the kinds of the unconsumed ancilla factors."""
    dims = rho.sig.dims + spec.ancilla.sig.dims
    joint = np.kron(rho.matrix, spec.ancilla.matrix)
    raw = contract_effect(spec.effect.op, joint, spec.effect_positions, dims)
    prob = float(np.real(np.trace(raw)))
    if prob <= ZERO_ATOL:
        return max(prob, 0.0), None
    k_in = rho.sig.num_factors
    kinds = [spec.ancilla.sig.kinds[t - k_in] for t in spec.output_positions]
    out_sig = SystemSignature(rho.sig.d, kinds.count("D"), kinds.count("A"))
    return prob, DensityState(out_sig, raw / prob)


def random_wiring(in_sig, anc_sig, rng):
    """Every input factor and a random proper subset of the ancilla, wired dits first, each
    kind in a random order; returns ``(effect signature, positions)``."""
    k_in = in_sig.num_factors
    extra = rng.choice(anc_sig.num_factors, size=int(rng.integers(0, anc_sig.num_factors)),
                       replace=False)
    measured = list(range(k_in)) + [k_in + int(t) for t in extra]
    kinds = in_sig.kinds + anc_sig.kinds
    dits = [p for p in measured if kinds[p] == "D"]
    antis = [p for p in measured if kinds[p] == "A"]
    positions = tuple(rng.permutation(dits).tolist()) + tuple(rng.permutation(antis).tolist())
    return SystemSignature(in_sig.d, len(dits), len(antis)), positions


class TestConditionalEvolutionIsAConditionalState:
    """``conditional_evolution`` as ``conditional_state`` of the product, against the formula it
    replaced."""

    def test_matches_the_concatenated_formula_bit_for_bit(self):
        rng = np.random.default_rng(15)
        shapes = [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]
        stated = 0
        for _ in range(120):
            in_shape = shapes[rng.integers(len(shapes))]
            anc_shape = [(1, 1), (2, 1), (1, 2), (2, 2)][rng.integers(4)]
            # d = 3 up to five factors, to keep the joint's admission cheap
            d = 3 if sum(in_shape + anc_shape) <= 5 and rng.integers(2) else 2
            in_sig, anc_sig = SystemSignature(d, *in_shape), SystemSignature(d, *anc_shape)
            # the drawn mixtures hold factors; dense copies of them pin the dense path's bytes
            drawn, _ = random_mixed_state(in_sig, rng)
            held, _ = random_mixed_state(anc_sig, rng)
            rho = DensityState._admitted(in_sig, drawn.matrix)
            ancilla = DensityState._admitted(anc_sig, held.matrix)
            esig, positions = random_wiring(in_sig, anc_sig, rng)
            effect = random_certified_effect(esig, rng)
            spec = ConditionalEvolutionSpec(in_sig, ancilla, effect, positions)
            prob, out = conditional_evolution(spec, rho)
            want_prob, want = parent_conditional_evolution(spec, rho)
            assert prob == want_prob
            assert (out is None) == (want is None)
            # the factored inputs take the factor kernels, equal to rounding
            factored = ConditionalEvolutionSpec(in_sig, held, effect, positions)
            got_prob, got = conditional_evolution(factored, drawn)
            assert got_prob == pytest.approx(prob, abs=1e-12) and (got is None) == (out is None)
            if out is not None:
                stated += 1
                assert out.sig == want.sig
                assert out.matrix.tobytes() == want.matrix.tobytes()
                assert np.max(np.abs(got.matrix - out.matrix)) <= 1e-12
        assert stated > 40

    def test_joint_above_the_cap_refused_at_construction(self):
        # (2,6,0) x (2,4,3) has dimension 2^13; its kron product would take 1 GB
        in_sig = SystemSignature(2, 6, 0)
        ancilla = DensityState.from_vector(SystemSignature(2, 4, 3), np.eye(128)[0])
        effect = unit_effect(in_sig)
        with pytest.raises(DomainError, match="exceeds cap"):
            ConditionalEvolutionSpec(in_sig, ancilla, effect, tuple(range(6)))

    @pytest.mark.parametrize("positions", [(0.0, 2), (0, 2.0), ("0", 2), (0.9, 2)])
    def test_positions_must_be_integers(self, positions):
        phi = build_pure_state(PureStateSpec(SIG11, {(0,): 2**-0.5, (1,): 2**-0.5}))
        ancilla = DensityState.from_vector(SIG11, phi)
        effect = Effect(SIG11, np.outer(phi, phi.conj()))
        with pytest.raises(DomainError, match="must be integers"):
            ConditionalEvolutionSpec(SIG10, ancilla, effect, positions)
        spec = ConditionalEvolutionSpec(SIG10, ancilla, effect, (np.int64(0), np.int32(2)))
        assert spec.effect_positions == (0, 2) and spec.joint_positions == (0, 2)

    def test_wiring_read_in_the_product_layout(self):
        # input (1, 1) and ancilla (1, 1): the product is [in dit, anc dit, in anti, anc anti]
        sig = SystemSignature(2, 1, 1)
        ancilla = DensityState.from_vector(sig, np.eye(4)[0])
        effect = unit_effect(SystemSignature(2, 1, 2))
        spec = ConditionalEvolutionSpec(sig, ancilla, effect, (0, 1, 3))
        assert spec.joint_positions == (0, 2, 3)
        assert spec.output_positions == (2,)


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

    @pytest.mark.parametrize("map_fn", [
        lambda r: r[:, :1],
        lambda r: np.hstack([r, r[:, :1]]),
        lambda r: np.trace(r),
        lambda r: r if r[0, 0] != 0 else r[:1, :1],
        lambda r: r * np.nan,
    ], ids=["column", "(2, 3)", "scalar", "shape changes", "non-finite"])
    def test_malformed_image_refused(self, map_fn):
        # a (2, 1) image used to broadcast into its slot and fail complete positivity
        with pytest.raises(ShapeError):
            choi_matrix(map_fn, 2)
        with pytest.raises(ShapeError):
            validate_transformation(map_fn, SIG10, SIG10)

    def test_identity_map_validates(self):
        rep = validate_transformation(lambda r: r, SIG10, SIG10)
        assert rep.valid and rep.witness == "Choi state" and rep.flags == ()

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
    def test_hadamard_output_rejected_by_the_cell_test(self, dmn):
        # a Hadamard on dit 0 superposes basis states of different cells: mass off every cell
        sig = SystemSignature(*dmn)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        u = tensor_all(h, np.eye(sig.dim // 2))
        rep = validate_transformation(lambda r: u @ r @ u.conj().T, sig, sig)
        # the image's off-cell entry 1/2, weighted 1/dim in the Choi state
        assert not rep.valid and rep.residual == pytest.approx(0.5 / sig.dim)
        assert rep.witness == "invalid Choi state"
        assert rep.flags == ()
