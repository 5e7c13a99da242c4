import warnings

import numpy as np
import pytest

from duoc import effects, states
from duoc.effects import validate_effect
from duoc.errors import DomainError, NotEntangledError, NormalizationError, ShapeError, ValidityError
from duoc import nonlocality
from duoc.nonlocality import (
    ALICE_PAIR,
    BOB_PAIR,
    ChshResult,
    LocalBasis,
    activation_F,
    activation_setup,
    chsh_value,
    optimal_chsh_bases,
    p_quantum,
    phi_vector,
    regroup_check,
    side_effect,
    side_povm,
    two_copy_distribution,
    two_copy_state,
)
from duoc.states import build_pure_state, PureStateSpec
from duoc.systems import SystemSignature, digits_to_index

from conftest import embed_operator, parent_chsh, parent_side_op

ROOT2 = np.sqrt(2.0)
EDGE_ANGLES = (0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, -0.0)


def pair_vector(alphas, r=0):
    alphas = np.asarray(alphas, dtype=complex)
    d = alphas.size
    spec = PureStateSpec(
        SystemSignature(d, 1, 1),
        {(i,): alphas[i] for i in range(d) if alphas[i] != 0},
        parity=(r,),
    )
    return build_pure_state(spec)


def literal_distribution(alice_basis, bob_basis):
    """The Born rule written out: each side's effects embedded in the doubled composite
    [bit1, bit2, anti1, anti2], Alice's on (0, 3) and Bob's on (1, 2), applied to the
    16-entry two-copy vector of the d = 2 maximally entangled pair."""
    psi2 = two_copy_state(np.array([1.0, 1.0]) / ROOT2, 0)
    out = np.zeros((2, 2))
    for a, u in enumerate(alice_basis.vectors):
        full_a = embed_operator(side_effect("alice", u).op, (0, 3), (2,) * 4)
        for b, w in enumerate(bob_basis.vectors):
            full_b = embed_operator(side_effect("bob", w).op, (1, 2), (2,) * 4)
            out[a, b] = np.real(psi2.conj() @ (full_a @ (full_b @ psi2)))
    return out


class TestPhiVector:
    def test_plain(self):
        v = phi_vector(3, 1, 2)
        assert v[1 * 3 + 0] == 1.0 and np.sum(np.abs(v)) == 1.0

    def test_label_range(self):
        with pytest.raises(DomainError):
            phi_vector(2, 2, 0)


class TestLocalBasis:
    def test_rotation_rows_orthonormal(self):
        b = LocalBasis.rotation(0.3)
        np.testing.assert_allclose(b.vectors @ b.vectors.conj().T, np.eye(2), atol=1e-14)

    def test_computational(self):
        np.testing.assert_allclose(LocalBasis.computational().vectors, np.eye(2))

    def test_rejects_nonorthonormal(self):
        with pytest.raises(DomainError):
            LocalBasis(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            LocalBasis(np.ones((2, 3)))

    @pytest.mark.parametrize("angle", [*EDGE_ANGLES, 0.3, -2.9, 7, np.float64(1.1), np.int64(-3)],
                             ids=repr)
    def test_rotation_stores_what_the_checked_constructor_stores(self, angle):
        c, s = np.cos(float(angle)), np.sin(float(angle))
        checked = LocalBasis(np.array([[c, s], [-s, c]]))
        built = LocalBasis.rotation(angle)
        assert built.vectors.dtype == complex and built.vectors.shape == (2, 2)
        assert built.vectors.tobytes() == checked.vectors.tobytes()

    def test_rotation_reads_a_single_precision_angle_as_a_float(self):
        # cos and sin of a float32 angle are orthonormal only to about 1e-7, which the
        # checked constructor refuses; the angle is read as a float before any arithmetic
        built = LocalBasis.rotation(np.float32(0.3))
        assert built.vectors.tobytes() == LocalBasis.rotation(float(np.float32(0.3))).vectors.tobytes()
        np.testing.assert_allclose(built.vectors @ built.vectors.conj().T, np.eye(2), atol=1e-15)


class TestSideEffects:
    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_rank_two_projector(self, side):
        e = side_effect(side, [np.cos(0.4), np.sin(0.4)])
        vals = np.linalg.eigvalsh(e.op)
        np.testing.assert_allclose(sorted(vals), [0, 0, 1, 1], atol=1e-12)

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_effect_validates(self, side):
        rep = validate_effect(side_effect(side, [0.6, 0.8]))
        assert rep.valid

    def test_direction_must_be_unit(self):
        with pytest.raises(DomainError):
            side_effect("alice", [1.0, 1.0])

    def test_side_name_checked(self):
        with pytest.raises(DomainError):
            side_effect("carol", [1.0, 0.0])

    def test_povm_completeness(self):
        povm = side_povm("bob", LocalBasis.rotation(1.1))
        total = sum(e.op for e in povm.effects)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_povm_needs_full_basis(self):
        with pytest.raises(ShapeError):
            side_povm("alice", LocalBasis(np.array([[1.0, 0.0]])))


class TestTwoCopyState:
    def test_norm_and_support(self):
        v = two_copy_state([0.6, 0.8], 1)
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        # amplitudes live on digits (x1, x2, x1+1, x2+1) only
        nz = np.nonzero(v)[0]
        assert sorted(nz) == sorted(
            x1 * 8 + x2 * 4 + ((x1 + 1) % 2) * 2 + ((x2 + 1) % 2)
            for x1 in range(2)
            for x2 in range(2)
        )

    def test_requires_normalized(self):
        with pytest.raises(NormalizationError):
            two_copy_state([1.0, 1.0], 0)

    def test_huge_coefficient_refused_without_warning(self):
        # its norm used to print a numpy overflow warning before the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormalizationError):
                two_copy_state([1e200, 1.0], 0)

    def test_parity_range(self):
        with pytest.raises(DomainError):
            two_copy_state([0.6, 0.8], 2)

    @pytest.mark.parametrize("r", [1.5, 1.0, np.float64(1.0), "1", None, float("nan")])
    def test_parity_must_be_an_integer(self, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^parity .* must be integers$"):
                two_copy_state([0.6, 0.8], r)
            with pytest.raises(DomainError, match="^parity .* must be integers$"):
                activation_setup([0.6, 0.8], r)

    @pytest.mark.parametrize("r", [np.int64(1), np.int8(1), np.uint32(1)])
    def test_numpy_integer_parity_accepted(self, r):
        assert np.array_equal(two_copy_state([0.6, 0.8], r), two_copy_state([0.6, 0.8], 1))
        setup = activation_setup([0.6, 0.8], r)
        assert setup.r == 1 and activation_F(setup) == activation_F(activation_setup([0.6, 0.8], 1))


class TestRegroup:
    def test_maximally_entangled_pair_exact(self):
        psi = pair_vector(np.array([1, 1]) / ROOT2)
        assert regroup_check(psi) < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_random_states_all_parities(self, d, rng):
        for r in range(d):
            alphas = rng.normal(size=d) + 1j * rng.normal(size=d)
            alphas /= np.linalg.norm(alphas)
            assert regroup_check(pair_vector(alphas, r), d) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_scatter_matches_loop(self, d, rng):
        # the right-hand side as the per-(k, l) loop the scatter replaced, with the
        # products taken from one array product as the scatter takes them; residuals bit-equal
        for r in range(d):
            alphas = rng.normal(size=d) + 1j * rng.normal(size=d)
            alphas /= np.linalg.norm(alphas)
            psi = pair_vector(alphas, r)
            lhs = np.kron(psi, psi).reshape((d,) * 4).transpose(0, 2, 1, 3).reshape(-1)
            prods = np.outer(alphas, alphas)
            rhs = np.zeros_like(lhs)
            for k in range(d):
                for l in range(d):
                    kp = (k + l - r) % d
                    digits = [k, kp, (kp + 2 * r - l) % d, (k + l) % d]
                    rhs[digits_to_index(digits, d)] += prods[k, kp]
            assert regroup_check(psi, d) == float(np.max(np.abs(lhs - rhs)))

    def test_rejects_invalid_state(self):
        bad = np.zeros(4, dtype=complex)
        bad[0] = bad[1] = 1 / ROOT2  # |00> + |01| mixes sectors
        with pytest.raises(ValidityError):
            regroup_check(bad)

    def test_rejects_non_square_length(self):
        with pytest.raises(ShapeError):
            regroup_check(np.ones(6) / np.sqrt(6))


class TestTwoCopyDistribution:
    def test_matches_quantum_prediction(self, rng):
        for _ in range(20):
            a = LocalBasis.rotation(rng.uniform(0, 2 * np.pi))
            b = LocalBasis.rotation(rng.uniform(0, 2 * np.pi))
            dist = two_copy_distribution(a, b)
            for i in range(2):
                for j in range(2):
                    expect = p_quantum(a.vectors[i], b.vectors[j])
                    assert dist[i, j] == pytest.approx(expect, abs=1e-12)

    def test_matches_literal_born_rule(self, rng):
        bases = [LocalBasis.rotation(a) for a in rng.uniform(-np.pi, np.pi, size=25)]
        for _ in range(25):
            q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            bases.append(LocalBasis(q * (np.diag(r) / np.abs(np.diag(r)))))
        for a in bases:
            b = bases[rng.integers(len(bases))]
            dist = two_copy_distribution(a, b)
            assert dist.shape == (2, 2)
            np.testing.assert_allclose(dist, literal_distribution(a, b), rtol=0, atol=1e-12)

    def test_builds_no_effect_or_povm(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("two_copy_distribution built an Effect or Povm")

        monkeypatch.setattr(nonlocality.Effect, "_admitted", refuse)
        monkeypatch.setattr(nonlocality.Povm, "_admitted", refuse)
        dist = two_copy_distribution(LocalBasis.rotation(0.2), LocalBasis.rotation(1.4))
        assert float(np.sum(dist)) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(AssertionError, match="built an Effect"):
            side_povm("alice", LocalBasis.rotation(0.2))

    def test_distribution_normalized(self):
        dist = two_copy_distribution(LocalBasis.rotation(0.2), LocalBasis.rotation(1.4))
        assert float(np.sum(dist)) == pytest.approx(1.0, abs=1e-12)

    def test_p_quantum_formula(self):
        # cos^2 of the angle difference over 2, for real direction vectors
        a, b = 0.7, 0.2
        va = [np.cos(a), np.sin(a)]
        vb = [np.cos(b), np.sin(b)]
        assert p_quantum(va, vb) == pytest.approx(np.cos(a - b) ** 2 / 2, abs=1e-12)

    def test_pair_constants(self):
        assert ALICE_PAIR == (0, 3) and BOB_PAIR == (1, 2)


class TestChsh:
    def test_optimal_hits_tsirelson(self):
        alice, bob = optimal_chsh_bases()
        res = chsh_value(alice, bob)
        assert isinstance(res, ChshResult)
        assert res.f_value == pytest.approx(2 * ROOT2, abs=1e-12)
        np.testing.assert_allclose(
            res.expectations, [[ROOT2 / 2, ROOT2 / 2], [ROOT2 / 2, -ROOT2 / 2]], atol=1e-12
        )

    def test_aligned_settings_classical_value(self):
        same = (LocalBasis.rotation(0.0), LocalBasis.rotation(0.0))
        res = chsh_value(same, same)
        assert res.f_value == pytest.approx(2.0, abs=1e-12)

    def test_random_settings_respect_bound(self, rng):
        for _ in range(50):
            angles = rng.uniform(0, 2 * np.pi, size=4)
            alice = (LocalBasis.rotation(angles[0]), LocalBasis.rotation(angles[1]))
            bob = (LocalBasis.rotation(angles[2]), LocalBasis.rotation(angles[3]))
            assert chsh_value(alice, bob).f_value <= 2 * ROOT2 + 1e-9

    @pytest.mark.parametrize("bad", [
        (LocalBasis.rotation(0.1),),
        (LocalBasis.rotation(0.1), LocalBasis.rotation(0.2), LocalBasis.rotation(0.3)),
        LocalBasis.rotation(0.1).vectors,
        LocalBasis.rotation(0.1),
        (LocalBasis.rotation(0.1), LocalBasis.rotation(0.2).vectors),
        (),
        None,
    ], ids=["one", "three", "bare-array", "bare-basis", "array-setting", "empty", "none"])
    def test_each_side_needs_exactly_two_bases(self, bad):
        good = optimal_chsh_bases()[0]
        for alice, bob in ((bad, good), (good, bad)):
            with pytest.raises(ShapeError, match="exactly two LocalBasis"):
                chsh_value(alice, bob)

    def test_bases_may_come_as_any_pair(self):
        alice, bob = optimal_chsh_bases()
        want = chsh_value(alice, bob)
        got = chsh_value(list(alice), iter(bob))
        assert got.expectations.tobytes() == want.expectations.tobytes()


class TestActivationSetup:
    def test_theta_relation(self):
        s = activation_setup([0.6, 0.8])
        lhs = np.tan(s.theta) * (s.alpha_prime**2 + s.beta_prime**2)
        assert lhs == pytest.approx(2 * s.alpha_prime * s.beta_prime, abs=1e-12)

    def test_dominant_indices(self):
        alphas = np.array([0.2, 0.8, 0.3, 0.0, 0.4])
        alphas = alphas / np.linalg.norm(alphas)
        s = activation_setup(alphas, r=2)
        assert (s.up_index, s.down_index) == (1, 4)
        assert s.alpha_prime == pytest.approx(alphas[1] ** 2)
        assert s.beta_prime == pytest.approx(alphas[4] ** 2)

    def test_povms_complete(self):
        s = activation_setup([0.6, 0.8], r=1)
        for povm in s.alice + s.bob:
            total = sum(e.op for e in povm.effects)
            np.testing.assert_allclose(total, np.eye(4), atol=1e-12)
            for e in povm.effects:
                assert validate_effect(e).valid

    def test_product_state_rejected(self):
        with pytest.raises(NotEntangledError):
            activation_setup([1.0, 0.0, 0.0])

    def test_normalization_enforced(self):
        with pytest.raises(NormalizationError):
            activation_setup([0.6, 0.9])

    def test_huge_coefficient_refused_without_warning(self):
        # its norm used to print a numpy overflow warning before the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormalizationError):
                activation_setup([1e200, 1.0])

    def test_phase_insensitive(self):
        a = activation_setup([0.6, 0.8])
        b = activation_setup([0.6 * np.exp(1j * 0.7), -0.8])
        np.testing.assert_allclose(a.coeffs, b.coeffs)


class TestEffectsDecidedByTheCellTest:
    """The engine's (1, 1) effects carry no certificate: on a composite of
    one pairing the cell test decides exactly, with no eigendecomposition."""

    @staticmethod
    def decided_by_cells(effects, linalg_calls):
        for e in effects:
            assert e.certificate is None
            rep = validate_effect(e)
            assert rep.valid and rep.witness == "cell test"
            assert rep.residual == 0.0 and rep.flags == ()
        assert linalg_calls["eigh"] == []

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("support", ["two", "full"])
    def test_activation_effects(self, d, support, rng, linalg_calls):
        for r in range(d):
            alphas = np.zeros(d)
            idx = rng.choice(d, size=2, replace=False) if support == "two" else np.arange(d)
            alphas[idx] = rng.uniform(0.05, 1.0, size=idx.size)
            alphas /= np.linalg.norm(alphas)
            setup = activation_setup(alphas, r=r)
            self.decided_by_cells([e for povm in setup.alice + setup.bob for e in povm.effects],
                                  linalg_calls)

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_side_effects(self, side, linalg_calls):
        u = np.array([0.6, 0.8j])
        self.decided_by_cells([side_effect(side, u), side_effect(side, [1.0, 0.0])], linalg_calls)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_witness_effects(self, parity, linalg_calls):
        self.decided_by_cells(effects.witness_povm(0.3, parity=parity).effects, linalg_calls)


class TestActivationF:
    def test_uniform_pair_value(self):
        s = activation_setup(np.array([1, 1]) / ROOT2)
        f_sim, f_closed = activation_F(s)
        assert f_closed == pytest.approx(1 + ROOT2, abs=1e-12)
        assert f_sim == pytest.approx(1 + ROOT2, abs=1e-9)

    def test_lopsided_pair_frozen_value(self):
        s = activation_setup([np.sqrt(0.9), np.sqrt(0.1)])
        f_sim, f_closed = activation_F(s)
        assert f_sim == pytest.approx(2.0390473489452283, abs=1e-12)
        assert f_sim == pytest.approx(f_closed, abs=1e-9)
        assert f_sim > 2

    @pytest.mark.parametrize("d,r", [(3, 1), (5, 4)])
    def test_two_term_states_match_closed_form(self, d, r, rng):
        for _ in range(10):
            x = rng.uniform(0.05, 0.95)
            alphas = np.zeros(d)
            i, j = rng.choice(d, size=2, replace=False)
            alphas[i], alphas[j] = np.sqrt(x), np.sqrt(1 - x)
            s = activation_setup(alphas, r=r)
            f_sim, f_closed = activation_F(s)
            assert f_sim == pytest.approx(f_closed, abs=1e-9)
            assert f_sim > 2

    def test_state_cross_check_accepted(self):
        alphas = np.array([0.6, 0.8])
        s = activation_setup(alphas, r=1)
        f_sim, _ = activation_F(s, psi=pair_vector(alphas, r=1))
        assert f_sim > 2

    def test_mismatched_state_rejected(self):
        s = activation_setup([0.6, 0.8], r=0)
        with pytest.raises(DomainError):
            activation_F(s, psi=pair_vector([0.8, 0.6], r=0))


class TestCorrelatorKernel:
    """``chsh_value``, ``activation_F`` and ``two_copy_distribution`` share one regrouped-matrix
    kernel; the first two are checked here against contractions written out independently, the
    distribution in ``TestTwoCopyDistribution``."""

    def test_chsh_matches_literal_born_rule(self, rng):
        signs = (1, -1)  # outcome 0 counts +1, outcome 1 counts -1
        for _ in range(10):
            angles = rng.uniform(-np.pi, np.pi, size=4)
            alice = (LocalBasis.rotation(angles[0]), LocalBasis.rotation(angles[1]))
            bob = (LocalBasis.rotation(angles[2]), LocalBasis.rotation(angles[3]))
            res = chsh_value(alice, bob)
            want = np.zeros((2, 2))
            for x in range(2):
                for y in range(2):
                    dist = literal_distribution(alice[x], bob[y])
                    want[x, y] = sum(signs[a] * signs[b] * dist[a, b]
                                     for a in range(2) for b in range(2))
            np.testing.assert_allclose(res.expectations, want, rtol=0, atol=1e-12)
            f = want[0, 0] + want[0, 1] + want[1, 0] - want[1, 1]
            assert res.f_value == pytest.approx(f, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_activation_matches_four_tensor_contraction(self, d, rng):
        for r in range(d):
            alphas = rng.uniform(0.05, 1.0, size=d)
            alphas /= np.linalg.norm(alphas)
            setup = activation_setup(alphas, r=r)
            # axes of psi2: bit1, bit2, anti1, anti2; alice on (0, 3), bob on (1, 2)
            psi2 = np.zeros((d,) * 4, dtype=complex)
            for x1 in range(d):
                for x2 in range(d):
                    psi2[x1, x2, (x1 + r) % d, (x2 + r) % d] = alphas[x1] * alphas[x2]
            want = np.zeros((2, 2))
            for x in range(2):
                a_ob = setup.alice[x].effects[0].op - setup.alice[x].effects[1].op
                for y in range(2):
                    b_ob = setup.bob[y].effects[0].op - setup.bob[y].effects[1].op
                    want[x, y] = np.einsum("ABCD,ADad,BCbc,abcd->", psi2.conj(),
                                           a_ob.reshape((d,) * 4), b_ob.reshape((d,) * 4),
                                           psi2).real
            f_want = want[0, 0] + want[0, 1] + want[1, 0] - want[1, 1]
            f_sim, _ = activation_F(setup)
            assert f_sim == pytest.approx(f_want, abs=1e-12)



def bit_identity_bases(rng):
    """Real rotations at random and edge angles, random unitaries, and edge angles with phases."""
    out = [LocalBasis.rotation(a) for a in EDGE_ANGLES]
    out += [LocalBasis.rotation(a) for a in rng.uniform(-np.pi, np.pi, size=40)]
    for _ in range(40):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        out.append(LocalBasis(q * (np.diag(r) / np.abs(np.diag(r)))))
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(len(EDGE_ANGLES), 2, 1)))
    out += [LocalBasis(LocalBasis.rotation(a).vectors * ph) for a, ph in zip(EDGE_ANGLES, phases)]
    return out


class TestClosedFormBitIdentity:
    """The closed-form CHSH kernel reproduces the per-effect construction byte for byte."""

    def test_chsh_value(self, rng):
        bases = bit_identity_bases(rng)
        picks = [tuple(rng.integers(len(bases), size=4)) for _ in range(150)]
        n_edge = len(EDGE_ANGLES)
        picks += [(i, j, (i + 1) % n_edge, (j + 2) % n_edge)
                  for i in range(n_edge) for j in range(n_edge)]
        for a0, a1, b0, b1 in picks:
            alice, bob = (bases[a0], bases[a1]), (bases[b0], bases[b1])
            res = chsh_value(alice, bob)
            e, f = parent_chsh(alice, bob)
            assert res.expectations.tobytes() == e.tobytes()
            assert np.float64(res.f_value).tobytes() == np.float64(f).tobytes()

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_side_operators_match_the_linalg_norm_form(self, side, rng):
        rows = np.concatenate([b.vectors for b in bit_identity_bases(rng)]
                              + [rng.normal(size=(2000, 2)) + 1j * rng.normal(size=(2000, 2))])
        rows[-2000:] /= np.linalg.norm(rows[-2000:], axis=1)[:, None]
        # each padded vector divided by its np.linalg.norm, one call per vector
        want = np.zeros((len(rows), 4, 4), dtype=complex)
        for slots in {"alice": ((0, 3), (1, 2)), "bob": ((0, 3), (2, 1))}[side]:
            vecs = np.zeros((len(rows), 4), dtype=complex)
            vecs[:, slots] = rows
            vecs = vecs / np.array([np.linalg.norm(v) for v in vecs])[:, None]
            want += vecs[:, :, None] * vecs.conj()[:, None, :]
        assert nonlocality._side_operators(side, rows).tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_side_effect_op(self, side, rng):
        for basis in bit_identity_bases(rng):
            for u in basis.vectors:
                assert side_effect(side, u).op.tobytes() == parent_side_op(side, u).tobytes()


class TestNoReproofs:
    """Structural guard, no timing: the Bell path builds nothing it does not read."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"spec": 0, "effect": 0, "eigvalsh": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(states.PureStateSpec, "__post_init__",
                            counting("spec", states.PureStateSpec.__post_init__))
        monkeypatch.setattr(effects.Effect, "__post_init__",
                            counting("effect", effects.Effect.__post_init__))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        return counts

    def test_counters_see_the_public_path(self, counts):
        povm = side_povm("alice", LocalBasis.rotation(0.3))
        assert counts == {"spec": 0, "effect": 0, "eigvalsh": 0}  # built, with no certificate
        spec = PureStateSpec(povm.sig, {(0,): 1.0})
        effects.Effect(povm.sig, povm.effects[0].op, certificate=[(1.0, spec)])
        assert counts == {"spec": 1, "effect": 1, "eigvalsh": 1}

    def test_chsh_builds_no_spec_or_effect(self, counts, rng):
        alice, bob = optimal_chsh_bases()
        chsh_value(alice, bob)
        for _ in range(5):
            a0, a1, b0, b1 = (LocalBasis.rotation(a) for a in rng.uniform(-np.pi, np.pi, size=4))
            chsh_value((a0, a1), (b0, b1))
        assert counts["spec"] == 0 and counts["effect"] == 0 and counts["eigvalsh"] == 0

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_activation_setup_calls_no_eigvalsh(self, d, counts, rng):
        alphas = rng.uniform(0.05, 1.0, size=d)
        activation_F(activation_setup(alphas / np.linalg.norm(alphas), int(rng.integers(d))))
        assert counts == {"spec": 0, "effect": 0, "eigvalsh": 0}
