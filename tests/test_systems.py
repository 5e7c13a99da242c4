import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from duoc.errors import DomainError
from duoc.systems import (
    MAX_COMPOSITE_DIM,
    FactorPermutation,
    SystemSignature,
    cover_entries,
    digits_to_index,
    index_to_digits,
    parity_projector,
    phase_matrix,
    index_table,
    shift_matrix,
)

from conftest import ALL_SIGS, all_factor_permutations, embed_permutation, relabeled_cells


class TestSystemSignature:
    def test_basic_fields(self):
        sig = SystemSignature(3, 2, 1)
        assert sig.dim == 27
        assert sig.dims == (3, 3, 3)
        assert sig.kinds == ("D", "D", "A")
        assert sig.num_pairs == 1

    def test_rejects_bad_dims(self):
        with pytest.raises(DomainError):
            SystemSignature(1, 1, 1)
        with pytest.raises(DomainError):
            SystemSignature(2, 0, 0)
        with pytest.raises(DomainError):
            SystemSignature(2, -1, 2)

    @pytest.mark.parametrize("dmn", [(2, 1.5, 1), (2, float("nan"), 1), (2.0, 1, 1), ("2", 1, 1),
                                     (2, 1, None)], ids=str)
    def test_fields_must_be_integers(self, dmn):
        with pytest.raises(DomainError, match="must be integers"):
            SystemSignature(*dmn)

    def test_numpy_integer_fields_accepted(self):
        sig = SystemSignature(np.int64(2), np.int32(1), np.uint8(1))
        assert sig == SystemSignature(2, 1, 1) and sig.dim == 4
        assert all(type(x) is int for x in (sig.d, sig.m, sig.n))

    def test_sub_signature_positions_must_be_integers(self):
        with pytest.raises(DomainError, match="must be integers"):
            SystemSignature(2, 1, 1).sub_signature((0.9,))
        assert SystemSignature(2, 1, 1).sub_signature(np.array([1])) == SystemSignature(2, 0, 1)

    def test_size_cap(self):
        # 2^12 = 4096 is allowed, 2^13 is not
        SystemSignature(2, 6, 6)
        with pytest.raises(DomainError):
            SystemSignature(2, 7, 6)
        assert MAX_COMPOSITE_DIM == 4096

    def test_kind_predicates(self):
        assert SystemSignature(2, 3, 0).is_classical()
        assert SystemSignature(2, 0, 2).is_anticlassical()
        assert not SystemSignature(2, 1, 1).is_classical()

    def test_sub_signature_counts_kinds(self):
        sig = SystemSignature(2, 2, 2)
        sub = sig.sub_signature((0, 2, 3))
        assert (sub.m, sub.n) == (1, 2)


class TestFactorPermutation:
    def test_identity(self):
        perm = FactorPermutation.identity(2, 3)
        assert perm.is_identity()
        assert perm.destinations(2, 3) == (0, 1, 2, 3, 4)

    def test_identity_is_one_shared_frozen_instance(self):
        perm = FactorPermutation.identity(2, 3)
        assert FactorPermutation.identity(2, 3) is perm
        assert FactorPermutation.identity(3, 2) is not perm
        with pytest.raises(dataclasses.FrozenInstanceError):
            perm.sigma = (1, 0)

    def test_destinations_offset_anti_block(self):
        perm = FactorPermutation((1, 0), (0,))
        assert perm.destinations(2, 1) == (1, 0, 2)

    def test_compose_then_invert(self):
        a = FactorPermutation((1, 2, 0), (1, 0))
        b = FactorPermutation((2, 0, 1), (0, 1))
        ab = a.compose(b)
        ident = ab.compose(ab.inverse())
        assert ident.is_identity() or ab.inverse().compose(ab).is_identity()

    def test_entries_must_be_integers(self):
        with pytest.raises(DomainError, match="must be integers"):
            FactorPermutation((0.9,), (0,))
        assert FactorPermutation(np.arange(2), (np.int64(0),)).sigma == (0, 1)

    def test_all_factor_permutations_count(self):
        perms = list(all_factor_permutations(3, 2))
        assert len(perms) == 6 * 2
        assert len(set(perms)) == 12


def test_index_table_is_one_shared_object_per_signature():
    from duoc.states import build_pure_state, random_valid_state, validate_pure_state
    from duoc.systems import index_table

    sig = SystemSignature(3, 2, 1)
    table = index_table(sig)
    assert index_table(SystemSignature(3, 2, 1)) is table
    assert index_table(SystemSignature(3, 1, 2)) is not table
    before = index_table.cache_info().currsize
    v = build_pure_state(random_valid_state(SystemSignature(3, 2, 1), 4))
    assert validate_pure_state(v, SystemSignature(3, 2, 1)).valid
    assert index_table.cache_info().currsize == before


def cell_partitions_by_definition(sig):
    """Each relabeling's partition ``{cell}`` of the basis, each cell a frozenset, in order."""
    return [frozenset(frozenset(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels))
            for _, labels in relabeled_cells(sig)]


class TestPairings:
    """One row of the index table per pairing of dits with anti-dits."""

    @pytest.mark.parametrize("dmn", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2),
                                     (3, 2, 1), (2, 3, 2), (2, 3, 3), (3, 2, 2), (2, 4, 1),
                                     (2, 1, 4), (2, 4, 2), (2, 0, 3), (3, 2, 0)], ids=str)
    def test_rows_are_the_first_relabeling_of_each_partition(self, dmn):
        # walking every relabeling in order, a row starts each partition not seen before
        sig = SystemSignature(*dmn)
        first = {}
        for perm, partition in zip(all_factor_permutations(sig.m, sig.n),
                                   cell_partitions_by_definition(sig)):
            first.setdefault(partition, perm)
        assert index_table(sig).relabelings == tuple(first.values())

    def test_one_row_per_pairing_up_to_the_cap(self):
        for sig in ALL_SIGS:
            try:
                table = index_table(sig)
                big, small = max(sig.m, sig.n), min(sig.m, sig.n)
                assert len(table.relabelings) == len(table.gather) == math.perm(big, small)
            finally:
                index_table.cache_clear()

    def test_table_at_the_largest_pairing_count(self):
        # 2520 pairings of (2, 5, 7) in int16, against 604800 relabelings
        table = index_table(SystemSignature(2, 5, 7))
        assert table.gather.shape == (2520, 4096) and table.gather.nbytes <= 25e6


class TestCellCover:
    @pytest.mark.parametrize("dmn", [(2, 3, 0), (3, 0, 2), (2, 12, 0)], ids=str)
    def test_no_pairs_cover_single_indices(self, dmn):
        sig = SystemSignature(*dmn)
        rows, cols = np.arange(0, sig.dim, max(1, sig.dim // 64)), np.arange(sig.dim)
        assert np.array_equal(cover_entries(sig, rows, cols), rows[:, None] == cols)


@given(st.integers(2, 5), st.integers(1, 4), st.data())
def test_digit_roundtrip(d, width, data):
    idx = data.draw(st.integers(0, d**width - 1))
    digits = index_to_digits(idx, d, width)
    assert len(digits) == width
    assert digits_to_index(digits, d) == idx


def test_index_to_digits_most_significant_first():
    assert index_to_digits(5, 2, 3) == (1, 0, 1)
    assert digits_to_index((1, 0, 1), 2) == 5


class TestParityMachinery:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_pair_key_is_the_sector(self, d):
        # on (1, 1) the table's key of basis index i = dit * d + anti is its sector (anti - dit) % d
        from duoc.systems import index_table

        i = np.arange(d * d)
        np.testing.assert_array_equal(index_table(SystemSignature(d, 1, 1)).key, (i % d - i // d) % d)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_projectors_resolve_identity(self, d):
        total = sum(parity_projector(d, k) for k in range(d))
        np.testing.assert_allclose(total, np.eye(d * d), atol=1e-14)

    @pytest.mark.parametrize("d,k", [(2, 0), (2, 1), (3, 2)])
    def test_projector_idempotent_rank_d(self, d, k):
        pk = parity_projector(d, k)
        np.testing.assert_allclose(pk @ pk, pk, atol=1e-14)
        np.testing.assert_allclose(pk, pk.conj().T)
        assert round(float(np.trace(pk).real)) == d

    def test_parity_0_spans_matched_digits(self):
        p0 = parity_projector(2, 0)
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[3, 3] = 1
        np.testing.assert_allclose(p0, expect)

    def test_parity_1_spans_mismatched_digits(self):
        p1 = parity_projector(2, 1)
        expect = np.zeros((4, 4))
        expect[1, 1] = expect[2, 2] = 1
        np.testing.assert_allclose(p1, expect)


class TestShiftAndPhase:
    def test_shift_is_cyclic_addition(self):
        x = shift_matrix(3, 1)
        e0 = np.zeros(3)
        e0[0] = 1
        np.testing.assert_allclose(x @ e0, [0, 1, 0])
        np.testing.assert_allclose(x @ x @ x, np.eye(3), atol=1e-14)

    def test_shift_exponents_add(self):
        np.testing.assert_allclose(
            shift_matrix(5, 2) @ shift_matrix(5, 4), shift_matrix(5, 1), atol=1e-14
        )

    def test_phase_matrix_convention(self):
        # d=3: the exponent is (s + j) mod 3, so Z^1 leaves |2> alone
        z1 = phase_matrix(3, 1)
        omega = np.exp(2j * np.pi / 3)
        np.testing.assert_allclose(np.diag(z1), [omega, omega**2, 1.0], atol=1e-14)

    def test_phase_offset_is_global(self):
        z0 = phase_matrix(3, 0)
        z2 = phase_matrix(3, 2)
        omega = np.exp(2j * np.pi / 3)
        np.testing.assert_allclose(z2, omega**2 * z0, atol=1e-14)


def test_embed_permutation_swaps_dits_only():
    sig = SystemSignature(2, 2, 1)
    u = embed_permutation(sig, FactorPermutation((1, 0), (0,)))
    v = np.zeros(8, dtype=complex)
    v[digits_to_index((0, 1, 1), 2)] = 1.0
    w = u @ v
    assert w[digits_to_index((1, 0, 1), 2)] == 1.0
