"""A NaN fails every admission check: it compares false with any tolerance.

Each constructor writes its check as ``not x <= tol``, so a NaN weight,
amplitude or table entry raises the module's ``DomainError`` (or its
``NormalizationError`` subclass) instead of passing ``x > tol``.  A finite
vector entry too large to square and sum is refused the same way, before
any norm overflows; a direction entry above 1 in modulus, before its
norm or Gram matrix is formed; a rotation angle that is not a finite real
number, before its cosine.  A digit field (parity, tail, coefficient
key, basis digits, dit string, shift or phase exponent, separable basis
label, pair label or parity) is read through ``operator.index``, so a
float, NaN or infinite digit is refused rather than truncated; a separable
weight that is not a real number is refused too.  ``apply_reversible``
reads its matrix in row blocks, yet a non-finite entry anywhere raises
``ShapeError`` before a block that is not monomial raises ``DomainError``.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from duoc.dynamics import ClassicalChannel, ReversibleSpec, apply_reversible
from duoc.effects import classical_povm
from duoc.errors import DomainError, NormalizationError, ShapeError
from duoc.nonlocality import (
    LocalBasis, activation_setup, phi_vector, side_effect, two_copy_state,
)
from duoc.states import (
    DensityState, PureStateSpec, SeparableSpec, basis_state_spec, build_pure_state,
    build_separable, certificate_matches, is_entangled, validate_pure_state,
)
from duoc.systems import SystemSignature, parity_projector, phase_matrix, shift_matrix

NAN = float("nan")


def test_pure_state_spec():
    with pytest.raises(NormalizationError, match="squared norm nan"):
        PureStateSpec(SystemSignature(2, 1, 1), {(0,): NAN})


def test_separable_spec():
    with pytest.raises(NormalizationError, match="sum to nan"):
        SeparableSpec(gamma={(0, 0): NAN})
    with pytest.raises(NormalizationError):
        SeparableSpec(gamma={(0, 0): NAN, (1, 1): 1.0})


@pytest.mark.parametrize("weight", [1j, 1 + 0j, "1"], ids=repr)
def test_separable_spec_refuses_a_weight_that_is_not_real(weight):
    # a complex weight used to leak a raw TypeError from the sign check
    for spec in ({"gamma": {(0, 0): weight}}, {"terms": [(weight, (0,), ANTI)]}):
        with pytest.raises(DomainError, match="^separable weights must be real numbers$"):
            SeparableSpec(**spec)


def test_classical_channel():
    table = np.array([[1.0, NAN], [0.0, 1.0]])
    with pytest.raises(DomainError, match="nonnegative"):
        ClassicalChannel(table, 2, 1, 1)


def test_classical_povm():
    table = np.array([[1.0, NAN], [0.0, 0.5]])
    with pytest.raises(DomainError, match="probability distributions"):
        classical_povm(table, SystemSignature(2, 1, 0))


def test_local_basis():
    with pytest.raises(DomainError, match="orthonormal"):
        LocalBasis(np.array([[NAN, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("angle", [float("inf"), -float("inf"), NAN, 0.3 + 0.1j, 1j, "0.3"],
                         ids=repr)
def test_rotation_angle(angle):
    # inf used to warn "invalid value encountered in cos", a str to leak a raw TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite real"):
            LocalBasis.rotation(angle)


def test_side_effect():
    with pytest.raises(DomainError, match="normalized"):
        side_effect("alice", [NAN, 1.0])


def test_two_copy_state():
    with pytest.raises(NormalizationError):
        two_copy_state([NAN, 1.0], 0)


def test_activation_setup():
    # used to raise NotEntangledError: the NaN coefficient counted as zero
    with pytest.raises(NormalizationError):
        activation_setup([NAN, 1.0])


def test_activation_setup_theta():
    # used to pass: abs(nan - rhs) > atol is false for a NaN theta
    setup = activation_setup([0.6, 0.8])
    with pytest.raises(DomainError, match="defining relation"):
        dataclasses.replace(setup, theta=NAN)


HUGE = [1e200, 1.0, 0.0, 0.0]
SIG11 = SystemSignature(2, 1, 1)


@pytest.mark.parametrize("call", [
    lambda: DensityState.from_vector(SIG11, HUGE),
    lambda: validate_pure_state(HUGE, SIG11),
    lambda: certificate_matches(PureStateSpec(SIG11, {(0,): 1.0}), HUGE),
    lambda: is_entangled(HUGE, SIG11),
], ids=["from_vector", "validate_pure_state", "certificate_matches", "is_entangled"])
def test_huge_vector_entry_refused_without_overflow(call):
    # used to warn "overflow encountered in dot", then report trace 0.0 or raise the warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="modulus 1e[+]200 exceeds 1e[+]150"):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: side_effect("alice", [1e200, 0.0]), "normalized"),
    (lambda: LocalBasis([[1e200, 0.0], [0.0, 1.0]]), "orthonormal"),
], ids=["side_effect", "LocalBasis"])
def test_huge_direction_entry_refused_without_overflow(call, message):
    # used to warn "overflow encountered" in the norm or the Gram matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            call()


ANTI = DensityState(SystemSignature(2, 0, 1), np.diag([1.0, 0.0]))
DIGIT_FIELDS = {
    "parity": lambda g: PureStateSpec(SIG11, {(0,): 1.0}, parity=(g,)),
    "tail": lambda g: PureStateSpec(SystemSignature(2, 2, 1), {(0,): 1.0}, tail=(g,)),
    "coefficient key": lambda g: PureStateSpec(SIG11, {(g,): 1.0}),
    "digits": lambda g: basis_state_spec(SIG11, (0, g)),
    "x_shifts": lambda g: ReversibleSpec(x_shifts=(0, g)),
    "z_phases": lambda g: ReversibleSpec(z_phases=(g, 0)),
    "dit string": lambda g: build_separable(SeparableSpec(terms=[(1.0, (g,), ANTI)]), SIG11),
    "basis labels": lambda g: build_separable(SeparableSpec(gamma={(0, g): 1.0}), SIG11),
    "shift exponent": lambda g: shift_matrix(2, g),
    "phase exponent": lambda g: phase_matrix(2, g),
    "phi_vector": lambda g: phi_vector(2, g, 0),
    "parity_projector": lambda g: parity_projector(2, g),
}
# the name a refusal gives the field, where it is not the key
FIELD_NAMES = {"phi_vector": "labels", "parity_projector": "parity"}


@pytest.mark.parametrize("digit", [0.9, 1.7, 1.0, NAN, float("inf"), "1"], ids=repr)
@pytest.mark.parametrize("field", DIGIT_FIELDS)
def test_non_integer_digit_refused(field, digit):
    # 0.9 and 1.7 used to be truncated (phi_vector and parity_projector raised IndexError), NaN
    # to raise ValueError and inf OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{FIELD_NAMES.get(field, field)} .* must be "
                                              "integers$"):
            DIGIT_FIELDS[field](digit)


@pytest.mark.parametrize("label", [(0,), (0, 0, 0), 0], ids=repr)
def test_gamma_label_of_wrong_length_refused(label):
    # (0,) used to raise a raw ValueError on unpacking
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^basis labels "):
            build_separable(SeparableSpec(gamma={label: 1.0}), SIG11)


def test_fractional_key_and_parity_refused():
    with pytest.raises(DomainError, match="must be integers"):
        PureStateSpec(SystemSignature(2, 1, 1), {(0.9,): 1.0}, parity=(1.7,))


@pytest.mark.parametrize("field", DIGIT_FIELDS)
def test_numpy_integer_digit_accepted(field):
    # the repr shows a numpy integer kept as such, so equal reprs mean plain ints were stored
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repr(DIGIT_FIELDS[field](np.int64(1))) == repr(DIGIT_FIELDS[field](1))


def test_numpy_digits_build_the_same_state():
    spec = PureStateSpec(SIG11, {(np.int8(1),): 1.0}, parity=np.array([1]))
    assert all(type(g) is int for g in (*spec.parity, *next(iter(spec.coeffs))))
    want = PureStateSpec(SIG11, {(1,): 1.0}, parity=(1,))
    assert build_pure_state(spec).tobytes() == build_pure_state(want).tobytes()


@pytest.mark.parametrize("bad", [NAN, float("inf"), complex(0.0, NAN), complex(1.0, -float("inf"))],
                         ids=["nan", "inf", "nan-imag", "inf-imag"])
@pytest.mark.parametrize("first_row", ["monomial", "mixing"])
@pytest.mark.parametrize("dmn", [(2, 1, 1), (2, 5, 5)], ids=["dim4", "dim1024"])
def test_apply_reversible_refuses_non_finite_before_non_monomial(dmn, first_row, bad):
    # at dimension 1024 the entry lies in the last of 16 row blocks, the mixing row in the first
    sig = SystemSignature(*dmn)
    u = np.eye(sig.dim, dtype=complex)
    if first_row == "mixing":
        u[0, :2] = 0.5 ** 0.5
    u[sig.dim - 1, sig.dim // 2] = bad
    with pytest.raises(ShapeError, match="non-finite"):
        apply_reversible(u, DensityState.from_vector(sig, np.eye(sig.dim)[0]))


def test_apply_reversible_reads_an_overflowing_modulus_as_a_defect():
    # a finite entry is not refused as non-finite, though its modulus is inf
    u = np.eye(4, dtype=complex)
    u[3, 3] = complex(1.5e308, 1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"\(defect inf\)"):
            apply_reversible(u, DensityState.from_vector(SIG11, [1.0, 0.0, 0.0, 0.0]))
