"""A NaN fails every admission check: it compares false with any tolerance.

Each constructor writes its check as ``not x <= tol``, so a NaN weight,
amplitude or table entry raises the module's ``DomainError`` (or its
``NormalizationError`` subclass) instead of passing ``x > tol``.
"""

import numpy as np
import pytest

from duoc.dynamics import ClassicalChannel
from duoc.effects import classical_povm
from duoc.errors import DomainError, NormalizationError
from duoc.nonlocality import LocalBasis, activation_setup, side_effect, two_copy_state
from duoc.states import PureStateSpec, SeparableSpec
from duoc.systems import SystemSignature

NAN = float("nan")


def test_pure_state_spec():
    with pytest.raises(NormalizationError, match="squared norm nan"):
        PureStateSpec(SystemSignature(2, 1, 1), {(0,): NAN})


def test_separable_spec():
    with pytest.raises(NormalizationError, match="sum to nan"):
        SeparableSpec(gamma={(0, 0): NAN})
    with pytest.raises(NormalizationError):
        SeparableSpec(gamma={(0, 0): NAN, (1, 1): 1.0})


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
