"""Composite system bookkeeping.

A composite holds ``m`` classical dits followed by ``n`` anti-dits, all
of local dimension ``d``.  Factor positions are numbered ``0..m+n-1`` in
that canonical order; position ``t < m`` is the dit ``D[t]`` and position
``m + i`` is the anti-dit ``A[i]``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

MAX_COMPOSITE_DIM = 4096


@dataclass(frozen=True)
class SystemSignature:
    """Shape of a composite: local dimension ``d``, ``m`` dits, ``n`` anti-dits."""

    d: int
    m: int
    n: int

    def __post_init__(self):
        d, m, n = self.d, self.m, self.n
        # plain ints, by far the most common fields, skip the operator.index round trip
        if not (type(d) is int and type(m) is int and type(n) is int):
            try:
                for name in "dmn":
                    object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise DomainError(f"d, m, n must be integers: {(d, m, n)}") from None
            d, m, n = self.d, self.m, self.n
        if d < 2:
            raise DomainError(f"local dimension must be >= 2, got {d}")
        if m < 0 or n < 0 or m + n == 0:
            raise DomainError(f"need m, n >= 0 with m + n >= 1, got ({m}, {n})")
        if d ** (m + n) > MAX_COMPOSITE_DIM:
            raise DomainError(f"composite dimension {d ** (m + n)} exceeds cap {MAX_COMPOSITE_DIM}")

    @property
    def num_factors(self) -> int:
        return self.m + self.n

    @property
    def dim(self) -> int:
        return self.d ** (self.m + self.n)

    @property
    def dims(self) -> tuple:
        return (self.d,) * (self.m + self.n)

    @property
    def kinds(self) -> tuple:
        """Per-factor kind string, 'D' for dits then 'A' for anti-dits."""
        return ("D",) * self.m + ("A",) * self.n

    @property
    def num_pairs(self) -> int:
        return min(self.m, self.n)

    def is_classical(self) -> bool:
        return self.n == 0

    def is_anticlassical(self) -> bool:
        return self.m == 0

    def sub_signature(self, positions) -> "SystemSignature":
        """Signature of the sub-composite at the given factor positions."""
        positions = as_integers(positions)
        if len(set(positions)) != len(positions) or any(
            p < 0 or p >= self.num_factors for p in positions
        ):
            raise DomainError(f"positions {positions} invalid for {self.num_factors} factors")
        if not positions:
            raise DomainError("sub-composite needs at least one factor")
        kinds = [self.kinds[p] for p in positions]
        return SystemSignature(self.d, kinds.count("D"), kinds.count("A"))


@dataclass(frozen=True)
class FactorPermutation:
    """Kind-preserving relabeling of factors.

    ``sigma[t]`` is the destination of dit ``t`` among the dits, and
    ``tau[i]`` the destination of anti-dit ``i`` among the anti-dits.
    Composition follows function order: ``p2.compose(p1)`` applies
    ``p1`` first.
    """

    sigma: tuple
    tau: tuple

    def __post_init__(self):
        object.__setattr__(self, "sigma", as_integers(self.sigma))
        object.__setattr__(self, "tau", as_integers(self.tau))
        for name, perm in (("sigma", self.sigma), ("tau", self.tau)):
            if sorted(perm) != list(range(len(perm))):
                raise DomainError(f"{name}={perm} is not a permutation")

    @classmethod
    @functools.lru_cache(maxsize=None)
    def identity(cls, m: int, n: int) -> "FactorPermutation":
        """The identity on ``(m, n)``: one shared frozen instance per shape (few exist)."""
        return cls(tuple(range(m)), tuple(range(n)))

    def is_identity(self) -> bool:
        return self.sigma == tuple(range(len(self.sigma))) and self.tau == tuple(
            range(len(self.tau))
        )

    def compose(self, other: "FactorPermutation") -> "FactorPermutation":
        """Permutation equal to ``other`` followed by ``self``."""
        if len(self.sigma) != len(other.sigma) or len(self.tau) != len(other.tau):
            raise DomainError("cannot compose permutations of different shapes")
        sigma = tuple(self.sigma[other.sigma[t]] for t in range(len(self.sigma)))
        tau = tuple(self.tau[other.tau[i]] for i in range(len(self.tau)))
        return FactorPermutation(sigma, tau)

    def inverse(self) -> "FactorPermutation":
        sigma = tuple(int(x) for x in np.argsort(self.sigma))
        tau = tuple(int(x) for x in np.argsort(self.tau))
        return FactorPermutation(sigma, tau)

    def destinations(self, m: int, n: int) -> tuple:
        """Flat destination list over all ``m + n`` factors."""
        if len(self.sigma) != m or len(self.tau) != n:
            raise DomainError(
                f"permutation shape ({len(self.sigma)}, {len(self.tau)}) != ({m}, {n})"
            )
        return tuple(self.sigma) + tuple(m + i for i in self.tau)


@dataclass(frozen=True, eq=False)
class IndexTable:
    """Digit bookkeeping of one signature, derived once by :func:`index_table`.

    ``place[t]`` is the place value ``d ** (m + n - 1 - t)`` of factor
    position ``t``.  ``key[i]`` codes basis index ``i``'s pair parities
    ``(anti_j - dit_j) % d`` followed by its unpaired digits as one base-``d``
    integer of ``max(m, n)`` digits, most significant first.  A cell depends
    only on which dit pairs with which anti-dit: ``relabelings`` holds, per
    pairing, its first kind-preserving :class:`FactorPermutation` in
    sigma-outer, tau-inner lexicographic order, and ``gather[k]`` reads a
    vector in the layout before relabeling ``k``: if ``v`` is ``u``
    relabeled by ``k``, then ``v[gather[k]] == u``.
    """

    sig: SystemSignature
    place: tuple
    key: np.ndarray
    relabelings: tuple
    gather: np.ndarray

    def split_key(self, code) -> tuple:
        """``(parity, tail)`` read off a key code."""
        digits = index_to_digits(int(code), self.sig.d, max(self.sig.m, self.sig.n))
        return digits[: self.sig.num_pairs], digits[self.sig.num_pairs :]


@functools.lru_cache(maxsize=None)
def index_table(sig: SystemSignature) -> IndexTable:
    """The :class:`IndexTable` of ``sig``: one shared object per signature.

    ``gather`` holds ``max(m, n)! / |m - n|!`` rows of ``int16`` (the cap fits), one per pairing:
    at most 2520 x 4096 (20.6 MB, on (2, 5, 7) and (2, 7, 5)).
    """
    d, m, n, p = sig.d, sig.m, sig.n, sig.num_pairs
    place = tuple(d ** (m + n - 1 - t) for t in range(m + n))
    digits = np.indices(sig.dims).reshape(m + n, -1)
    key_digits = np.vstack([(digits[m : m + p] - digits[:p]) % d,
                            digits[p:m] if m > n else digits[m + p :]])
    key = d ** np.arange(max(m, n) - 1, -1, -1) @ key_digits
    if m <= n:  # dit t pairs with anti-dit tau[t]; the unpaired anti-dits keep their order
        relabelings = tuple(
            FactorPermutation(range(m), head + tuple(i for i in range(n) if i not in head))
            for head in itertools.permutations(range(n), m))
    else:  # anti-dit i pairs with dit sigma[i]; the paired dits ascend, then the unpaired ones
        relabelings = tuple(
            FactorPermutation(head + tuple(t for t in range(m) if t not in head), tau)
            for head in itertools.combinations(range(m), n)
            for tau in itertools.permutations(range(n)))
    cube = np.arange(sig.dim, dtype=np.int16).reshape(sig.dims)
    gather = np.stack([cube.transpose(perm.destinations(m, n)).reshape(-1)
                       for perm in relabelings])
    return IndexTable(sig, place, key, relabelings, gather)


def admissible_differences(sig: SystemSignature) -> np.ndarray:
    """``(dim,)`` booleans over digit differences ``delta``, each coded as a basis index: whether
    some cell holds two basis indices ``i`` and ``j`` whose digits differ by ``delta`` (mod ``d``).

    That holds exactly when, for each ``t`` in ``1..d-1``, as many dits as anti-dits have
    difference ``t``: a pair keeps its parity when its two differences agree, and an unpaired
    factor must not change.
    """
    code, table = _difference_codes(sig)
    return table[code]


def cover_entries(sig: SystemSignature, rows, cols) -> np.ndarray:
    """``(len(rows), len(cols))`` booleans for index arrays (or slices) ``rows`` and ``cols``:
    whether basis indices ``i`` and ``j`` share some cell, that is whether their digit difference
    is admissible (:func:`admissible_differences`); one gather from :func:`_difference_codes`."""
    code, table = _difference_codes(sig)
    return table[code[cols] - code[rows, None]]


@functools.lru_cache(maxsize=None)
def _difference_codes(sig: SystemSignature) -> tuple:
    """``(code, table)``.  ``code[i]`` reads basis index ``i``'s digits in base ``2d - 1``, so
    ``code[j] - code[i]`` keeps each digit difference ``j_t - i_t`` (in ``-(d-1)..d-1``) in its
    own place, and ``table`` at that code (a negative one read from its end) says whether those
    differences are admissible (:func:`admissible_differences`).  ``table`` holds
    ``(2d - 1) ** (m + n)`` booleans, at most ``3 ** 12`` (0.5 MB) up to the cap."""
    d, k = sig.d, sig.num_factors

    def outer_sum(per_factor):  # entry (x_0, .., x_k-1), flattened, is sum_f per_factor[f][x_f]
        return functools.reduce(np.add.outer, per_factor).reshape(-1)

    code = outer_sum([np.arange(d) * (2 * d - 1) ** t for t in range(k - 1, -1, -1)])
    moved = (np.arange(2 * d - 1) - (d - 1)) % d  # each place's code digit, as a difference mod d
    table = np.ones((2 * d - 1) ** k, dtype=bool)
    for t in range(1, d):  # as many dits (+1) as anti-dits (-1) move by t
        table &= outer_sum([np.int8(1 - 2 * (f >= sig.m)) * (moved == t) for f in range(k)]) == 0
    return code, np.roll(table, -(len(table) // 2))


def as_integers(values, what: str = "factor positions") -> tuple:
    """``values`` as ints, once each is checked to be an integer (numpy integers too); else a
    :class:`DomainError` that names them ``what``."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise DomainError(f"{what} {values!r} must be integers") from None


def as_parity(r, d: int) -> int:
    """``r`` as an int, once checked to be an integer (numpy integers too) in ``0..d-1``."""
    (r,) = as_integers((r,), "parity")
    if not 0 <= r < d:
        raise DomainError(f"parity {r} out of range for d={d}")
    return r


def index_to_digits(index: int, d: int, width: int) -> tuple:
    """Base-``d`` digits of ``index``, most significant first."""
    if index < 0 or index >= d**width:
        raise DomainError(f"index {index} out of range for {width} base-{d} digits")
    digits = []
    for _ in range(width):
        digits.append(index % d)
        index //= d
    return tuple(reversed(digits))


def digits_to_index(digits, d: int) -> int:
    idx = 0
    for g in digits:
        g = int(g)
        if g < 0 or g >= d:
            raise DomainError(f"digit {g} out of range for base {d}")
        idx = idx * d + g
    return idx


def parity_projector(d: int, k: int) -> np.ndarray:
    """Projector onto the parity-``k`` sector of one dit/anti-dit pair.

    The sector is spanned by ``|i>|i + k mod d>`` for ``i = 0..d-1``.
    """
    k = as_parity(k, d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        idx = i * d + (i + k) % d
        out[idx, idx] = 1.0
    return out


def shift_matrix(d: int, j: int) -> np.ndarray:
    """Cyclic shift ``X^j`` on one factor: ``|s> -> |s + j mod d>``."""
    (j,) = as_integers((j,), "shift exponent")
    j %= d
    out = np.zeros((d, d), dtype=complex)
    for s in range(d):
        out[(s + j) % d, s] = 1.0
    return out


def phase_matrix(d: int, j: int) -> np.ndarray:
    """Diagonal phase ``Z^j`` on one factor: ``|s> -> omega^(s + j mod d) |s>``.

    The offset ``j`` only contributes a relabeling of the global phase;
    observable consequences depend on phase differences alone.
    """
    (j,) = as_integers((j,), "phase exponent")
    j %= d
    omega = np.exp(2j * np.pi / d)
    return np.diag([omega ** ((s + j) % d) for s in range(d)])
