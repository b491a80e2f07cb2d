"""Maximal families of mutually unbiased bases (MUBs).

construct_mub builds the d+1 bases for prime d (Z/X/Y eigenbases for d = 2,
a root-of-unity formula for odd primes) and a hand-entered two-qubit family
for d = 4.  certify_family re-checks orthonormality and unbiasedness from
scratch and reports the worst deviation it finds.  selection_grams gives the
Gram matrix of every pick of one state from each basis but one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import COMPARISON_TOL


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(n**0.5) + 1))


def _is_whole(value: object) -> bool:
    """value is an int or numpy integer; a bool is refused, although True == 1,
    and so is a whole-number float, although 1.0 == 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_index(value: object, indices: range) -> bool:
    """value is a whole number (see _is_whole) in indices: 1.0 is refused,
    although 1.0 in range(2) holds."""
    return _is_whole(value) and value in indices


@dataclass
class OrthonormalBasis:
    """An orthonormal basis of C^d; basis states are the rows of `states`."""

    label: int | None
    states: np.ndarray

    def __post_init__(self) -> None:
        self.states = np.ascontiguousarray(self.states, dtype=complex)
        if self.states.ndim != 2 or self.states.shape[0] != self.states.shape[1]:
            raise ValueError(f"expected a square state matrix, got {self.states.shape}")
        self.states.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @cached_property
    def defect(self) -> float:
        """orthonormality_defect of the states, computed once (they are read-only)."""
        return orthonormality_defect(self.states)

    def state(self, j: int) -> np.ndarray:
        return self.states[j]


def orthonormality_defect(states: np.ndarray) -> float:
    """Largest deviation of the Gram matrix from the identity."""
    gram = states.conj() @ states.T
    return float(np.abs(gram - np.eye(states.shape[0])).max())


@dataclass
class MubFamily:
    """d+1 pairwise unbiased orthonormal bases of C^d, labelled 0..d."""

    dim: int
    bases: tuple[OrthonormalBasis, ...]

    def __post_init__(self) -> None:
        if len(self.bases) != self.dim + 1:
            raise ValueError(
                f"family for dim {self.dim} needs {self.dim + 1} bases, got {len(self.bases)}"
            )

    @cached_property
    def array(self) -> np.ndarray:
        """All states stacked as an array of shape (d+1, d, d)."""
        out = np.stack([b.states for b in self.bases])
        out.setflags(write=False)
        return out

    def state(self, basis: int, j: int) -> np.ndarray:
        return self.bases[basis].states[j]

    @property
    def labels(self) -> range:
        return range(self.dim + 1)


def selection_grams(family: MubFamily, excluded: int = 0) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Gram matrices of every selection of one state per basis other than `excluded`.

    Selection t = (j_0, ..., j_{d-1}) picks state j_m of the m-th covered
    basis; the d^d tuples of Python ints come in lexicographic order, and
    grams[t, m, k] = <pick m | pick k>.  Raises ValueError if `excluded` is
    no basis label or d^d > 5^5 (d >= 7), before any array is built.
    """
    if not _is_index(excluded, family.labels):
        raise ValueError(f"excluded must be a basis label 0..{family.dim}, got {excluded!r}")
    d = family.dim
    if d ** d > 5 ** 5:
        raise ValueError(f"dim {d} has {d ** d} selections, more than the 3125 enumerated")
    tuples = list(itertools.product(range(d), repeat=d))
    comps = np.delete(family.array, excluded, axis=0)[np.arange(d), np.array(tuples)]  # (tuple, m, component)
    return tuples, comps.conj() @ comps.transpose(0, 2, 1)


@dataclass
class CertificationReport:
    """Result of re-deriving the MUB properties of a family."""

    dim: int
    passed: bool
    max_orthonormality_deviation: float
    max_unbiasedness_deviation: float
    worst_orthonormality: tuple[int, int, int]  # (basis, j, j')
    worst_unbiasedness: tuple[int, int, int, int]  # (basis a, i, basis b, j)
    atol: float


# Two-qubit family: each row of four states is the set of joint eigenvectors
# of a commuting pair of two-qubit Pauli products, ordered by eigenvalue
# signature (++, +-, -+, --), with the leading amplitude fixed real positive.
# Operator pairs per basis 0..4: (ZI, IZ), (XI, IX), (YI, IY), (XY, YZ),
# (YX, ZY).
_TWO_QUBIT_QUADS: dict[int, list[tuple[complex, complex, complex, complex]]] = {
    1: [(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)],
    2: [(1, 1j, 1j, -1), (1, -1j, 1j, 1), (1, 1j, -1j, 1), (1, -1j, -1j, -1)],
    3: [(1, -1, 1j, 1j), (1, 1, -1j, 1j), (1, 1, 1j, -1j), (1, -1, -1j, -1j)],
    4: [(1, 1j, -1, 1j), (1, -1j, 1, 1j), (1, 1j, 1, -1j), (1, -1j, -1, -1j)],
}


def two_qubit_observable_pairs() -> list[tuple[np.ndarray, np.ndarray]]:
    """The five commuting two-qubit operator pairs behind the d = 4 family."""
    eye = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    k = np.kron
    return [
        (k(sz, eye), k(eye, sz)),
        (k(sx, eye), k(eye, sx)),
        (k(sy, eye), k(eye, sy)),
        (k(sx, sy), k(sy, sz)),
        (k(sy, sx), k(sz, sy)),
    ]


def _qubit_family() -> list[np.ndarray]:
    s = 1 / np.sqrt(2)
    z = np.eye(2, dtype=complex)
    x = np.array([[s, s], [s, -s]], dtype=complex)
    y = np.array([[s, s * 1j], [s, -s * 1j]])
    return [z, x, y]


def _odd_prime_family(d: int) -> list[np.ndarray]:
    # Basis 0 is computational; component k of state j in basis m (1..d) is
    # omega^(j*k + m*k^2) / sqrt(d) with omega the primitive d-th root of unity.
    j = np.arange(d)[:, None]
    k = np.arange(d)[None, :]
    out = [np.eye(d, dtype=complex)]
    for m in range(1, d + 1):
        phase = (j * k + m * k * k) % d
        out.append(np.exp(2j * np.pi * phase / d) / np.sqrt(d))
    return out


def _two_qubit_family() -> list[np.ndarray]:
    out = [np.eye(4, dtype=complex)]
    for m in range(1, 5):
        out.append(np.array(_TWO_QUBIT_QUADS[m], dtype=complex) / 2)
    return out


def construct_mub(d: int) -> MubFamily:
    """Build the maximal family of d+1 mutually unbiased bases of C^d.

    Supported dimensions: primes and 4, given as an int or numpy integer
    (4.0 and True are refused).  Raises ValueError otherwise.
    """
    if not _is_whole(d) or not (d == 4 or is_prime(d)):
        raise ValueError(f"no construction available for dim {d} (need a prime or 4)")
    mats = _qubit_family() if d == 2 else _two_qubit_family() if d == 4 else _odd_prime_family(d)
    bases = tuple(OrthonormalBasis(label=m, states=mat) for m, mat in enumerate(mats))
    return MubFamily(dim=d, bases=bases)


def certify_family(family: MubFamily, *, atol: float | None = None) -> CertificationReport:
    """Re-check orthonormality and pairwise unbiasedness of a family.

    Passes only if every basis is orthonormal and every cross-basis overlap
    satisfies |<a|b>|^2 = 1/d, both within `atol` (default: the comparison
    tolerance).  Each check is one array expression over every basis or
    basis pair a < b, and its worst entry is the first maximum in (basis,
    row, column) order: ties go to the first location, and a NaN deviation,
    worst of all, is reported with its location and fails the family.
    """
    atol = COMPARISON_TOL if atol is None else atol
    d = family.dim
    states = family.array
    orth = np.abs(states.conj() @ states.transpose(0, 2, 1) - np.eye(d))
    m, i, j = np.unravel_index(np.argmax(orth), orth.shape)
    worst_orth = float(orth[m, i, j])
    worst_orth_at = (family.bases[m].label, int(i), int(j))
    a, b = np.triu_indices(d + 1, 1)
    unb = np.abs(np.abs(states[a].conj() @ states[b].transpose(0, 2, 1)) ** 2 - 1.0 / d)
    p, i, j = np.unravel_index(np.argmax(unb), unb.shape)
    worst_unb = float(unb[p, i, j])
    worst_unb_at = (int(a[p]), int(i), int(b[p]), int(j))
    return CertificationReport(
        dim=d,
        passed=(worst_orth <= atol and worst_unb <= atol),
        max_orthonormality_deviation=worst_orth,
        max_unbiasedness_deviation=worst_unb,
        worst_orthonormality=worst_orth_at,
        worst_unbiasedness=worst_unb_at,
        atol=atol,
    )
