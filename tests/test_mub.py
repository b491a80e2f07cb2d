"""Unbiased-family construction and certification.

The d = 4 family is pinned two ways: certification from scratch, and an
independent joint-eigenvector check against the commuting operator pairs
that define each basis.
"""

import numpy as np
import pytest

from kings.mub import (
    MubFamily,
    OrthonormalBasis,
    certify_family,
    construct_mub,
    is_prime,
    orthonormality_defect,
    two_qubit_observable_pairs,
)

SUPPORTED = (2, 3, 4, 5, 7, 11, 13)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


@pytest.mark.parametrize("d", SUPPORTED)
def test_certification_passes(d):
    report = certify_family(construct_mub(d), atol=1e-10)
    assert report.passed
    assert report.max_orthonormality_deviation <= 1e-10
    assert report.max_unbiasedness_deviation <= 1e-10


@pytest.mark.parametrize("d", SUPPORTED)
def test_family_shape_and_immutability(d):
    family = construct_mub(d)
    assert family.array.shape == (d + 1, d, d)
    assert not family.array.flags.writeable
    assert not family.bases[0].states.flags.writeable
    assert list(family.labels) == list(range(d + 1))
    assert [b.label for b in family.bases] == list(range(d + 1))


def test_qubit_family_is_pauli_eigenbases():
    family = construct_mub(2)
    s = 1 / np.sqrt(2)
    assert np.allclose(family.bases[0].states, np.eye(2))
    assert np.allclose(family.bases[1].states, [[s, s], [s, -s]])
    assert np.allclose(family.bases[2].states, [[s, 1j * s], [s, -1j * s]])


def test_odd_prime_components_match_root_of_unity_formula():
    d = 3
    family = construct_mub(d)
    omega = np.exp(2j * np.pi / d)
    for m in range(1, d + 1):
        for j in range(d):
            expected = np.array([omega ** ((j * k + m * k * k) % d) for k in range(d)])
            assert np.allclose(family.state(m, j), expected / np.sqrt(d), atol=1e-12)


def test_two_qubit_family_joint_eigenvectors():
    """Each d=4 basis is the joint eigenbasis of its commuting operator pair,
    rows ordered by eigenvalue signature (++, +-, -+, --)."""
    family = construct_mub(4)
    pairs = two_qubit_observable_pairs()
    signatures = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for m, (op_a, op_b) in enumerate(pairs):
        assert np.allclose(op_a @ op_b, op_b @ op_a, atol=1e-12)
        for j, (sa, sb) in enumerate(signatures):
            psi = family.state(m, j)
            assert np.allclose(op_a @ psi, sa * psi, atol=1e-12), (m, j)
            assert np.allclose(op_b @ psi, sb * psi, atol=1e-12), (m, j)


def test_two_qubit_leading_amplitude_fixed():
    family = construct_mub(4)
    for m in range(1, 5):
        lead = family.bases[m].states[:, 0]
        assert np.allclose(lead, 0.5), f"basis {m} leading amplitudes {lead}"


@pytest.mark.parametrize("d", (4, 5))
def test_unbiasedness_exhaustive(d):
    family = construct_mub(d)
    for a in range(d + 1):
        for b in range(a + 1, d + 1):
            for i in range(d):
                for j in range(d):
                    p = abs(np.vdot(family.state(a, i), family.state(b, j))) ** 2
                    assert p == pytest.approx(1.0 / d, abs=1e-12)


def test_corrupted_entry_is_located():
    family = construct_mub(4)
    states = family.bases[2].states.copy()
    states[1, 3] = -states[1, 3]  # sign flip
    broken = MubFamily(
        dim=4,
        bases=tuple(
            OrthonormalBasis(label=m, states=states if m == 2 else b.states)
            for m, b in enumerate(family.bases)
        ),
    )
    report = certify_family(broken, atol=1e-10)
    assert not report.passed
    assert report.max_unbiasedness_deviation > 1e-3
    # the worst unbiasedness deviation involves the tampered basis and state
    a, i, b, j = report.worst_unbiasedness
    assert (a == 2 and i == 1) or (b == 2 and j == 1)


def test_certification_fails_on_a_nan_entry():
    family = construct_mub(2)
    states = family.bases[1].states.copy()
    states[0, 1] = np.nan
    broken = MubFamily(
        dim=2,
        bases=tuple(
            OrthonormalBasis(label=m, states=states if m == 1 else b.states)
            for m, b in enumerate(family.bases)
        ),
    )
    report = certify_family(broken)
    assert not report.passed
    assert np.isnan(report.max_orthonormality_deviation)
    assert np.isnan(report.max_unbiasedness_deviation)
    assert report.worst_orthonormality[0] == 1


def test_orthonormality_defect():
    assert orthonormality_defect(np.eye(3, dtype=complex)) == 0.0
    skew = np.array([[1, 0], [0.1, 1]], dtype=complex)
    assert orthonormality_defect(skew) > 0.09
    assert OrthonormalBasis(label=None, states=skew).defect == orthonormality_defect(skew)


@pytest.mark.parametrize("d", (1, 6, 9, 10, 12, 4.0, 3.0))
def test_unsupported_dimensions_raise(d):
    with pytest.raises(ValueError):
        construct_mub(d)


def test_family_requires_all_bases():
    family = construct_mub(3)
    with pytest.raises(ValueError):
        MubFamily(dim=3, bases=family.bases[:3])


def test_basis_requires_square_matrix():
    with pytest.raises(ValueError):
        OrthonormalBasis(label=0, states=np.ones((2, 3)))
