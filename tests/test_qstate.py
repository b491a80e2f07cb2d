"""State-vector helpers: tensor products, spin states, JSON codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kings.qstate import spin_up_state, tensor
from kings.serialize import complex_from_json, complex_to_json, state_from_json, state_to_json


def test_tensor_matches_kron():
    a = np.array([1, 1j]) / np.sqrt(2)
    b = np.array([0.6, 0.8], dtype=complex)
    assert np.allclose(tensor(a, b), np.kron(a, b))
    assert abs(np.linalg.norm(tensor(a, b)) - 1) < 1e-12


def test_spin_up_poles():
    assert np.allclose(spin_up_state(np.array([0, 0, 1.0])), [1, 0])
    down = spin_up_state(np.array([0, 0, -1.0]))
    assert abs(abs(down[1]) - 1) < 1e-12 and abs(down[0]) < 1e-12


def test_spin_up_is_pauli_eigenvector():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        op = n[0] * sx + n[1] * sy + n[2] * sz
        psi = spin_up_state(n)
        assert np.allclose(op @ psi, psi, atol=1e-12)


def test_spin_up_rejects_non_unit():
    with pytest.raises(ValueError):
        spin_up_state(np.array([0, 0, 2.0]))


def test_spin_up_rejects_a_nan_direction():
    with pytest.raises(ValueError, match="unit length"):
        spin_up_state([np.nan, 0, 1])


def test_complex_json_schema():
    assert complex_to_json(1.5 - 2j) == {"re": 1.5, "im": -2.0}
    assert complex_from_json({"re": 1.5, "im": -2.0}) == 1.5 - 2j


def test_state_json_round_trip():
    v = np.array([0.6, 0.48j, -0.64]) / 1.0
    back = state_from_json(state_to_json(v))
    assert np.array_equal(back, v.astype(complex))


@settings(max_examples=60)
@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=6))
def test_state_json_round_trip_property(values):
    v = np.array(values, dtype=complex)
    assert np.array_equal(state_from_json(state_to_json(v)), v)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_born_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(g)
    state = q[:, 0]
    total = sum(abs(np.vdot(q[:, k], state)) ** 2 for k in range(3))
    assert total == pytest.approx(1.0, abs=1e-12)
