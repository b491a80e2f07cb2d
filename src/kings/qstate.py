"""Finite-dimensional state vectors, Born overlaps and spin-1/2 states.

States are plain complex numpy vectors.  Every helper treats them as
immutable; nothing here mutates its arguments.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import DEFAULT

Array = np.ndarray


def as_state(values: Sequence[complex] | Array, *, atol: float | None = None) -> Array:
    """Coerce to a complex vector and require unit norm."""
    atol = DEFAULT.construction if atol is None else atol
    vec = np.asarray(values, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError(f"state must be a nonempty 1-d vector, got shape {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= atol:  # a NaN norm fails too
        raise ValueError(f"state is not normalized: norm = {norm!r}")
    return vec


def inner(a: Array, b: Array) -> complex:
    """Hermitian inner product <a|b>, conjugate-linear in the first slot."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def born_probability(state: Array, outcome: Array) -> float:
    """Probability |<outcome|state>|^2 of finding `state` in `outcome`.

    Both vectors are expected to be unit norm; only the shapes are checked.
    """
    return abs(inner(outcome, state)) ** 2


def tensor(a: Array, b: Array) -> Array:
    """Tensor (Kronecker) product of two state vectors."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def spin_up_state(direction: Sequence[float] | Array) -> Array:
    """Spin-1/2 "up" eigenstate along a unit Bloch vector.

    Uses the convention (cos(theta/2), e^{i phi} sin(theta/2)) with theta the
    polar and phi the azimuthal angle of the direction.  Raises ValueError for
    a direction that is not unit length.
    """
    n = np.asarray(direction, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {n.shape}")
    norm = float(np.linalg.norm(n))
    if not abs(norm - 1.0) <= DEFAULT.construction:
        raise ValueError(f"direction must be unit length, norm = {norm!r}")
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def same_ray(a: Array, b: Array, *, atol: float | None = None) -> bool:
    """True when two unit vectors agree up to a global phase."""
    atol = DEFAULT.comparison if atol is None else atol
    return abs(abs(inner(a, b)) - 1.0) <= atol

