"""Tensor products of state vectors and spin-1/2 states.

States are plain complex numpy vectors.  Every helper treats them as
immutable; nothing here mutates its arguments.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import CONSTRUCTION_TOL

Array = np.ndarray


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
    if not abs(norm - 1.0) <= CONSTRUCTION_TOL:
        raise ValueError(f"direction must be unit length, norm = {norm!r}")
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
