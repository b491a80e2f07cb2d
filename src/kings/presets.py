"""Ready-made strategies: the known optima in d = 2, d = 4 and the cube game."""

from __future__ import annotations

import numpy as np

from .cube import (CubeConventionalStrategy, CubeVaaStrategy, conventional_cube_optimize,
                   make_cube_setup)
from .mub import OrthonormalBasis, construct_mub
from .qstate import spin_up_state
from .search import find_measurement_bases, find_signal_states
from .strategy import ConventionalStrategy, build_strategy


def d2_optimal_strategy() -> ConventionalStrategy:
    """Qubit optimum: control basis midway between the x and y eigenbases."""
    family = construct_mub(2)
    n = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    control = OrthonormalBasis(
        label=None,
        states=np.array([spin_up_state(n), spin_up_state(-n)]),
    )
    return build_strategy(family, prep_basis=0, prep_index=0, control=control)


def d4_optimal_strategy() -> ConventionalStrategy:
    """Two-qubit optimum: first orthonormal quadruple of signal states."""
    family = construct_mub(4)
    signals = find_signal_states(family)
    bases = find_measurement_bases(signals)
    return build_strategy(family, prep_basis=0, prep_index=0, control=bases[0].basis)


def cube_vaa_strategy() -> CubeVaaStrategy:
    return CubeVaaStrategy(setup=make_cube_setup())


def cube_conventional_strategy() -> CubeConventionalStrategy:
    """Optimal ancilla-free cube protocol (exact axis, frozen)."""
    setup = make_cube_setup()
    result = conventional_cube_optimize(setup)
    return CubeConventionalStrategy(setup=setup, direction=result.direction)
