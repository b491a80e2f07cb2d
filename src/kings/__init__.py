"""Retrodicting measurement outcomes across mutually unbiased bases.

The library builds unbiased basis families, evaluates and optimizes the
conventional retrodiction strategies, reproduces the exact success ceilings
of that class and the d=4 strategies that reach them, certifies that no
analogous d=3 strategy exists, and covers the cube-diagonal qubit variant
with both its entangled-pair protocol and its best ancilla-free one.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    RelaxedMaximum,
    bound_p,
    bound_report,
    control_bound,
    guess_bound,
    overlap_target,
    relaxed_f_max,
    total_bound,
)
from .cube import (
    CubeConventionalResult,
    CubeConventionalStrategy,
    CubeGameSetup,
    CubeVaaStrategy,
    collapse_row_labels,
    conventional_baseline,
    conventional_cube_optimize,
    conventional_cube_rule,
    conventional_cube_value,
    king_collapse,
    make_cube_setup,
    vaa_overlap_table,
    vaa_prediction_table,
    vaa_success_exact,
    verify_bell_decompositions,
    wrong_prediction_mass,
)
from .game import GameConfig, GameResult, run
from .mub import (
    CertificationReport,
    MubFamily,
    OrthonormalBasis,
    certify_family,
    construct_mub,
    is_prime,
    orthonormality_defect,
    two_qubit_observable_pairs,
)
from .qstate import spin_up_state, tensor
from .search import (
    ImpossibilityReport,
    MeasurementBasis,
    SignalState,
    TupleDeviation,
    certify_d3_impossible,
    certify_optimal_strategy,
    find_measurement_bases,
    find_signal_states,
    lattice_deviations,
    signal_candidate,
)
from .strategy import (
    AssignmentMap,
    ConventionalStrategy,
    GameTables,
    SuccessBreakdown,
    assign_greedy,
    build_strategy,
    complement_strategy,
    overlap_matrix,
    random_control_basis,
    random_strategy,
    repair_well_conditioned,
    success_exact,
    success_exact_general,
)
from .verify import ACCEPTANCE_SEED, CriterionResult, run_all

__all__ = [
    "__version__",
    # bounds
    "BoundReport", "RelaxedMaximum", "bound_p", "bound_report", "control_bound",
    "guess_bound", "overlap_target", "relaxed_f_max", "total_bound",
    # cube
    "CubeConventionalResult", "CubeConventionalStrategy", "CubeGameSetup", "CubeVaaStrategy",
    "collapse_row_labels", "conventional_baseline", "conventional_cube_optimize",
    "conventional_cube_rule", "conventional_cube_value", "king_collapse",
    "make_cube_setup", "vaa_overlap_table", "vaa_prediction_table",
    "vaa_success_exact", "verify_bell_decompositions", "wrong_prediction_mass",
    # game
    "GameConfig", "GameResult", "run",
    # mub
    "CertificationReport", "MubFamily", "OrthonormalBasis", "certify_family",
    "construct_mub", "is_prime", "orthonormality_defect", "two_qubit_observable_pairs",
    # qstate
    "spin_up_state", "tensor",
    # search
    "ImpossibilityReport", "MeasurementBasis", "SignalState", "TupleDeviation",
    "certify_d3_impossible", "certify_optimal_strategy", "find_measurement_bases",
    "find_signal_states", "lattice_deviations", "signal_candidate",
    # strategy
    "AssignmentMap", "ConventionalStrategy", "GameTables", "SuccessBreakdown",
    "assign_greedy", "build_strategy", "complement_strategy", "overlap_matrix",
    "random_control_basis", "random_strategy", "repair_well_conditioned",
    "success_exact", "success_exact_general",
    # verify
    "ACCEPTANCE_SEED", "CriterionResult", "run_all",
]
