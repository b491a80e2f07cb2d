"""Published reference values used by the verification suite.

Everything here is an expected value the library must reproduce, kept apart
from the code that computes things so cross-checks stay independent.
"""

from __future__ import annotations

# Conventional success bound by dimension, to the 4 decimals of the published
# summary table.
SUCCESS_BOUND_TABLE: dict[int, float] = {
    2: 0.9024,
    3: 0.7887,
    4: 0.7000,
    5: 0.6315,
    8: 0.4972,
    9: 0.4667,
}

# The 32 equal-overlap signal states in d = 4, in canonical
# (lexicographic) order: 1-based constituent indices into bases 1..4 followed
# by the three phases.  "i" abbreviates the imaginary unit.
_P = {"1": 1, "-1": -1, "i": 1j, "-i": -1j}

SIGNAL_CATALOG: list[tuple[int, int, int, int, complex, complex, complex]] = [
    (i, j, k, l, _P[b], _P[c], _P[d])
    for (i, j, k, l, b, c, d) in [
        (1, 1, 1, 1, "-i", "-i", "-i"),
        (1, 1, 2, 2, "-i", "1", "1"),
        (1, 2, 3, 1, "1", "1", "-i"),
        (1, 2, 4, 2, "1", "i", "1"),
        (1, 3, 1, 3, "1", "-i", "1"),
        (1, 3, 2, 4, "1", "1", "i"),
        (1, 4, 3, 3, "i", "1", "1"),
        (1, 4, 4, 4, "i", "i", "i"),
        (2, 1, 1, 4, "1", "1", "-i"),
        (2, 1, 2, 3, "1", "i", "1"),
        (2, 2, 3, 4, "-i", "-i", "-i"),
        (2, 2, 4, 3, "-i", "1", "1"),
        (2, 3, 1, 2, "i", "1", "1"),
        (2, 3, 2, 1, "i", "i", "i"),
        (2, 4, 3, 2, "1", "-i", "1"),
        (2, 4, 4, 1, "1", "1", "i"),
        (3, 1, 3, 2, "1", "1", "i"),
        (3, 1, 4, 1, "1", "-i", "1"),
        (3, 2, 1, 2, "i", "i", "i"),
        (3, 2, 2, 1, "i", "1", "1"),
        (3, 3, 3, 4, "-i", "1", "1"),
        (3, 3, 4, 3, "-i", "-i", "-i"),
        (3, 4, 1, 4, "1", "i", "1"),
        (3, 4, 2, 3, "1", "1", "-i"),
        (4, 1, 3, 3, "i", "i", "i"),
        (4, 1, 4, 4, "i", "1", "1"),
        (4, 2, 1, 3, "1", "1", "i"),
        (4, 2, 2, 4, "1", "-i", "1"),
        (4, 3, 3, 1, "1", "i", "1"),
        (4, 3, 4, 2, "1", "1", "-i"),
        (4, 4, 1, 1, "-i", "1", "1"),
        (4, 4, 2, 2, "-i", "-i", "-i"),
    ]
]

# The 32 orthonormal quadruples those states form (1-based state numbers in
# canonical order), in lexicographic order.
BASIS_CATALOG: list[tuple[int, int, int, int]] = [
    (1, 11, 22, 32), (1, 11, 24, 30), (1, 12, 21, 32), (1, 15, 22, 28),
    (2, 11, 22, 31), (2, 12, 21, 31), (2, 12, 23, 29), (2, 16, 21, 27),
    (3, 9, 22, 32), (3, 9, 24, 30), (3, 10, 23, 30), (3, 13, 24, 26),
    (4, 9, 24, 29), (4, 10, 21, 31), (4, 10, 23, 29), (4, 14, 23, 25),
    (5, 11, 18, 32), (5, 15, 18, 28), (5, 15, 20, 26), (5, 16, 17, 28),
    (6, 12, 17, 31), (6, 15, 18, 27), (6, 16, 17, 27), (6, 16, 19, 25),
    (7, 9, 20, 30), (7, 13, 18, 28), (7, 13, 20, 26), (7, 14, 19, 26),
    (8, 10, 19, 29), (8, 13, 20, 25), (8, 14, 17, 27), (8, 14, 19, 25),
]

# VAA overlap table to the printed 3 significant figures: rows are the eight
# collapsed joint states in (+1, -1) pairs per diagonal, columns the four VAA
# states.
VAA_OVERLAP_REFERENCE: list[list[float]] = [
    [0.311, 0.311, 0.311, 0.0669],
    [0.0223, 0.0223, 0.0223, 0.933],
    [0.0223, 0.933, 0.0223, 0.0223],
    [0.311, 0.0669, 0.311, 0.311],
    [0.311, 0.311, 0.0669, 0.311],
    [0.0223, 0.0223, 0.933, 0.0223],
    [0.933, 0.0223, 0.0223, 0.0223],
    [0.0669, 0.311, 0.311, 0.311],
]

# Regression constants measured once and frozen.  Worst-case (smallest over the
# 27 index tuples) max overlap deviation in the d = 3 no-go sweep, the exact
# minimum on the 0.5 degree phase lattice found by search.lattice_deviations:
D3_WORST_MIN_DEVIATION = 0.011647389770
# Best overlap sum a single d = 3 vector can collect across the three
# non-computational bases, strictly below 3 * overlap_target(3); exact, the
# largest top Gram eigenvalue over the 27 selections (bounds.relaxed_f_max):
D3_RELAXED_MAX = 2.1371580426
