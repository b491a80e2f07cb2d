"""The qubit variant on the four cube diagonals.

The king measures spin along one of the four body diagonals of a cube.
With a shared entangled pair, measuring the pair in the basis of
collapsed two-qubit states and reading off the likelier sign per
diagonal succeeds with probability (2 + sqrt(3))/4 ~ 0.933.  Without the
pair, the best the physicist can do is prepare spin-up along diagonal 1,
measure along one cleverly tilted direction, and follow a fixed sign
rule: (15 + sqrt(33))/24 ~ 0.864, still clear of the 3/4 guessing
baseline.
"""

from __future__ import annotations

import numpy as np

from kings import (
    collapse_row_labels,
    conventional_baseline,
    conventional_cube_optimize,
    make_cube_setup,
    vaa_overlap_table,
    vaa_prediction_table,
    vaa_success_exact,
)


def main() -> None:
    setup = make_cube_setup()

    print("overlap table: collapsed state vs control outcome")
    table = vaa_overlap_table(setup)
    labels = collapse_row_labels()
    header = "          " + "".join(f"  chi{k+1:>4}" for k in range(4))
    print(header)
    for label, row in zip(labels, table):
        cells = "".join(f"  {v:8.4f}" for v in row)
        print(f"{label:>10}{cells}")

    pred = vaa_prediction_table(setup)
    print("\nprediction rule (sign guessed for diagonal a on outcome chi_k):")
    for k in range(4):
        signs = "  ".join(f"{pred[k, a]:+d}" for a in range(4))
        print(f"  chi{k+1}:  {signs}")
    print(f"\nentangled-pair success: {vaa_success_exact(setup):.6f}")

    best = conventional_cube_optimize(setup)
    print(f"\nancilla-free optimum: {best.value:.9f}")
    print(f"  control direction: {np.round(best.direction, 6)}")
    print(f"  angle to diagonal 1: {best.angle_to_first_diagonal_deg:.3f} deg")
    print(f"  co-optimal axes found: {len(best.co_optima)}")
    if best.great_circle is not None:
        print(f"  lies on the great circle through diagonals 1 and {best.great_circle + 1}")
    print(f"  sign rule: { {a + 1: s for a, s in best.rule.items()} }")
    print(f"  guessing baseline: {conventional_baseline(setup):.4f}")


if __name__ == "__main__":
    main()
