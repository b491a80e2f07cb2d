"""Monte Carlo cross-check of every exact success value.

Simulates all four game modes, and the d = 4 optimum with its preparation
and control bases exchanged, with the seeded referee, which draws 2**20
rounds per chunk and samples them in place, in cache-sized blocks of 2**14,
and compares the estimates against the closed-form values.  Pass a trial
count to tighten the error bars: `python3 demos/06_monte_carlo_check.py 1000000`.
"""

from __future__ import annotations

import sys

from kings import (GameConfig, complement_strategy, conventional_cube_value, run, success_exact,
                   vaa_success_exact)
from kings.presets import (
    cube_conventional_strategy,
    cube_vaa_strategy,
    d2_optimal_strategy,
    d4_optimal_strategy,
)


def main() -> None:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
    seed = 7

    d4, d2 = d4_optimal_strategy(), d2_optimal_strategy()
    vaa = cube_vaa_strategy()
    conv = cube_conventional_strategy()
    mirrored = complement_strategy(d4)
    cases = [
        ("mub d=4", d4, success_exact(d4).total),
        ("mub d=2", d2, success_exact(d2).total),
        ("cube entangled", vaa, vaa_success_exact(vaa.setup)),
        ("cube ancilla-free", conv, conventional_cube_value(conv.setup, conv.direction)),
        ("mub d=4 exchanged", mirrored, mirrored.success()),
    ]

    print(f"{trials} trials per mode, seed {seed}\n")
    print(f"{'mode':<18} {'estimate':>10} {'exact':>10} {'z':>6}")
    for name, strategy, exact in cases:
        result = run(GameConfig(strategy=strategy, trials=trials, seed=seed))
        z = (result.estimate - exact) / result.stderr
        print(f"{name:<18} {result.estimate:>10.6f} {exact:>10.6f} {z:>6.2f}")


if __name__ == "__main__":
    main()
