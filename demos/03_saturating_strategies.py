"""Find every d = 4 control basis that reaches the success ceiling.

A saturating control state must overlap each unbiased-family state it is
assigned to with squared modulus exactly (sqrt(d) + d - 1) / (d sqrt(d))
= 5/8, so its overlap sum with one state per covered basis is 2.5, the
top Gram eigenvalue of that selection.  The search reads the states off
the top eigenvectors of the selections that reach 2.5, keeps the ones that
hit 5/8 across the board, groups them into orthonormal quadruples, and
certifies that each resulting strategy scores exactly 0.7 = p(4) with a
flat per-outcome sum F = 2.5.
"""

from __future__ import annotations

from kings import (
    bound_p,
    build_strategy,
    complement_strategy,
    construct_mub,
    find_measurement_bases,
    find_signal_states,
    success_exact,
)


def main() -> None:
    family = construct_mub(4)
    signals = find_signal_states(family)
    bases = find_measurement_bases(signals)
    print(f"signal states found: {len(signals)}")
    print(f"orthonormal control bases: {len(bases)}")
    first = tuple(m + 1 for m in bases[0].members)
    print(f"first basis (1-based signal ids): {first}")

    counts: dict[int, int] = {}
    for b in bases:
        for m in b.members:
            counts[m] = counts.get(m, 0) + 1
    assert set(counts.values()) == {4}
    print("every signal state appears in exactly 4 bases")

    strategy = build_strategy(family, 0, 0, bases[0].basis)
    breakdown = success_exact(strategy)
    print(f"\nstrategy success: {breakdown.total:.10f}  (ceiling {bound_p(4):.10f})")
    print("per-outcome sums:", {k: round(v, 10) for k, v in breakdown.per_signal.items()})

    # exchanging the guessed and controlled roles gives the mirror strategy
    mirrored = complement_strategy(strategy)
    print(f"role-exchanged success: {mirrored.success():.10f}")


if __name__ == "__main__":
    main()
