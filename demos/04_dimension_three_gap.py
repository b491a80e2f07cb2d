"""Why dimension three has no ceiling-reaching strategy.

At d = 3 the analogue of the d = 4 scan comes up empty: no control state
can sit at the target squared overlap with one state from each basis,
even with completely free phases.  The certificate below finds a closest
approach of about 0.0116 on a phase grid across all 27 index tuples and,
after subtracting a Lipschitz slack, proves a deviation floor of about
0.0089.  The relaxed question (maximize the overlap sum with no target
constraint) is answered exactly over the 27 selections of one state per
basis, and its maximum sits visibly below the 3 * target ceiling.
"""

from __future__ import annotations

from kings import certify_d3_impossible, construct_mub, overlap_target, relaxed_f_max


def main() -> None:
    family = construct_mub(3)
    report = certify_d3_impossible(family)
    print(f"tuples certified: {len(report.tuples)}")
    print(f"all stay at least delta = {report.delta} away: {report.passed}")
    print(f"closest approach on the grid (worst tuple): {report.worst:.12f}")
    print(f"proven floor: {report.floor:.6f} (grid minimum - slack {report.slack:.6f})")
    print(f"grid nodes evaluated: {report.evaluated} of {report.grid_nodes} "
          f"(the rest are ruled out by the same Lipschitz bound)")

    relaxed = relaxed_f_max(family)
    ceiling = 3 * overlap_target(3)
    print(f"\nrelaxed overlap-sum maximum: {relaxed.value:.10f}")
    print(f"unconstrained ceiling 3*t(3): {ceiling:.10f}")
    print(f"gap: {ceiling - relaxed.value:.10f}")

    # contrast: at d = 2 and d = 4 the relaxed maximum touches the ceiling
    for d in (2, 4):
        r = relaxed_f_max(construct_mub(d))
        print(f"d = {d}: relaxed max {r.value:.10f} vs ceiling {d * overlap_target(d):.10f}")


if __name__ == "__main__":
    main()
