"""Self-contained acceptance checks, runnable via `kings verify` or pytest.

Each criterion pins its own tolerances and runtime budget and reports a
single pass/fail with measured details.  The checks only consume public
library API plus the frozen reference values in `reference`.  A bare
`import kings` loads neither this module nor `reference`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import reference
from .bounds import bound_p, overlap_target, relaxed_f_max, total_bound
from .cube import (
    conventional_baseline,
    conventional_cube_optimize,
    conventional_cube_value,
    make_cube_setup,
    vaa_success_exact,
    vaa_tables,
    verify_bell_decompositions,
    wrong_prediction_mass,
)
from .game import GameConfig, run
from .mub import certify_family, construct_mub
from .presets import (
    cube_conventional_strategy,
    cube_vaa_strategy,
    d2_optimal_strategy,
    d4_optimal_strategy,
)
from .search import (certify_d3_impossible, certify_optimal_strategy, find_measurement_bases,
                     find_signal_states)
from .strategy import complement_strategy, random_strategy, success_exact

ACCEPTANCE_SEED = 20260817


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed: float
    budget: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}] {status}  {self.name}  ({self.elapsed:.3f} s)  {self.details}"


def _result(number: int, name: str, elapsed: float, problems: list[str], details: str,
            budget: float | None = None) -> CriterionResult:
    """A criterion passes when it found no problem and kept within its budget.

    A failing criterion reports its problems, a passing one its details.
    """
    if budget is not None and not elapsed < budget:
        problems = [*problems, f"took {elapsed:.3f} s, budget {budget:g} s"]
    return CriterionResult(number, name, not problems,
                           "; ".join(problems) if problems else details, elapsed, budget)


def _best_of(repeat: int, fn):
    """fn's value and its best wall time over `repeat` calls, as `timeit`
    reports it, so that one preemption cannot spend a sub-millisecond budget."""
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


def criterion_bound_table() -> CriterionResult:
    values, elapsed = _best_of(5, lambda: {d: bound_p(d) for d in reference.SUCCESS_BOUND_TABLE})
    bad = {
        d: v for d, v in values.items()
        if round(v, 4) != reference.SUCCESS_BOUND_TABLE[d]
    }
    problems = [f"mismatches: {bad}"] if bad else []
    return _result(1, "success bound summary values", elapsed, problems,
                   "all 6 dimensions match to 4 decimals", 1e-3)


def _split_deviations() -> tuple[float, float, bool]:
    worst_mid = 0.0
    worst_edge = 0.0
    strict = True
    for d in range(2, 10):
        for r in range(1, d + 1):
            worst_mid = max(worst_mid, abs(total_bound(d, r) - bound_p(d)))
        edge = (1 + math.sqrt(d)) / (1 + d)
        for r in (0, d + 1):
            worst_edge = max(worst_edge, abs(total_bound(d, r) - edge))
        strict = strict and edge < bound_p(d)
    return worst_mid, worst_edge, strict


def criterion_split_identities() -> CriterionResult:
    (worst_mid, worst_edge, strict), elapsed = _best_of(5, _split_deviations)
    details = (
        f"max |split - direct| = {worst_mid:.2e}, edge cases {worst_edge:.2e}, "
        f"all-or-nothing strictly below"
    )
    problems = [] if worst_mid <= 1e-14 and worst_edge <= 1e-14 and strict else [details]
    return _result(2, "guess/control split identities", elapsed, problems, details, 1e-3)


def criterion_mub_certification() -> CriterionResult:
    t0 = time.perf_counter()
    worst = 0.0
    dims = (2, 3, 4, 5, 7, 11, 13)
    problems = []
    for d in dims:
        report = certify_family(construct_mub(d), atol=1e-10)
        worst = max(worst, report.max_orthonormality_deviation,
                    report.max_unbiasedness_deviation)
        if not report.passed:
            problems.append(f"dim {d} failed: {report!r}")
            break
    elapsed = time.perf_counter() - t0
    return _result(3, "unbiased family certification", elapsed, problems,
                   f"dims {dims} certified, worst deviation {worst:.2e}", 1.0)


def criterion_d4_search() -> CriterionResult:
    t0 = time.perf_counter()
    signals = find_signal_states(construct_mub(4))
    bases = find_measurement_bases(signals)
    elapsed = time.perf_counter() - t0
    # ordered, as the numbering of tables 3 and 4 and the d = 4 preset's basis depend on it
    got = [tuple(x + 1 for x in s.indices) + tuple(complex(p) for p in s.phases) for s in signals]
    want = [row[:4] + tuple(complex(p) for p in row[4:]) for row in reference.SIGNAL_CATALOG]
    got_bases = [tuple(m + 1 for m in b.members) for b in bases]
    problems = []
    if got != want:
        agree = sum(g == w for g, w in zip(got, want))
        problems.append(f"{len(got)} signal states, {agree}/32 match SIGNAL_CATALOG in order")
    if got_bases != reference.BASIS_CATALOG:
        agree = sum(g == w for g, w in zip(got_bases, reference.BASIS_CATALOG))
        problems.append(f"{len(got_bases)} bases, {agree}/32 match BASIS_CATALOG in order")
    return _result(4, "equal-overlap state search (d=4)", elapsed, problems,
                   "32 states and 32 bases, catalog exact", 10.0)


def criterion_d4_optimum() -> CriterionResult:
    t0 = time.perf_counter()
    family = construct_mub(4)
    bases = find_measurement_bases(find_signal_states(family))
    ceiling = 4 * overlap_target(4)
    problems = []
    worst_total = 0.0
    worst_f = 0.0
    worst_mirror = 0.0
    for n, basis in enumerate(bases):
        try:  # raises unless every outcome collects the ceiling within 1e-9
            strat, breakdown = certify_optimal_strategy(family, basis)
        except ValueError as exc:
            problems.append(f"basis {n}: {exc}")
            break
        mirror_value = complement_strategy(strat).success()
        worst_total = max(worst_total, abs(breakdown.total - 0.7))
        worst_f = max(worst_f, max(abs(v - ceiling) for v in breakdown.per_signal.values()))
        worst_mirror = max(worst_mirror, abs(mirror_value - 0.7))
        if worst_total > 1e-9 or worst_mirror > 1e-9:
            problems.append(
                f"basis {n}: success {breakdown.total!r}, mirrored {mirror_value!r}"
            )
            break
    elapsed = time.perf_counter() - t0
    return _result(5, "saturating strategies in d=4", elapsed, problems,
                   f"all 32 bases: |success - 0.7| <= {worst_total:.1e}, "
                   f"|F - {ceiling}| <= {worst_f:.1e}, mirrored within {worst_mirror:.1e}")


def criterion_d3_impossibility() -> CriterionResult:
    t0 = time.perf_counter()
    family = construct_mub(3)
    report = certify_d3_impossible(family)
    relaxed = relaxed_f_max(family, excluded=0)
    elapsed = time.perf_counter() - t0
    ceiling = 3 * overlap_target(3)
    gap = ceiling - relaxed.value
    problems = []
    if not report.passed:
        worst_t = min(report.tuples, key=lambda t: t.floor)
        problems.append(f"tuple {worst_t.indices} has floor {worst_t.floor:.2e} <= {report.delta}")
    if gap <= 0:
        problems.append(f"relaxed maximum {relaxed.value!r} does not sit below {ceiling!r}")
    return _result(6, "no saturating states in d=3", elapsed, problems,
                   f"all 27 tuples fail by >= {report.worst:.6f}, floor - delta "
                   f"{report.floor - report.delta:.6f}; overlap-sum gap {gap:.6f}; "
                   f"{report.evaluated} of {report.grid_nodes} grid nodes evaluated", 60.0)


def criterion_cube_vaa() -> CriterionResult:
    t0 = time.perf_counter()
    setup = make_cube_setup()
    tables = vaa_tables(setup)  # one derivation serves every check below
    _, table, prediction = tables
    ref = np.array(reference.VAA_OVERLAP_REFERENCE)
    table_dev = float(np.abs(table - ref).max())
    wrong = wrong_prediction_mass(tables)
    expected_wrong = 1.0 - (2 + np.sqrt(3)) / 4
    wrong_dev = float(np.abs(wrong - expected_wrong).max())
    success = float(1.0 - wrong.mean())  # vaa_success_exact's value
    chi1 = tuple(prediction[0])
    problems = []
    try:
        defect = max(verify_bell_decompositions(setup).values())
    except ValueError as exc:
        defect = float("nan")
        problems.append(f"product decompositions: {exc}")
    elapsed = time.perf_counter() - t0
    if table_dev > 5e-4:
        problems.append(f"overlap table deviates by {table_dev:.2e}")
    if wrong_dev > 1e-10:
        problems.append(f"wrong-prediction mass deviates by {wrong_dev:.2e}")
    if f"{success:.3f}" != "0.933":
        problems.append(f"success prints as {success:.3f}")
    if chi1 != (1, -1, 1, 1):
        problems.append(f"chi_1 predictions {chi1}")
    return _result(7, "cube game with entangled pair", elapsed, problems,
                   f"table within {table_dev:.1e}, success {success:.6f}, chi_1 rule (+,-,+,+), "
                   f"decomposition defect {defect:.1e}")


def criterion_cube_conventional() -> CriterionResult:
    t0 = time.perf_counter()
    setup = make_cube_setup()
    result = conventional_cube_optimize(setup)
    elapsed = time.perf_counter() - t0
    exact = (15 + np.sqrt(33)) / 24
    reference_angle = 180.0 - np.degrees(np.arctan(4 * np.sqrt(2)))
    gap = result.upper_bound - result.value
    problems = []
    if abs(result.value - exact) > 1e-4:
        problems.append(f"value {result.value!r} vs {exact!r}")
    if not abs(gap) <= 1e-12:  # a NaN gap fails too
        problems.append(f"value {result.value!r} misses its bound {result.upper_bound!r}")
    if abs(result.angle_to_first_diagonal_deg - 100.0) > 0.5:
        problems.append(f"angle {result.angle_to_first_diagonal_deg:.3f} deg")
    if result.great_circle is None:
        problems.append("optimum not on a preparation-diagonal great circle")
    if result.value <= conventional_baseline(setup):
        problems.append("does not beat the constant-guess baseline")
    return _result(8, "ancilla-free cube optimum", elapsed, problems,
                   f"value {result.value:.9f} (exact {exact:.9f}, |value - exact| "
                   f"{abs(result.value - exact):.1e}, upper_bound - value "
                   f"{gap:.1e}), angle "
                   f"{result.angle_to_first_diagonal_deg:.3f} deg (reference "
                   f"{reference_angle:.3f}), {len(result.co_optima)} co-optimal axes")


def criterion_monte_carlo(profile: str = "full") -> CriterionResult:
    trials = 1_000_000 if profile == "full" else 100_000
    t0 = time.perf_counter()
    d4, d2, vaa, conv = (d4_optimal_strategy(), d2_optimal_strategy(), cube_vaa_strategy(),
                         cube_conventional_strategy())
    cases = [("d4", d4, success_exact(d4).total), ("d2", d2, success_exact(d2).total),
             ("cube-vaa", vaa, vaa_success_exact(vaa.setup)),
             ("cube-conv", conv, conventional_cube_value(conv.setup, conv.direction))]
    problems, measured = [], []
    for name, strat, exact in cases:
        record = strat.tables()  # the record run plays, built once
        p = record.success()
        if not abs(p - exact) <= 1e-12:  # a NaN fails too
            problems.append(f"{name}: record value {p!r} vs library value {exact!r}")
        result = run(GameConfig(strategy=record, trials=trials, seed=ACCEPTANCE_SEED))
        se = math.sqrt(p * (1 - p) / trials)  # from the exact p, not the estimate
        dev = abs(result.estimate - p)
        measured.append(f"{name} {result.estimate:.5f} ({dev / se:.2f} se)")
        if not dev <= 3 * se:
            problems.append(f"{name}: estimate {result.estimate!r} vs exact {p!r}")
    elapsed = time.perf_counter() - t0
    return _result(9, f"Monte Carlo referee ({trials} trials)", elapsed, problems,
                   ", ".join(measured), 60.0)


def criterion_property_battery() -> CriterionResult:
    t0 = time.perf_counter()
    problems = []
    worst_identity = 0.0
    for d in (2, 3, 4):
        family = construct_mub(d)
        ceiling = d * overlap_target(d)
        rng = np.random.default_rng(1000 + d)
        for trial in range(1000):
            strat = random_strategy(family, prep_basis=0, rng=rng)
            breakdown = success_exact(strat)
            f_max = max(breakdown.per_signal.values())
            if f_max > ceiling + 1e-9:
                problems.append(f"d={d} trial {trial}: F = {f_max!r} exceeds {ceiling!r}")
                break
            worst_identity = max(
                worst_identity, abs(breakdown.total - breakdown.total_from_signals())
            )
    if worst_identity > 1e-12:
        problems.append(f"success regrouping identity off by {worst_identity:.2e}")
    config = GameConfig(strategy=d2_optimal_strategy(), trials=20_000, seed=99)
    if run(config) != run(config):
        problems.append("identical seeds produced different results")
    elapsed = time.perf_counter() - t0
    return _result(10, "strategy property battery", elapsed, problems,
                   f"3000 random strategies bounded, regroup identity {worst_identity:.1e}, "
                   f"reruns identical")


def run_all(profile: str = "full") -> list[CriterionResult]:
    """Run every acceptance criterion; profile 'quick' trims Monte Carlo."""
    return [
        criterion_bound_table(),
        criterion_split_identities(),
        criterion_mub_certification(),
        criterion_d4_search(),
        criterion_d4_optimum(),
        criterion_d3_impossibility(),
        criterion_cube_vaa(),
        criterion_cube_conventional(),
        criterion_monte_carlo(profile),
        criterion_property_battery(),
    ]
