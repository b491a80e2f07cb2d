"""Acceptance gate: one test per shipped criterion, full profile.

Each test prints the criterion's pass/fail line (visible with -s or on
failure) and asserts it passed.  The same checks back `kings verify`.
"""

import itertools

from kings import verify


def _check(result):
    print(result.line())
    assert result.passed, result.line()
    if result.budget is not None:
        assert result.elapsed < result.budget, (
            f"criterion {result.number} took {result.elapsed:.3f} s "
            f"(budget {result.budget} s)"
        )


def test_criterion_01_success_bound_table():
    _check(verify.criterion_bound_table())


def test_criterion_02_split_identities():
    _check(verify.criterion_split_identities())


def test_criterion_03_family_certification():
    _check(verify.criterion_mub_certification())


def test_criterion_04_equal_overlap_search():
    _check(verify.criterion_d4_search())


def test_criterion_05_saturating_strategies():
    _check(verify.criterion_d4_optimum())


def test_criterion_06_d3_impossibility():
    _check(verify.criterion_d3_impossibility())


def test_criterion_07_cube_entangled_protocol():
    _check(verify.criterion_cube_vaa())


def test_criterion_08_cube_ancilla_free_optimum():
    _check(verify.criterion_cube_conventional())


def test_criterion_09_monte_carlo_oracle():
    _check(verify.criterion_monte_carlo("full"))


def test_criterion_10_property_battery():
    _check(verify.criterion_property_battery())


def test_over_budget_criterion_fails_and_names_its_budget(monkeypatch):
    clock = itertools.count()
    monkeypatch.setattr(verify.time, "perf_counter", lambda: float(next(clock)))
    result = verify.criterion_bound_table()
    assert not result.passed
    assert result.details == "took 1.000 s, budget 0.001 s"
    assert "FAIL" in result.line()
