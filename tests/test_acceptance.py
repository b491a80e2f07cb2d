"""Acceptance gate: one test per shipped criterion, full profile.

Each test prints the criterion's pass/fail line (visible with -s or on
failure) and asserts it passed.  The same checks back `kings verify`.
"""

import dataclasses
import itertools

import numpy as np

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


def test_criterion_04_fails_when_the_bases_come_out_of_order(monkeypatch):
    """Same 32 bases, reversed: the numbering of tables 3 and 4 would change."""
    find = verify.find_measurement_bases
    monkeypatch.setattr(verify, "find_measurement_bases", lambda signals: find(signals)[::-1])
    result = verify.criterion_d4_search()
    assert not result.passed
    assert "0/32 match BASIS_CATALOG in order" in result.details


def test_criterion_07_fails_on_a_broken_product_decomposition(monkeypatch):
    setup = verify.make_cube_setup()
    nan_pair = dataclasses.replace(setup, bell=np.array([np.nan, 0, 0, 1], dtype=complex))
    monkeypatch.setattr(verify, "make_cube_setup", lambda: nan_pair)
    result = verify.criterion_cube_vaa()
    assert not result.passed
    assert "decomposition defects" in result.details


def test_criterion_08_fails_when_the_value_misses_its_bound(monkeypatch):
    optimize = verify.conventional_cube_optimize
    monkeypatch.setattr(verify, "conventional_cube_optimize", lambda setup: dataclasses.replace(
        optimize(setup), upper_bound=float("nan")))
    result = verify.criterion_cube_conventional()
    assert not result.passed
    assert "misses its bound" in result.details
