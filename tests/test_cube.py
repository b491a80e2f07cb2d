"""Cube-diagonal game: product decompositions, the entangled protocol's
overlap table and rule, and the ancilla-free optimum."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from kings.cube import (
    REFLECTION_PARTNER,
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
    vaa_tables,
    verify_bell_decompositions,
    wrong_prediction_mass,
)
from kings.reference import VAA_OVERLAP_REFERENCE


@pytest.fixture(scope="module")
def setup():
    return make_cube_setup()


def test_geometry(setup):
    assert np.allclose(np.linalg.norm(setup.diagonals, axis=1), 1.0, atol=1e-12)
    # adjacent diagonals of a cube meet at arccos(1/3) or its supplement
    dots = setup.diagonals @ setup.diagonals.T
    off = dots[~np.eye(4, dtype=bool)]
    assert np.allclose(np.abs(off), 1 / 3, atol=1e-12)
    assert abs(np.linalg.norm(setup.bell) - 1) < 1e-12


def test_reflection_pairing_is_an_involution(setup):
    for a, p in REFLECTION_PARTNER.items():
        assert REFLECTION_PARTNER[p] == a
        # partners mirror through the x-z plane: y flips, x and z stay
        assert np.allclose(
            setup.diagonals[p] * np.array([1, -1, 1]), setup.diagonals[a], atol=1e-12
        )


def test_product_decompositions_are_exact(setup):
    defects = verify_bell_decompositions(setup)
    assert set(defects) == {0, 1, 2, 3}
    assert all(v < 1e-12 for v in defects.values())


def test_decompositions_reject_a_nan_pair(setup):
    nan_pair = dataclasses.replace(setup, bell=np.array([np.nan, 0, 0, 1], dtype=complex))
    with pytest.raises(ValueError, match="decomposition defects"):
        verify_bell_decompositions(nan_pair)


def test_cube_setup_rejects_a_nan_vaa_defect(monkeypatch):
    import kings.mub

    monkeypatch.setattr(kings.mub, "orthonormality_defect", lambda states: float("nan"))
    with pytest.raises(ValueError, match="VAA basis defect"):
        make_cube_setup()


def test_king_collapse_validates_sign(setup):
    with pytest.raises(ValueError):
        king_collapse(setup, 0, 0)


def test_overlap_table_matches_reference(setup):
    table = vaa_overlap_table(setup)
    assert table.shape == (8, 4)
    assert np.abs(table - np.array(VAA_OVERLAP_REFERENCE)).max() < 5e-4
    assert np.allclose(table.sum(axis=1), 1.0, atol=1e-12)


def test_overlap_table_closed_forms(setup):
    """Every entry is one of four exact half-angle values, and each row is
    one dominant entry plus three equal small ones."""
    theta = np.arccos(1 / np.sqrt(3))
    cos4, sin4 = np.cos(theta / 2) ** 4, np.sin(theta / 2) ** 4
    values = (1.5 * cos4, 1.5 * sin4, 0.5 * cos4, 0.5 * sin4)
    table = vaa_overlap_table(setup)
    for row in table:
        for v in row:
            assert any(abs(v - w) < 1e-9 for w in values), v
        # each row is three equal entries plus one odd one out
        r = np.sort(row)
        assert np.allclose(r[:3], r[0], atol=1e-9) or np.allclose(r[1:], r[1], atol=1e-9)
    assert 1.5 * cos4 == pytest.approx((2 + np.sqrt(3)) / 4, abs=1e-12)


def test_row_labels(setup):
    labels = collapse_row_labels()
    assert len(labels) == 8
    assert labels[0] == "+n1+n4"
    assert labels[1] == "-n1-n4"
    assert labels[4] == "+n3+n2"


def test_prediction_table_worked_example(setup):
    pred = vaa_prediction_table(setup)
    # first measurement outcome calls + on diagonals 1, 3, 4 and - on 2
    assert tuple(pred[0]) == (1, -1, 1, 1)
    assert pred.shape == (4, 4)
    assert set(np.unique(pred)) == {-1, 1}
    # every diagonal gets both calls across the four outcomes
    for a in range(4):
        assert {1, -1} == set(pred[:, a])


def test_rule_and_wrong_mass_equal_their_loops(setup):
    # the per-entry loops the array forms replaced, kept as the oracle
    t = vaa_overlap_table(setup)
    pred = np.empty((4, 4), dtype=int)
    for k in range(4):
        for a in range(4):
            pred[k, a] = 1 if t[2 * a, k] >= t[2 * a + 1, k] else -1
    rows = [(a, s) for a in range(4) for s in (1, -1)]
    wrong = [sum(t[r, k] for k in range(4) if pred[k, a] != s) for r, (a, s) in enumerate(rows)]
    assert np.array_equal(vaa_prediction_table(setup), pred)
    assert wrong_prediction_mass(vaa_tables(setup)).tolist() == wrong


def test_wrong_mass_is_flat(setup):
    wrong = wrong_prediction_mass(vaa_tables(setup))
    expected = 1 - (2 + np.sqrt(3)) / 4
    assert np.abs(wrong - expected).max() < 1e-10
    # comfortably below the practical-vanishing threshold for any row
    assert wrong.max() < 0.07


def test_criterion_seven_collapses_each_state_twice(monkeypatch):
    """Criterion 7 derives the VAA tables once and checks the product
    decompositions once: eight collapsed joint states each."""
    import kings.cube
    from kings.verify import criterion_cube_vaa

    calls = []
    monkeypatch.setattr(kings.cube, "king_collapse",
                        lambda *args: calls.append(1) or king_collapse(*args))
    assert criterion_cube_vaa().passed
    assert len(calls) == 16


def test_vaa_success_value(setup):
    s = vaa_success_exact(setup)
    assert s == pytest.approx((2 + np.sqrt(3)) / 4, abs=1e-12)
    assert f"{s:.3f}" == "0.933"


# --- ancilla-free protocol ----------------------------------------------------


def test_conventional_value_at_known_optimum(setup):
    m = np.array([-1.0, -1.0, 3.0]) / np.sqrt(11)
    exact = (15 + np.sqrt(33)) / 24
    assert conventional_cube_value(setup, m) == pytest.approx(exact, abs=1e-12)
    # sign-flip invariance: the rule flips with the axis
    assert conventional_cube_value(setup, -m) == pytest.approx(exact, abs=1e-12)


def test_conventional_rule_signs(setup):
    m = np.array([-1.0, -1.0, 3.0]) / np.sqrt(11)
    rule = conventional_cube_rule(setup, m)
    assert rule[0] == 1  # preparation diagonal is always called +
    for a in range(1, 4):
        assert rule[a] == (1 if setup.diagonals[a] @ m >= 0 else -1)


def test_baseline_is_three_quarters(setup):
    assert conventional_baseline(setup) == pytest.approx(0.75, abs=1e-12)


@pytest.fixture(scope="module")
def optimum(setup):
    return conventional_cube_optimize(setup)


def _grid_best(setup, grid_deg):
    """Brute-force oracle: the best value on a polar-azimuthal direction grid."""
    # on the grid, m . n = sin(theta) (n_x cos(phi) + n_y sin(phi)) + cos(theta) n_z
    thetas = np.radians(np.arange(0.0, 180.0 + grid_deg / 2, grid_deg))
    phis = np.radians(np.arange(0.0, 360.0, grid_deg))
    st, ct = np.sin(thetas)[:, None], np.cos(thetas)[:, None]
    total = sum(np.abs(st * (n[0] * np.cos(phis) + n[1] * np.sin(phis)) + ct * n[2])
                for n in setup.diagonals[1:])
    i, j = np.unravel_index(int(np.argmax(total)), total.shape)
    return conventional_cube_value(
        setup, [st[i, 0] * np.cos(phis[j]), st[i, 0] * np.sin(phis[j]), ct[i, 0]])


# the value falls off quadratically away from the optimum: the best node of a
# 1 degree grid sits 2.1e-6 below it, of a 0.25 degree grid 4.1e-9
@pytest.mark.parametrize("grid_deg, closeness", [(1.0, 1e-5), (0.25, 1e-6)])
def test_optimum_direction_is_exact(setup, optimum, grid_deg, closeness):
    assert optimum.value == pytest.approx((15 + np.sqrt(33)) / 24, abs=1e-12)
    grid_best = _grid_best(setup, grid_deg)
    assert grid_best <= optimum.value + 1e-12
    assert optimum.value - grid_best < closeness
    expected = np.array([1.0, -3.0, 1.0]) / np.sqrt(11)
    assert np.abs(optimum.direction - expected).max() <= 1e-12
    assert np.array_equal(optimum.direction, optimum.co_optima[0])
    # the co-optima are the three sign-pattern axes sum_a s_a n_a, as
    # obtuse-angle representatives, in (+1, s_2, s_3) order with - before +
    n = setup.diagonals[1:]
    axes = [n[0] - n[1] - n[2], n[0] + n[1] - n[2], n[0] + n[1] + n[2]]
    axes = [-m / np.linalg.norm(m) if m @ setup.diagonals[0] > 0 else m / np.linalg.norm(m)
            for m in axes]
    assert len(optimum.co_optima) == 3
    for got, want in zip(optimum.co_optima, axes):
        assert np.abs(got - want).max() <= 1e-12


def test_optimum_meets_its_upper_bound(optimum):
    # the Cauchy-Schwarz bound caps every direction, so meeting it certifies the optimum
    assert abs(optimum.upper_bound - optimum.value) <= 1e-12


def test_optimizer_needs_no_grid_memory(setup):
    tracemalloc.start()
    try:
        conventional_cube_optimize(setup)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_optimizer_value_and_angle(setup, optimum):
    exact = (15 + np.sqrt(33)) / 24
    assert optimum.value == pytest.approx(exact, abs=1e-9)
    expected_angle = np.degrees(np.arccos(-1 / np.sqrt(33)))
    assert optimum.angle_to_first_diagonal_deg == pytest.approx(expected_angle, abs=1e-3)
    assert abs(optimum.angle_to_first_diagonal_deg - 100.0) < 0.5
    assert optimum.value > conventional_baseline(setup)
    grid_best = _grid_best(setup, 0.25)
    assert grid_best <= optimum.value + 1e-12
    assert optimum.value - grid_best < 1e-6


def test_optimum_geometry(setup, optimum):
    # obtuse representative, on a great circle through the preparation diagonal
    assert optimum.direction @ setup.diagonals[0] < 0
    assert optimum.great_circle in (1, 2, 3)
    normal = np.cross(setup.diagonals[0], setup.diagonals[optimum.great_circle])
    normal /= np.linalg.norm(normal)
    assert abs(optimum.direction @ normal) < 1e-6


def test_optimum_is_threefold_degenerate(setup, optimum):
    assert len(optimum.co_optima) == 3
    for m in optimum.co_optima:
        assert conventional_cube_value(setup, m) == pytest.approx(optimum.value, abs=1e-9)
    # distinct axes
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(optimum.co_optima[i] @ optimum.co_optima[j]) < 1 - 1e-6


def test_optimizer_beats_random_directions(setup, optimum):
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = rng.normal(size=3)
        m /= np.linalg.norm(m)
        assert conventional_cube_value(setup, m) <= optimum.value + 1e-9


def test_rule_value_consistency(setup):
    """The closed-form per-diagonal value matches explicit Born accounting."""
    from kings.qstate import spin_up_state
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.normal(size=3)
        m /= np.linalg.norm(m)
        rule = conventional_cube_rule(setup, m)
        prep = spin_up_state(setup.diagonals[0])
        total = 0.0
        for a in range(4):
            for sign in (1, -1):
                p_sign = abs(np.vdot(spin_up_state(sign * setup.diagonals[a]), prep)) ** 2
                if a == 0:
                    p_right = 1.0 if sign == 1 else 0.0
                else:
                    collapsed = spin_up_state(sign * setup.diagonals[a])
                    p_plus = abs(np.vdot(spin_up_state(m), collapsed)) ** 2
                    called_plus = rule[a]
                    p_right = p_plus if called_plus == sign else 1 - p_plus
                total += p_sign * p_right
        total /= 4
        assert total == pytest.approx(conventional_cube_value(setup, m), abs=1e-12)
