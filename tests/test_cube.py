"""Cube-diagonal game: product decompositions, the entangled protocol's
overlap table and rule, and the ancilla-free optimum."""

import dataclasses

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
    import kings.cube

    monkeypatch.setattr(kings.cube, "orthonormality_defect", lambda states: float("nan"))
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
    assert tuple(pred.table[0]) == (1, -1, 1, 1)
    assert pred.table.shape == (4, 4)
    assert set(np.unique(pred.table)) == {-1, 1}
    # every diagonal gets both calls across the four outcomes
    for a in range(4):
        assert {1, -1} == set(pred.table[:, a])
    assert pred.predict(0, 1) == -1


def test_wrong_mass_is_flat(setup):
    wrong = wrong_prediction_mass(setup)
    expected = 1 - (2 + np.sqrt(3)) / 4
    assert np.abs(wrong - expected).max() < 1e-10
    # comfortably below the practical-vanishing threshold for any row
    assert wrong.max() < 0.07


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
    return conventional_cube_optimize(setup, grid_deg=1.0)


@pytest.mark.parametrize("grid_deg", [1.0, 0.25])
def test_optimum_direction_is_exact(setup, grid_deg):
    optimum = conventional_cube_optimize(setup, grid_deg=grid_deg)
    assert optimum.value == pytest.approx((15 + np.sqrt(33)) / 24, abs=1e-12)
    assert optimum.grid_best <= optimum.value + 1e-12
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


def test_optimizer_rejects_bad_grid(setup):
    for grid_deg in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            conventional_cube_optimize(setup, grid_deg=grid_deg)


def test_optimizer_value_and_angle(setup, optimum):
    exact = (15 + np.sqrt(33)) / 24
    assert optimum.value == pytest.approx(exact, abs=1e-9)
    expected_angle = np.degrees(np.arccos(-1 / np.sqrt(33)))
    assert optimum.angle_to_first_diagonal_deg == pytest.approx(expected_angle, abs=1e-3)
    assert abs(optimum.angle_to_first_diagonal_deg - 100.0) < 0.5
    assert optimum.value > conventional_baseline(setup)
    assert optimum.grid_best <= optimum.value + 1e-12


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
