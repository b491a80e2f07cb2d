"""Strategy assembly, repair, exact success accounting and role exchange."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kings.bounds import bound_p, overlap_target
from kings.mub import OrthonormalBasis, construct_mub
from kings.strategy import (
    AssignmentMap,
    GameTables,
    SuccessBreakdown,
    _max_assignment,
    assign_greedy,
    build_strategy,
    complement_strategy,
    overlap_matrix,
    random_control_basis,
    random_strategy,
    repair_well_conditioned,
    success_exact,
)
from kings.presets import d2_optimal_strategy, d4_optimal_strategy
from kings.search import find_measurement_bases, find_signal_states


def test_overlap_matrix_shape_and_rows():
    family = construct_mub(3)
    control = family.bases[1]
    o = overlap_matrix(family, control)
    assert o.shape == (4, 3, 3)
    # Born rows sum to one
    assert np.allclose(o.sum(axis=2), 1.0, atol=1e-12)
    # control coincides with basis 1: its block is the identity
    assert np.allclose(o[1], np.eye(3), atol=1e-12)


def test_overlap_matrix_dimension_mismatch():
    family = construct_mub(3)
    with pytest.raises(ValueError):
        overlap_matrix(family, construct_mub(2).bases[0])


def test_greedy_breaks_ties_toward_lowest_outcome():
    family = construct_mub(3)
    # control = a family basis: every covered basis has all overlaps 1/3
    raw = assign_greedy(family, prep_basis=0, control=family.bases[1])
    for i in (2, 3):
        assert [raw.forward[(i, j)] for j in range(3)] == [0, 0, 0]
    # basis 1 itself is matched exactly
    assert [raw.forward[(1, j)] for j in range(3)] == [0, 1, 2]


def test_repair_keeps_bijective_bases_and_fixes_the_rest():
    family = construct_mub(3)
    control = family.bases[1]
    raw = assign_greedy(family, 0, control)
    assert not raw.is_well_conditioned()
    repaired = repair_well_conditioned(raw, overlap_matrix(family, control))
    assert repaired.is_well_conditioned()
    # the already-bijective basis is untouched
    assert [repaired.forward[(1, j)] for j in range(3)] == [0, 1, 2]


@pytest.mark.parametrize("d, repeats", [(5, 5), (7, 2), (2, 50), (3, 50), (4, 50)])
def test_repair_hungarian_agrees_with_brute_force(d, repeats):
    """Hungarian repair must find the same score as exhaustive search, every d."""
    family = construct_mub(d)
    rng = np.random.default_rng(42 + d)
    for _ in range(repeats):
        control = random_control_basis(d, rng)
        o = overlap_matrix(family, control)
        raw = assign_greedy(family, 0, control)
        repaired = repair_well_conditioned(raw, o)
        assert repaired.is_well_conditioned()
        for i in range(1, d + 1):
            got = sum(o[i, j, repaired.forward[(i, j)]] for j in range(d))
            best = max(
                sum(o[i, j, perm[j]] for j in range(d))
                for perm in itertools.permutations(range(d))
            )
            assert got == pytest.approx(best, abs=1e-12), (d, i)


def test_a_mub_op_derives_each_overlap_tensor_once(monkeypatch):
    """Build, exact success, the mirror and back, and a run's lowering share
    one tensor per (family, control) pair: the strategy's, which its
    assignment is repaired with, and the mirror's.  The derived tables are
    read-only, and lowering leaves the cached prediction as it was."""
    import kings.strategy
    from kings.game import GameConfig, run

    calls = []
    monkeypatch.setattr(kings.strategy, "overlap_matrix",
                        lambda *args: calls.append(1) or overlap_matrix(*args))
    strat = random_strategy(construct_mub(5), 2, np.random.default_rng(5))
    total = success_exact(strat).total
    mirror = complement_strategy(strat)
    mirror.success()
    assert success_exact(complement_strategy(mirror)).total == total
    prediction = strat.assignment.prediction.copy()
    run(GameConfig(strategy=strat, trials=100, seed=0))
    assert len(calls) == 2
    assert (strat.assignment.prediction == prediction).all()
    for table in (strat.overlaps, strat.assignment.forward, strat.assignment.bijective,
                  strat.assignment.prediction):
        assert not table.flags.writeable


def test_assignment_map_inversion():
    fwd = np.full((4, 3), -1)
    fwd[1] = [2, 0, 1]
    fwd[2] = [0, 0, 1]
    amap = AssignmentMap(fwd)
    # basis 1 is bijective and inverted; basis 2 is not and stays out
    assert amap.prediction[2, 1] == 0
    assert amap.prediction[0, 1] == 1
    assert amap.prediction[1, 1] == 2
    assert (amap.prediction[:, 2] == -1).all()
    assert not amap.is_well_conditioned()


# The dict-based assignment layer that the (d + 1, d) array replaced, kept
# verbatim as the oracle: maps, predictions and breakdowns must stay equal.

def _reference_greedy(family, prep_basis, control):
    o = overlap_matrix(family, control)
    forward = {}
    for i in family.labels:
        if i == prep_basis:
            continue
        for j in range(family.dim):
            forward[(i, j)] = int(np.argmax(o[i, j]))
    return forward


def _reference_invert_where_bijective(dim, forward):
    prediction = {}
    for i in sorted({i for i, _ in forward}):
        ks = [forward[(i, j)] for j in range(dim)]
        if len(set(ks)) == dim:
            for j, k in enumerate(ks):
                prediction[(k, i)] = j
    return prediction


def _reference_repair(d, raw, overlaps):
    forward = {}
    for i in sorted({i for i, _ in raw}):
        ks = [raw[(i, j)] for j in range(d)]
        if len(set(ks)) != d:
            from scipy.optimize import linear_sum_assignment
            rows, cols = linear_sum_assignment(overlaps[i], maximize=True)  # [j, k]
            ks = cols[np.argsort(rows)]
        for j in range(d):
            forward[(i, j)] = int(ks[j])
    return forward


def _reference_success(family, prep_basis, control, forward):
    d = family.dim
    o = overlap_matrix(family, control)
    per_basis = {prep_basis: 1.0}
    per_signal = {k: 0.0 for k in range(d)}
    for i in sorted({i for i, _ in forward}):
        fs = [o[i, j, forward[(i, j)]] for j in range(d)]
        per_basis[i] = float(np.mean(fs))
        for j, f in enumerate(fs):
            per_signal[forward[(i, j)]] += float(f)
    total = sum(per_basis[i] for i in family.labels) / (d + 1)
    return SuccessBreakdown(total=total, per_basis=per_basis, per_signal=per_signal)


def _entries(table):
    """The entries of an assignment array that are not -1, as a dict."""
    return {index: int(v) for index, v in np.ndenumerate(table) if v != -1}


def _oracle_cases():
    for d, draws in [(2, 12), (3, 12), (4, 12), (5, 6), (7, 3), (11, 2)]:
        rng = np.random.default_rng(20260900 + d)
        for _ in range(draws):
            yield construct_mub(d), random_control_basis(d, rng)
    family = construct_mub(4)
    for basis in find_measurement_bases(find_signal_states(family)):
        yield family, basis.basis


def test_array_assignment_equals_reference_dicts():
    checked = 0
    for family, control in _oracle_cases():
        d = family.dim
        o = overlap_matrix(family, control)
        # -1 and d + 1 are out of range: nothing may be excluded for them
        for prep in [*family.labels, -1, d + 1]:
            raw, ref_raw = assign_greedy(family, prep, control), _reference_greedy(family, prep, control)
            assert raw.forward.shape == (d + 1, d)
            assert _entries(raw.forward) == ref_raw
            assert _entries(raw.prediction) == _reference_invert_where_bijective(d, ref_raw)
            repaired, ref_repaired = repair_well_conditioned(raw, o), _reference_repair(d, ref_raw, o)
            assert _entries(repaired.forward) == ref_repaired
            assert _entries(repaired.prediction) == _reference_invert_where_bijective(d, ref_repaired)
            if prep in family.labels:
                assert (raw.forward[prep] == -1).all() and (raw.prediction[:, prep] == -1).all()
                strategy = build_strategy(family, prep, prep % d, control)
                assert success_exact(strategy) == _reference_success(family, prep, control, ref_repaired)
                checked += 1
    assert checked == 12 * 3 + 12 * 4 + 12 * 5 + 6 * 6 + 3 * 8 + 2 * 12 + 32 * 5  # draws x labels


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 11, 13])
def test_max_assignment_equals_scipy(d):
    from scipy.optimize import linear_sum_assignment
    rng = np.random.default_rng(20261000 + d)
    # uniform entries, then entries in {0, 1/4, 1/2} for ties, then all equal
    matrices = [rng.random((d, d)) for _ in range(40)]
    matrices += [rng.integers(0, 3, size=(d, d)) / 4 for _ in range(40)]
    matrices.append(np.full((d, d), 1 / d))
    for m in matrices:
        assert _max_assignment(m.tolist()) == linear_sum_assignment(m, maximize=True)[1].tolist()


def test_max_assignment_rejects_nan_overlaps():
    with pytest.raises(ValueError, match="finite"):
        _max_assignment([[np.nan] * 3] * 3)


def test_strategy_rejects_non_orthonormal_control():
    # the container only checks squareness; the strategy enforces orthonormality
    family = construct_mub(2)
    skew = OrthonormalBasis(label=None, states=np.array([[1, 0], [0.6, 0.8]]))
    with pytest.raises(ValueError):
        build_strategy(family, 0, 0, skew)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_strategy_rejects_a_nan_control(d):
    # build_strategy checks the control before its overlaps reach the repair,
    # and a strategy constructed directly runs the same check
    family = construct_mub(d)
    control = random_control_basis(d, np.random.default_rng(d))
    states = control.states.copy()
    states[0, 0] = np.nan
    nan_control = OrthonormalBasis(label=None, states=states)
    with pytest.raises(ValueError, match="not orthonormal"):
        build_strategy(family, 0, 0, nan_control)
    with pytest.raises(ValueError, match="not orthonormal"):
        dataclasses.replace(build_strategy(family, 0, 0, control), control=nan_control)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_replace_derives_the_assignment_afresh(d):
    """A strategy with its control replaced is the one build_strategy makes
    for the new control, not the old assignment on the new overlaps."""
    family = construct_mub(d)
    rng = np.random.default_rng(d)
    for prep in family.labels:
        s = random_strategy(family, prep, rng)
        control = random_control_basis(d, rng)
        replaced = dataclasses.replace(s, control=control)
        built = build_strategy(family, prep, 0, control)
        assert (replaced.assignment.forward == built.assignment.forward).all()
        assert success_exact(replaced).total == success_exact(built).total


@pytest.mark.parametrize("prep_basis, prep_index",
                         [(5, 0), (-1, 0), (0, 4), (0, -1), (True, 0), (0, True),
                          (1.0, 0), (0, 1.0)])
def test_strategy_rejects_out_of_range_preparation(prep_basis, prep_index):
    family = construct_mub(4)
    control = d4_optimal_strategy().control
    with pytest.raises(ValueError, match="prep_"):
        build_strategy(family, prep_basis, prep_index, control)


def test_family_basis_control_value():
    """Control = one of the family's own bases gives (3d - 1) / (d (d + 1))."""
    for d in (2, 3, 5):
        family = construct_mub(d)
        strat = build_strategy(family, 0, 0, family.bases[1])
        breakdown = success_exact(strat)
        assert breakdown.total == pytest.approx((3 * d - 1) / (d * (d + 1)), abs=1e-12)
        assert breakdown.per_basis[0] == 1.0
        assert breakdown.per_basis[1] == pytest.approx(1.0, abs=1e-12)


def test_d2_optimum_saturates_bound():
    strat = d2_optimal_strategy()
    breakdown = success_exact(strat)
    assert breakdown.total == pytest.approx((4 + np.sqrt(2)) / 6, abs=1e-12)
    assert breakdown.total == pytest.approx(bound_p(2), abs=1e-12)
    for f in breakdown.per_signal.values():
        assert f == pytest.approx(2 * overlap_target(2), abs=1e-12)


def test_d4_optimum_saturates_bound():
    breakdown = success_exact(d4_optimal_strategy())
    assert breakdown.total == pytest.approx(0.7, abs=1e-12)
    for f in breakdown.per_signal.values():
        assert f == pytest.approx(2.5, abs=1e-12)


def test_breakdown_regrouping_identity():
    family = construct_mub(3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        breakdown = success_exact(random_strategy(family, 0, rng))
        assert breakdown.total == pytest.approx(breakdown.total_from_signals(), abs=1e-12)


def _record_of(strat):
    """A conventional strategy as a record, built as run() lowers it."""
    from kings.game import _lower
    return _lower(strat)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_record_value_matches_conventional(d):
    """A conventional strategy's record is worth its success_exact total, for
    every prep basis."""
    family = construct_mub(d)
    rng = np.random.default_rng(d)
    for prep in range(d + 1):
        strat = random_strategy(family, prep_basis=prep, rng=rng)
        assert abs(_record_of(strat).success() - success_exact(strat).total) <= 1e-15


def _valid_tables():
    record = _record_of(d2_optimal_strategy())
    return {"mode": record.mode, "first": record.first, "control": record.control,
            "predict": record.predict}


@pytest.mark.parametrize("change, match", [
    ({"predict": np.zeros((3, 3), dtype=int)}, r"predict has shape \(3, 3\), need \(2, 3\)"),
    ({"predict": np.zeros((2, 2), dtype=int)}, r"predict has shape \(2, 2\)"),
    ({"predict": np.array([[0, 1, -1], [0, 0, 1]])}, "predicted outcome -1 is not"),
    ({"predict": np.array([[0, 1, 2], [0, 0, 1]])}, "predicted outcome 2 is not"),
    ({"predict": np.array([[0, 1, 0], [0, True, 1]], dtype=object)}, "predicted outcome True is not"),
    ({"predict": np.array([[0, 1, 0], [0, 0, 1]], dtype=bool)}, "predicted outcome False is not"),
    ({"predict": np.array([[0, 1.0, 0], [0, 0, 1]])}, "predicted outcome 0.0 is not"),
    ({"first": np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.4]])}, "sum to"),
    ({"control": np.ones((5, 2)) / 2}, "control has 5 rows, need 3 \\* 2"),
    ({"first": np.array([0.5, 0.5])}, r"first has shape \(2,\), need a 2-D table"),
    ({"control": np.full(6, 1 / 6)}, r"control has shape \(6,\), need a 2-D table"),
    ({"first": np.array([[0.5, 0.5]]), "control": np.full((2, 1, 2), 0.5),
      "predict": np.array([[0]])}, r"control has shape \(2, 1, 2\), need a 2-D table"),
    ({"first": np.array([[1.5, -0.5]]), "control": np.eye(2), "predict": np.array([[1], [1]])},
     "first has a negative probability -0.5"),
])
def test_record_validation(change, match):
    """A record checks its tables once: 2-D Born tables, the guess table's
    shape, every guess an int outcome index, no bool, and Born rows of
    non-negative weights that sum to 1.  A guess out of 0..n_out-1 names
    itself instead of wrapping round or raising a bare IndexError."""
    GameTables(**_valid_tables())  # the unchanged tables pass
    with pytest.raises(ValueError, match=match):
        GameTables(**{**_valid_tables(), **change})


def test_complement_preserves_success_and_inverts():
    for d in (2, 4):
        strat = d2_optimal_strategy() if d == 2 else d4_optimal_strategy()
        mirrored = complement_strategy(strat)
        assert isinstance(mirrored, GameTables)
        assert mirrored.source is strat
        assert mirrored.success() == pytest.approx(success_exact(strat).total, abs=1e-9)
        back = complement_strategy(mirrored)
        assert back is not strat
        assert back.prep_basis == strat.prep_basis
        assert back.prep_index == strat.prep_index
        assert np.array_equal(back.control.states, strat.control.states)
        assert success_exact(back).total == pytest.approx(success_exact(strat).total, abs=1e-12)


def test_complement_each_control_state_of_the_optimum():
    strat = d4_optimal_strategy()
    for k in range(4):
        assert complement_strategy(strat, control_state_index=k).success() == pytest.approx(0.7, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_mirrored_value_is_the_control_states_overlap_sum(d):
    """Preparing control state k wins the exchanged basis outright and
    collects F(k) on the rest: (1 + per_signal[k]) / (d + 1)."""
    rng = np.random.default_rng(40 + d)
    strat = random_strategy(construct_mub(d), int(rng.integers(d + 1)), rng)
    per_signal = success_exact(strat).per_signal
    for k in range(d):
        mirrored = complement_strategy(strat, control_state_index=k)
        assert abs(mirrored.success() - (1 + per_signal[k]) / (d + 1)) <= 1e-15


def test_run_referees_the_mirrored_d4_optimum():
    from kings.game import GameConfig, run
    from kings.verify import ACCEPTANCE_SEED

    mirrored = complement_strategy(d4_optimal_strategy())
    result = run(GameConfig(strategy=mirrored, trials=1_000_000, seed=ACCEPTANCE_SEED))
    assert result.mode == "mub-d4"
    assert abs(result.estimate - 0.7) <= 3 * result.stderr
    assert result.per_choice[0][0] == result.per_choice[0][1]  # the exchanged basis never loses


@pytest.mark.parametrize("index", [-1, 4, True, 1.0])
def test_state_indices_outside_the_dimension_are_refused(index):
    """A control state index out of 0..d-1 names itself instead of wrapping
    round or raising a bare IndexError; test_record_validation checks the
    guessed states."""
    with pytest.raises(ValueError, match=f"control_state_index {index} is not a state index"):
        complement_strategy(d4_optimal_strategy(), control_state_index=index)


def test_complement_needs_source():
    mirrored = complement_strategy(d2_optimal_strategy())
    orphan = GameTables(mirrored.mode, mirrored.first, mirrored.control, mirrored.predict)
    with pytest.raises(ValueError, match="without the source strategy"):
        complement_strategy(orphan)


def test_ceiling_bounds_the_class_not_every_ancilla_free_strategy():
    """A d = 4 record that no class strategy can be: it guesses two-to-one on
    bases 0, 2 and 4, and it is worth 17/20, above bound_p(4) = 0.7."""
    from kings.game import GameConfig, run

    family = construct_mub(4)
    psi = np.array([1, -1j, 0, 0]) / np.sqrt(2)
    r, h = 1 / np.sqrt(2), (-1 + 1j) / (2 * np.sqrt(2))
    w = np.array([[0, r, 0, r], [r, 0, r, 0], [h, h, -h, -h], [h, -h, -h, h]])
    control = overlap_matrix(family, OrthonormalBasis(label=None, states=w.T)).reshape(-1, 4)
    first = np.abs(family.array.conj() @ psi) ** 2
    # the likelier king outcome j of basis m given control outcome k
    predict = (first[:, :, None] * control.reshape(5, 4, 4)).argmax(axis=1).T
    assert predict.T.tolist() == [[1, 0, 1, 0], [2, 3, 0, 1], [1, 1, 3, 3], [3, 2, 0, 1],
                                  [1, 3, 3, 1]]
    witness = GameTables("mub-d4", first, control, predict)
    assert abs(witness.success() - 17 / 20) <= 1e-15
    assert witness.success() > bound_p(4)
    result = run(GameConfig(strategy=witness, trials=1_000_000, seed=1))
    assert abs(result.estimate - 17 / 20) <= 3 * result.stderr


def test_random_control_basis_is_orthonormal_and_seeded():
    from kings.mub import orthonormality_defect
    basis = random_control_basis(5, np.random.default_rng(9))
    assert orthonormality_defect(basis.states) < 1e-12
    again = random_control_basis(5, np.random.default_rng(9))
    assert np.array_equal(again.states, basis.states)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]))
def test_random_strategies_respect_overlap_ceiling(seed, d):
    family = construct_mub(d)
    strat = random_strategy(family, 0, np.random.default_rng(seed))
    breakdown = success_exact(strat)
    ceiling = d * overlap_target(d)
    assert max(breakdown.per_signal.values()) <= ceiling + 1e-9
    assert breakdown.total <= bound_p(d) + 1e-9
    assert breakdown.total == pytest.approx(breakdown.total_from_signals(), abs=1e-12)
    assert breakdown.per_basis[0] == 1.0
