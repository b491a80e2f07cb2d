"""Closed-form bounds, their split identities, and the relaxed overlap maximum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kings.bounds import (
    bound_p,
    bound_report,
    control_bound,
    guess_bound,
    overlap_target,
    relaxed_f_max,
    total_bound,
)
from kings.mub import construct_mub, selection_grams
from kings.reference import D3_RELAXED_MAX, SIGNAL_CATALOG, SUCCESS_BOUND_TABLE


def test_bound_summary_to_four_decimals():
    for d, expected in SUCCESS_BOUND_TABLE.items():
        assert round(bound_p(d), 4) == expected, d


def test_closed_form_specials():
    assert bound_p(2) == pytest.approx((4 + np.sqrt(2)) / 6, abs=1e-15)
    assert bound_p(4) == pytest.approx(0.7, abs=1e-15)
    assert overlap_target(4) == pytest.approx(5 / 8, abs=1e-15)
    assert overlap_target(2) == pytest.approx((np.sqrt(2) + 1) / (2 * np.sqrt(2)), abs=1e-15)


def test_bound_relates_to_overlap_target():
    # attaining the bound means every control outcome collects d * target
    for d in range(2, 12):
        assert bound_p(d) == pytest.approx(
            (1 + d * overlap_target(d)) / (d + 1), abs=1e-15
        )


def test_bound_decreases_with_dimension():
    values = [bound_p(d) for d in range(2, 17)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_split_identity_interior():
    for d in range(2, 10):
        for r in range(1, d + 1):
            assert abs(total_bound(d, r) - bound_p(d)) <= 1e-14, (d, r)


def test_split_identity_edges():
    for d in range(2, 10):
        edge = (1 + np.sqrt(d)) / (1 + d)
        assert total_bound(d, 0) == pytest.approx(edge, abs=1e-14)
        assert total_bound(d, d + 1) == pytest.approx(edge, abs=1e-14)
        assert edge < bound_p(d)  # all-or-nothing is strictly worse


@settings(max_examples=200)
@given(st.integers(2, 40), st.data())
def test_split_identity_property(d, data):
    r = data.draw(st.integers(1, d))
    assert abs(total_bound(d, r) - bound_p(d)) <= 1e-13


def test_guess_and_control_bounds():
    assert guess_bound(3, 0) == 0.0
    assert control_bound(3, 0) == 0.0
    # one guessed basis contributes the same mass as one covered basis
    for d in range(2, 8):
        assert guess_bound(d, 1) == pytest.approx(control_bound(d, 1), abs=1e-15)


@pytest.mark.parametrize("func", [bound_p, overlap_target])
def test_dimension_validation(func):
    with pytest.raises(ValueError):
        func(1)


def test_range_validation():
    with pytest.raises(ValueError):
        guess_bound(3, 5)
    with pytest.raises(ValueError):
        control_bound(3, -1)
    with pytest.raises(ValueError):
        total_bound(3, 6)


def test_bound_report_formulas():
    assert bound_report(4).formula == "conventional"
    assert bound_report(4).value == pytest.approx(0.7)
    assert bound_report(4, 2).formula == "guess/control split"
    assert bound_report(4, 0).formula == "all-or-nothing split"
    assert bound_report(4, 5).formula == "all-or-nothing split"


# --- relaxed overlap-sum maximum ---------------------------------------------


def test_relaxed_max_d2_hits_projector_pair_eigenvalue():
    # with two bases in play the optimum is the top eigenvalue of a sum of two
    # rank-one projectors with cross overlap 1/2: 1 + 1/sqrt(2)
    family = construct_mub(2)
    result = relaxed_f_max(family, excluded=0, restarts=16, seed=1)
    assert result.value == pytest.approx(1 + 1 / np.sqrt(2), abs=1e-9)
    assert abs(np.linalg.norm(result.maximizer) - 1) < 1e-9
    # in d = 2 the ceiling is attained exactly
    assert result.value == pytest.approx(2 * overlap_target(2), abs=1e-9)


def test_relaxed_max_d4_reaches_ceiling():
    family = construct_mub(4)
    result = relaxed_f_max(family, excluded=0, restarts=32, seed=2)
    assert result.value == pytest.approx(4 * overlap_target(4), abs=1e-7)


def test_relaxed_max_d3_falls_short():
    family = construct_mub(3)
    result = relaxed_f_max(family, excluded=0, restarts=64, seed=0)
    ceiling = 3 * overlap_target(3)
    assert result.value == pytest.approx(D3_RELAXED_MAX, abs=1e-6)
    assert ceiling - result.value > 0.017  # the d = 3 gap
    assert ceiling - result.value < 0.018


def test_relaxed_max_d3_closed_form():
    # the d = 3 Gram matrices have off-diagonal moduli 1/sqrt(3); the best
    # Bargmann phase, pi/6, puts the top eigenvalue at 1 + (2/sqrt(3)) cos(pi/18)
    closed = 1 + 2 / np.sqrt(3) * np.cos(np.pi / 18)
    assert abs(relaxed_f_max(construct_mub(3)).value - closed) <= 1e-12
    assert abs(D3_RELAXED_MAX - closed) <= 1e-9


def test_relaxed_max_never_exceeds_ceiling():
    for d in (2, 3, 5):
        family = construct_mub(d)
        result = relaxed_f_max(family, excluded=0, restarts=24, seed=5)
        assert result.value <= d * overlap_target(d) + 1e-9


def test_relaxed_max_deterministic_per_seed():
    family = construct_mub(3)
    a = relaxed_f_max(family, excluded=0, restarts=8, seed=11)
    b = relaxed_f_max(family, excluded=0, restarts=8, seed=11)
    assert a.value == b.value
    assert np.array_equal(a.maximizer, b.maximizer)


def _multistart_f_max(family, excluded=0, *, restarts=64, seed=0):
    """The earlier heuristic relaxed_f_max, kept verbatim as a reference: multistart
    block-coordinate ascent over the per-basis best states."""
    arr = np.stack([family.bases[i].states for i in family.labels if i != excluded])
    d = family.dim
    best_val = -np.inf
    best_vec = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        chi = rng.normal(size=d) + 1j * rng.normal(size=d)
        chi /= np.linalg.norm(chi)
        prev = -np.inf
        for _ in range(500):
            overlaps = np.abs(np.einsum("ijm,m->ij", arr.conj(), chi)) ** 2
            selected = overlaps.argmax(axis=1)
            picked = arr[np.arange(arr.shape[0]), selected]
            accum = picked.T @ picked.conj()  # sum of projectors onto the picks
            evals, evecs = np.linalg.eigh(accum)
            chi = evecs[:, -1]
            if evals[-1] - prev < 1e-12:
                break
            prev = evals[-1]
        value = float((np.abs(np.einsum("ijm,m->ij", arr.conj(), chi)) ** 2).max(axis=1).sum())
        if value > best_val:
            best_val = value
            best_vec = chi
    return best_val, best_vec


def _overlap_sum(covered, chis):
    """F for each column of `chis`: the best squared overlap per covered basis, summed."""
    return (np.abs(covered.conj() @ chis) ** 2).max(axis=1).sum(axis=0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_relaxed_max_is_a_certificate(d):
    family = construct_mub(d)
    rng = np.random.default_rng(1000 + d)
    chis = rng.normal(size=(d, 10_000)) + 1j * rng.normal(size=(d, 10_000))
    chis /= np.linalg.norm(chis, axis=0)
    for excluded in family.labels:
        result = relaxed_f_max(family, excluded)
        covered = np.delete(family.array, excluded, axis=0)
        assert len(result.selection) == d and all(type(j) is int for j in result.selection)
        # attained: the maximizer collects exactly the claimed value
        assert abs(np.linalg.norm(result.maximizer) - 1) < 1e-12
        assert abs(_overlap_sum(covered, result.maximizer[:, None])[0] - result.value) <= 1e-12
        # never beaten, neither by random unit vectors nor by the multistart ascent
        assert _overlap_sum(covered, chis).max() <= result.value + 1e-12, excluded
        assert _multistart_f_max(family, excluded)[0] <= result.value + 1e-12, excluded
        assert result.value <= d * overlap_target(d) + 1e-12
        # every maximizing selection, once each and in lexicographic order, with
        # a unit top eigenvector whose Rayleigh quotient on its Gram matrix is F_max
        assert result.selections == sorted(set(result.selections))
        assert result.selection in result.selections
        tuples, grams = selection_grams(family, excluded)
        row = {t: i for i, t in enumerate(tuples)}
        u = result.eigenvectors
        assert u.shape == (len(result.selections), d)
        assert np.abs(np.linalg.norm(u, axis=1) - 1).max() < 1e-12
        g = grams[[row[t] for t in result.selections]]
        rayleigh = np.einsum("ti,tij,tj->t", u.conj(), g, u).real
        assert np.abs(rayleigh - result.value).max() <= 1e-9


@pytest.mark.parametrize("d, count", [(2, 4), (3, 18), (5, 500)])  # d = 4: the catalogue test below
def test_relaxed_max_counts_every_maximizing_selection(d, count):
    assert len(relaxed_f_max(construct_mub(d)).selections) == count


def test_relaxed_max_d4_selections_are_the_catalogue_tuples():
    catalogue = sorted(tuple(j - 1 for j in row[:4]) for row in SIGNAL_CATALOG)
    assert relaxed_f_max(construct_mub(4)).selections == catalogue


@pytest.mark.parametrize("excluded", [-1, 4, 7, True, np.True_, 1.0])
def test_relaxed_max_rejects_unknown_excluded_basis(excluded):
    # -1 or 7 used to drop no basis and sum all four, giving 2.618 > 3 * overlap_target(3)
    # a bool or a whole-number float used to pass the label check as 1 and fail inside np.delete
    with pytest.raises(ValueError, match="excluded"):
        relaxed_f_max(construct_mub(3), excluded)


def test_relaxed_max_refuses_d7():
    with pytest.raises(ValueError, match="823543 selections"):
        relaxed_f_max(construct_mub(7))
