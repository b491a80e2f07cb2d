"""Closed-form success bounds for the class of conventional strategies.

A conventional strategy prepares an eigenstate of one basis, guesses that
basis outright, and covers the other bases with one control measurement and
a bijective assignment of its outcomes.  Its success probability is at most

    bound_p(d) = (2 sqrt(d) + d - 1) / (sqrt(d) (1 + d)),

attained only if every signal state reaches squared overlap
overlap_target(d) = (sqrt(d) + d - 1) / (d sqrt(d)) with its assigned state in
each covered basis.  guess_bound / control_bound split the same accounting
between r guessed bases and s = d + 1 - r control-covered ones; the split is
rank-independent for 1 <= r <= d and strictly worse at r in {0, d+1}.

These bounds cover that class, not every ancilla-free strategy: a strategy
free to prepare any state and to guess two-to-one can do better, and
tests/test_strategy.py::test_ceiling_bounds_the_class_not_every_ancilla_free_strategy
referees a d = 4 one worth 17/20 against bound_p(4) = 0.7.

relaxed_f_max, the one equal-overlap engine, computes the exact maximum of the
per-signal overlap sum F over unit vectors and every selection attaining it;
it lives here because kings.search, which reads it, imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SEARCH_TOL
from .mub import MubFamily, selection_grams


def _check_dim(d: int) -> None:
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")


def bound_p(d: int) -> float:
    """Upper bound on the success of a conventional strategy in dimension d:
    an eigenstate preparation, one control basis and a bijective assignment.
    It does not bound every ancilla-free strategy (see the module docstring)."""
    _check_dim(d)
    rd = math.sqrt(d)
    return float((2 * rd + d - 1) / (rd * (1 + d)))


def overlap_target(d: int) -> float:
    """The squared overlap each signal state needs to saturate bound_p."""
    _check_dim(d)
    rd = math.sqrt(d)
    return float((rd + d - 1) / (d * rd))


def _split_mass(d: int, k: int, name: str) -> float:
    _check_dim(d)
    if not 0 <= k <= d + 1:
        raise ValueError(f"{name} must lie in 0..{d + 1}, got {k}")
    rd = math.sqrt(d)
    return 0.0 if k == 0 else float((rd + k - 1) / (rd * (d + 1)))


def guess_bound(d: int, r: int) -> float:
    """Bound on the total success mass of r outright-guessed bases."""
    return _split_mass(d, r, "r")


def control_bound(d: int, s: int) -> float:
    """Bound on the total success mass of s control-covered bases."""
    return _split_mass(d, s, "s")


def total_bound(d: int, r: int) -> float:
    """Combined bound when r bases are guessed and d + 1 - r are covered.

    Equals bound_p(d) for every r in 1..d and drops to
    (1 + sqrt(d)) / (1 + d) at the extremes r in {0, d+1}.
    """
    _check_dim(d)
    if not 0 <= r <= d + 1:
        raise ValueError(f"r must lie in 0..{d + 1}, got {r}")
    return guess_bound(d, r) + control_bound(d, d + 1 - r)


@dataclass
class BoundReport:
    """A bound evaluation with the formula family that produced it."""

    dim: int
    r: int | None
    value: float
    formula: str


def bound_report(d: int, r: int | None = None) -> BoundReport:
    """Evaluate the applicable bound; r is the number of guessed bases."""
    if r is None:
        return BoundReport(dim=d, r=None, value=bound_p(d), formula="conventional")
    value = total_bound(d, r)
    formula = "all-or-nothing split" if r in (0, d + 1) else "guess/control split"
    return BoundReport(dim=d, r=r, value=value, formula=formula)


@dataclass
class RelaxedMaximum:
    """F_max, a unit vector attaining it, its selection (a state index per covered
    basis), and every selection within SEARCH_TOL of F_max with its top Gram eigenvector."""

    value: float
    maximizer: np.ndarray
    selection: tuple[int, ...]
    selections: list[tuple[int, ...]]
    eigenvectors: np.ndarray


def relaxed_f_max(
    family: MubFamily,
    excluded: int = 0,
    *,
    restarts: int | None = None,
    seed: int | None = None,
) -> RelaxedMaximum:
    """Exact maximum of F(chi) = sum over bases != excluded of the best
    squared overlap of a unit vector chi with that basis.

    Swapping the maximizations over chi and over the state picked in each
    covered basis makes F_max the largest top eigenvalue of the picks' Gram
    matrix; one batched eigvalsh covers all d^d selections, ties going to the
    first.  One batched eigh gives the top eigenvector u of each selection
    within SEARCH_TOL of F_max, in lexicographic order; sum_l u_l psi_l,
    normalised, attains its eigenvalue.  F_max never exceeds
    d * overlap_target(d) for an unbiased family.  Raises ValueError, from
    selection_grams, if `excluded` is no basis label or d^d > 5^5 (d >= 7).
    `restarts` and `seed` are ignored.
    """
    tuples, grams = selection_grams(family, excluded)
    tops = np.linalg.eigvalsh(grams)[:, -1]
    best = int(tops.argmax())
    near = np.flatnonzero(tops >= tops[best] - SEARCH_TOL)
    vecs = np.linalg.eigh(grams[near])[1][:, :, -1]
    picked = np.delete(family.array, excluded, axis=0)[np.arange(family.dim), tuples[best]]
    chi = vecs[near.searchsorted(best)] @ picked
    return RelaxedMaximum(float(tops[best]), chi / np.linalg.norm(chi), tuples[best],
                          selections=[tuples[t] for t in near], eigenvectors=vecs)
