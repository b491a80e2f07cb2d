"""Conventional retrodiction strategies and their exact success probability.

A conventional strategy prepares one eigenstate of a designated basis, guesses
that basis outright, and covers every other basis with a single orthogonal
control measurement.  The preparation and the control fix the rest: the
strategy derives its squared overlaps and an AssignmentMap, one (d + 1, d)
int array whose row i lists the control outcome signalling each state of
basis i.  Its only row of -1 is the preparation basis, and every other row is
a permutation, so each control outcome commits to exactly one prediction per
basis.  A map with that property is "well conditioned".

GameTables is the one record of an ancilla-free strategy in index space:
outcome tables plus a guess table, worth their table value.  The Monte Carlo
referee plays it; a conventional strategy's tables() builds one, and so does
the role exchange.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mub import MubFamily, OrthonormalBasis, _is_index
from .config import COMPARISON_TOL, CONSTRUCTION_TOL


def overlap_matrix(family: MubFamily, control: OrthonormalBasis) -> np.ndarray:
    """Squared overlaps o[i, j, k] = |<chi_k | psi_j^i>|^2 for all bases i."""
    if control.dim != family.dim:
        raise ValueError(f"dimension mismatch: control {control.dim} vs family {family.dim}")
    amp = np.einsum("km,ijm->ijk", control.states.conj(), family.array)
    return np.abs(amp) ** 2


@dataclass
class AssignmentMap:
    """Pairing between control outcomes k and basis states j of covered bases.

    forward[i, j] = k: state j of basis i is signalled by outcome k.  forward
    has one row per basis of the family and one column per state; a row of -1
    is a basis the map does not cover.  prediction[k, i] = j inverts forward
    on the rows that are bijections and is -1 elsewhere.  forward is made
    read-only, so bijective and prediction are derived once and are
    read-only too.
    """

    forward: np.ndarray

    def __post_init__(self) -> None:
        self.forward = np.asarray(self.forward)
        self.forward.setflags(write=False)

    @cached_property
    def bijective(self) -> np.ndarray:
        """bijective[i]: row i is a permutation of the control outcomes."""
        out = (np.sort(self.forward, axis=1) == np.arange(self.forward.shape[1])).all(axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def prediction(self) -> np.ndarray:
        prediction = np.full(self.forward.shape[::-1], -1)
        rows = self.bijective.nonzero()[0]
        prediction[self.forward[rows], rows[:, None]] = np.arange(self.forward.shape[1])
        prediction.setflags(write=False)
        return prediction

    def _broken(self) -> np.ndarray:
        """The covered bases on which the map is not a bijection."""
        return ((self.forward.min(axis=1) >= 0) & ~self.bijective).nonzero()[0]

    def is_well_conditioned(self) -> bool:
        return self._broken().size == 0


def _assign_greedy(overlaps: np.ndarray, prep_basis: int) -> AssignmentMap:
    forward = overlaps.argmax(axis=2)
    # a mask, not forward[prep_basis]: an out-of-range basis excludes no row
    # instead of raising here or wrapping around
    forward[np.arange(len(forward)) == prep_basis] = -1
    return AssignmentMap(forward)


def assign_greedy(family: MubFamily, prep_basis: int, control: OrthonormalBasis) -> AssignmentMap:
    """Assign each covered basis state to its best-overlap control outcome.

    Ties break toward the lowest outcome index.  The result need not be
    bijective; feed it to repair_well_conditioned.
    """
    return _assign_greedy(overlap_matrix(family, control), prep_basis)


def _max_assignment(rows: list[list[float]]) -> list[int]:
    """cols[j]: the column of row j in a bijection maximizing the summed entries.

    A port of the shortest augmenting path solver that scipy's
    linear_sum_assignment runs (D. F. Crouse, IEEE TAES 52(4), 2016), for a
    square matrix and costs -rows.  It scans the unvisited columns in scipy's
    order and sends a tie to an unassigned column, so it returns scipy's
    bijection, ties included.
    """
    n = len(rows)
    u, v = [0.0] * n, [0.0] * n  # dual variables of the rows and the columns
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        cost = [math.inf] * n  # shortest path cost to each column
        remaining, visited = list(range(n - 1, -1, -1)), []
        i, low = cur, 0.0
        while True:  # grow the shortest path tree until it reaches a free column
            row, ui, low_next = rows[i], u[i], math.inf
            for j in remaining:
                c = low - row[j] - ui - v[j]  # scipy's order of operations
                if c < cost[j]:
                    path[j], cost[j] = i, c
                else:
                    c = cost[j]
                if c < low_next or c == low_next and row4col[j] < 0:
                    low_next, best = c, j
            if low_next == math.inf:  # NaN overlaps: no finite path
                raise ValueError("overlaps must be finite")
            low, j = low_next, best
            remaining[remaining.index(j)] = remaining[-1]
            remaining.pop()
            visited.append(j)
            i = row4col[j]
            if i < 0:
                break
        u[cur] += low
        for k in visited:  # each visited column but the last is matched to a visited row
            v[k] -= low - cost[k]
            if row4col[k] >= 0:
                u[row4col[k]] += low - cost[k]
        while True:  # augment along the path back to the current row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def repair_well_conditioned(raw: AssignmentMap, overlaps: np.ndarray) -> AssignmentMap:
    """Make the map bijective per basis without losing overlap mass.

    Bases where `raw` is already bijective are kept as-is (a bijective greedy
    map is automatically the best bijection).  Elsewhere a shortest augmenting
    path solver finds the bijection maximizing the summed overlap, for every
    d, and breaks ties exactly as scipy's linear_sum_assignment does.
    `overlaps` is the (d+1, d, d) tensor from overlap_matrix.
    """
    forward = raw.forward.copy()
    for i in raw._broken():
        forward[i] = _max_assignment(overlaps[i].tolist())  # [j] -> k
    return AssignmentMap(forward)


@dataclass
class ConventionalStrategy:
    """Eigenstate preparation + one control basis, and what they fix.

    The read-only overlap tensor and the assignment (the greedy map repaired
    to a bijection on every basis but the prepared one) are derived when the
    strategy is built, so dataclasses.replace derives them afresh.
    """

    family: MubFamily
    prep_basis: int
    prep_index: int
    control: OrthonormalBasis
    overlaps: np.ndarray = field(init=False)
    assignment: AssignmentMap = field(init=False)

    def __post_init__(self) -> None:
        if not self.control.defect <= CONSTRUCTION_TOL:  # NaN fails too, before the repair
            raise ValueError(f"control basis is not orthonormal (defect {self.control.defect:g})")
        self.overlaps = overlap_matrix(self.family, self.control)
        self.overlaps.setflags(write=False)
        if not _is_index(self.prep_basis, self.family.labels):
            raise ValueError(f"prep_basis {self.prep_basis} is not a basis label "
                             f"0..{self.family.dim}")
        if not _is_index(self.prep_index, range(self.family.dim)):
            raise ValueError(f"prep_index {self.prep_index} is not a state index "
                             f"0..{self.family.dim - 1}")
        self.assignment = repair_well_conditioned(
            _assign_greedy(self.overlaps, self.prep_basis), self.overlaps)

    @property
    def preparation(self) -> np.ndarray:
        return self.family.state(self.prep_basis, self.prep_index)

    def tables(self) -> GameTables:
        """The strategy's record, built afresh on every call: the king's Born
        weights on the preparation, the overlaps as control rows, and the
        assignment's predictions with the guessed basis called prep_index."""
        family, d = self.family, self.family.dim
        first = np.abs(np.einsum("ijm,m->ij", family.array.conj(), self.preparation)) ** 2
        control = self.overlaps.reshape(-1, d)
        predict = self.assignment.prediction.copy()
        predict[:, self.prep_basis] = self.prep_index
        return GameTables(f"mub-d{d}", first, control, predict)


def build_strategy(family: MubFamily, prep_basis: int, prep_index: int,
                   control: OrthonormalBasis) -> ConventionalStrategy:
    """The conventional strategy that prepares state prep_index of basis
    prep_basis and measures control; it derives its own assignment."""
    return ConventionalStrategy(family, prep_basis, prep_index, control)


def random_control_basis(d: int, rng: np.random.Generator) -> OrthonormalBasis:
    """Haar-random orthonormal basis of C^d (rows are the states)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return OrthonormalBasis(label=None, states=q.T)


def random_strategy(family: MubFamily, prep_basis: int, rng: np.random.Generator) -> ConventionalStrategy:
    return build_strategy(family, prep_basis, 0, random_control_basis(family.dim, rng))


@dataclass
class SuccessBreakdown:
    """Exact success probability with per-basis and per-outcome accounting.

    per_basis[i] is the success probability conditional on the king choosing
    basis i; per_signal[k] is the overlap sum F(k) collected by control
    outcome k across the covered bases.
    """

    total: float
    per_basis: dict[int, float]
    per_signal: dict[int, float]

    def total_from_signals(self) -> float:
        """Recompute the total from the per-outcome sums (regrouped form)."""
        d = len(self.per_signal)
        return (1.0 + sum(self.per_signal.values()) / d) / (d + 1)


def success_exact(strategy: ConventionalStrategy) -> SuccessBreakdown:
    """Exact success probability of a well-conditioned conventional strategy.

    The king picks any of the d+1 bases uniformly; the guessed basis is always
    right, and a covered basis i contributes the mean of its assigned squared
    overlaps f(i, j).
    """
    d = strategy.family.dim
    covered = np.flatnonzero(np.arange(d + 1) != strategy.prep_basis)
    forward = strategy.assignment.forward[covered]
    # f[r, j]: the overlap of state j of basis covered[r] with its assigned outcome
    f = strategy.overlaps[covered[:, None], np.arange(d), forward]
    means = np.ones(d + 1)  # the guessed basis is always right
    means[covered] = f.mean(axis=1)
    per_basis = dict(enumerate(means.tolist()))
    # bincount adds the weights in row-major order, as a loop over (i, j) would
    per_signal = dict(enumerate(np.bincount(forward.ravel(), f.ravel(), minlength=d).tolist()))
    total = sum(per_basis.values()) / (d + 1)  # in label order
    return SuccessBreakdown(total=total, per_basis=per_basis, per_signal=per_signal)


@dataclass
class GameTables:
    """An ancilla-free strategy as outcome tables in index space.

    first[c] is the king's outcome distribution for choice c,
    control[c * n_out + o] the control distribution after king outcome o, and
    predict[k, c] the king outcome called on control outcome k.  Cube signs
    index as +1 -> 0 and -1 -> 1.  Both tables must be 2-D; they are
    renormalized and predict checked once, when the record is built.  A
    role-exchanged record keeps the strategy it came from as `source`, so
    the exchange can be undone.
    """

    mode: str
    first: np.ndarray
    control: np.ndarray
    predict: np.ndarray
    source: ConventionalStrategy | None = None

    def __post_init__(self) -> None:
        for name in ("first", "control"):
            table = np.asarray(getattr(self, name))
            if table.ndim != 2:
                raise ValueError(f"{name} has shape {table.shape}, need a 2-D table")
            setattr(self, name, _check_probs(table, name))
        n_choices, n_out = self.first.shape
        if self.control.shape[0] != n_choices * n_out:
            raise ValueError(f"control has {self.control.shape[0]} rows, "
                             f"need {n_choices} * {n_out}")
        predict = np.asarray(self.predict)
        if predict.shape != (self.control.shape[1], n_choices):
            raise ValueError(f"predict has shape {predict.shape}, "
                             f"need {(self.control.shape[1], n_choices)}")
        if predict.dtype.kind not in "iu" or not ((predict >= 0) & (predict < n_out)).all():
            for p in predict.ravel().tolist():  # name the first bad entry
                if not _is_index(p, range(n_out)):
                    raise ValueError(f"predicted outcome {p!r} is not an outcome index "
                                     f"0..{n_out - 1}")
        self.predict = predict.astype(int)

    def win(self) -> np.ndarray:
        """win[c, o * n_k + k]: control outcome k calls king outcome o for choice c."""
        n_choices, n_out = self.first.shape
        return (self.predict.T[:, None, :] == np.arange(n_out)[:, None]).reshape(n_choices, -1)

    def success(self) -> float:
        return success_exact_general(self)


def _check_probs(p: np.ndarray, name: str) -> np.ndarray:
    """Renormalize a Born distribution, rejecting real corruption: a row that
    does not sum to 1 or a negative weight, which the sampler's CDF cannot play."""
    s = p.sum(axis=-1, keepdims=True)
    if not np.all(np.abs(s - 1.0) <= COMPARISON_TOL):  # a NaN sum fails too
        raise ValueError(f"{name} probabilities sum to {s.ravel()!r}, not 1")
    if (p < 0).any():
        raise ValueError(f"{name} has a negative probability {float(p.min())!r}")
    return p / s


def success_exact_general(tables: GameTables) -> float:
    """Exact table value of a record: the mean over the king's choices c of
    sum_{o,k} first[c, o] control[c * n_out + o, k] win[c, o * n_k + k]."""
    n_choices = tables.first.shape[0]
    joint = (tables.first.reshape(-1, 1) * tables.control).reshape(n_choices, -1)
    return float((joint * tables.win()).sum(axis=1).mean())


def complement_strategy(
    strategy: ConventionalStrategy | GameTables,
    control_state_index: int = 0,
) -> GameTables | ConventionalStrategy:
    """Exchange the roles of the preparation basis and the control basis.

    From a conventional strategy this builds the mirrored record: prepare
    control state i, guess every formerly covered basis m by the
    assignment's prediction[i, m] whatever the control outcome, and measure
    in the formerly guessed basis p, where outcome k calls state k.  Applying
    the exchange to such a record returns a copy of its source strategy.
    """
    if isinstance(strategy, GameTables):
        if strategy.source is None:
            raise ValueError("cannot exchange roles without the source strategy")
        return copy.copy(strategy.source)  # checked when it was built
    prep = strategy.prep_basis
    family, d = strategy.family, strategy.family.dim
    if not _is_index(control_state_index, range(d)):
        raise ValueError(f"control_state_index {control_state_index} is not a state index "
                         f"0..{d - 1}")
    predict = np.tile(strategy.assignment.prediction[control_state_index], (d, 1))
    predict[:, prep] = np.arange(d)
    return GameTables(
        mode=f"mub-d{d}",
        first=strategy.overlaps[..., control_state_index],
        control=overlap_matrix(family, family.bases[prep]).reshape(-1, d),
        predict=predict,
        source=strategy,
    )
