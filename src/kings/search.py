"""Exact searches for equal-overlap signal states.

A signal state has squared overlap overlap_target(d) with one state of each
basis 1..d, so its overlap sum with that selection is the ceiling
d * overlap_target(d).  No unit vector collects more than the selection's top
Gram eigenvalue, which never exceeds the ceiling, so every signal state is a
top eigenvector of a selection that reaches it: find_signal_states reads
them off bounds.relaxed_f_max, the one equal-overlap engine.  In d = 4 that
gives exactly 32 states, each the only one of its selection (every
maximizer's top eigenvalue is simple), and their orthogonality graph has
exactly 32 4-cliques: orthonormal bases that each saturate the conventional
success bound.  d = 2 gives 4 states and 2 bases; in d = 3 and 5 no
selection reaches the ceiling, so no vector of C^d is a signal state.

lattice_deviations answers the equal-overlap question for free phases in
any d: a Lipschitz branch and bound over a phase lattice gives every index
tuple its exact lattice minimum and a floor that no phases get below.  In
d = 4, on the 11.25 degree lattice, the 224 tuples outside the catalogue
have positive floors, so only the 32 catalogue tuples reach the target.
The analogous d = 3 construction has no solution: certify_d3_impossible
checks that every floor sits above DELTA, evaluating a fraction of a
percent of the nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bounds import overlap_target, relaxed_f_max
from .config import SEARCH_TOL
from .mub import MubFamily, OrthonormalBasis, selection_grams
from .strategy import ConventionalStrategy, SuccessBreakdown, build_strategy, success_exact


@dataclass
class SignalState:
    """One equal-overlap superposition (indices 0-based, one per basis 1..d)."""

    indices: tuple[int, ...]
    phases: tuple[complex, ...]
    vector: np.ndarray


@dataclass
class MeasurementBasis:
    """d mutually orthogonal signal states (indices into find_signal_states' output)."""

    members: tuple[int, ...]
    basis: OrthonormalBasis


def _norm_constant(d: int) -> float:
    return 1.0 / np.sqrt(d + np.sqrt(d) * (d - 1))


def signal_candidate(
    family: MubFamily,
    indices: tuple[int, ...],
    phases: tuple[complex, ...],
) -> np.ndarray:
    """Assemble the candidate superposition for given indices and phases."""
    comps = [family.state(m + 1, j) for m, j in enumerate(indices)]
    coeffs = (1.0,) + tuple(phases)
    return _norm_constant(family.dim) * sum(c * v for c, v in zip(coeffs, comps))


def _exact_phase(z: complex) -> complex:
    """z, or the 4th root of unity it lies within 1e-12 of, written exactly."""
    k = int(round(np.angle(z) / (np.pi / 2))) % 4
    if abs(z - 1j ** k) > 1e-12:
        return complex(z)
    return 1j ** k if k % 2 else 1 - k  # 1 and -1 as ints, as SIGNAL_CATALOG has them


def find_signal_states(family: MubFamily) -> list[SignalState]:
    """Every equal-overlap signal state of the family, in lexicographic order.

    When F_max reaches d * overlap_target(d) - SEARCH_TOL, each maximizing
    selection of bounds.relaxed_f_max, the one equal-overlap engine, yields
    with its top Gram eigenvector u the superposition of the selection with
    phases u[m] / u[0], 4th roots of unity written exactly.  It is kept when
    its squared overlap with each constituent equals overlap_target(d) within
    SEARCH_TOL.  Raises ValueError past 5^5 selections (d >= 7).
    """
    target = overlap_target(family.dim)
    relaxed = relaxed_f_max(family)
    if relaxed.value < family.dim * target - SEARCH_TOL:
        return []
    found: list[SignalState] = []
    for indices, u in zip(relaxed.selections, relaxed.eigenvectors):
        phases = tuple(_exact_phase(z) for z in u[1:] / u[0])
        vector = signal_candidate(family, indices, phases)
        amps = [np.vdot(family.state(m + 1, j), vector) for m, j in enumerate(indices)]
        if np.abs(np.abs(amps) ** 2 - target).max() < SEARCH_TOL:
            found.append(SignalState(indices=indices, phases=phases, vector=vector))
    return found


def find_measurement_bases(states: list[SignalState]) -> list[MeasurementBasis]:
    """All orthonormal bases among the signal states, canonically ordered.

    Enumerates the d-cliques, d the states' dimension, of the orthogonality
    graph (an edge wherever two states overlap by less than SEARCH_TOL): each
    state is extended by the (d - 1)-subsets of its later neighbours, so the
    bases come out lexicographically.
    """
    vecs = np.array([s.vector for s in states])
    d = vecs.shape[-1]
    ortho = np.abs(vecs.conj() @ vecs.T) < SEARCH_TOL
    out: list[MeasurementBasis] = []
    for a in range(len(states)):
        later = [b for b in range(a + 1, len(states)) if ortho[a, b]]
        for rest in itertools.combinations(later, d - 1):
            if all(ortho[x, y] for x, y in itertools.combinations(rest, 2)):
                members = (a,) + rest
                out.append(MeasurementBasis(
                    members=members,
                    basis=OrthonormalBasis(label=None, states=vecs[list(members)]),
                ))
    return out


def certify_optimal_strategy(family: MubFamily, basis: MeasurementBasis) -> tuple[ConventionalStrategy, SuccessBreakdown]:
    """Turn a signal-state basis into a strategy and check it is optimal.

    The greedy assignment pairs each covered basis state with the signal
    state holding the overlap_target(d) overlap; the result must be well
    conditioned with every control outcome collecting the same overlap sum.
    Raises ValueError if any of that fails (which would signal a search bug).
    """
    strat = build_strategy(family, prep_basis=0, prep_index=0, control=basis.basis)
    breakdown = success_exact(strat)
    ceiling = family.dim * overlap_target(family.dim)
    for k, f_sum in breakdown.per_signal.items():
        if abs(f_sum - ceiling) > 1e-9:
            raise ValueError(f"outcome {k} collects {f_sum!r} instead of {ceiling!r}")
    return strat, breakdown


@dataclass
class TupleDeviation:
    """Lattice minimum of one index tuple's overlap deviation; no phases beat its floor.

    `evaluated` counts the distinct lattice nodes at which it was computed.
    """

    indices: tuple[int, ...]
    deviation: float
    angles: tuple[float, ...]
    slack: float
    evaluated: int

    @property
    def floor(self) -> float:
        return self.deviation - self.slack


@dataclass
class ImpossibilityReport:
    """Outcome of the d = 3 certificate: `evaluated` of the `grid_nodes` node values computed."""

    dim: int
    delta: float
    tuples: list[TupleDeviation]
    evaluated: int
    grid_nodes: int

    @property
    def worst(self) -> float:
        """Smallest grid deviation over tuples: how close any tuple ever gets."""
        return min(t.deviation for t in self.tuples)

    @property
    def slack(self) -> float:
        """Largest Lipschitz slack over tuples."""
        return max(t.slack for t in self.tuples)

    @property
    def floor(self) -> float:
        """Proven lower bound on the deviation over all tuples and phases."""
        return min(t.floor for t in self.tuples)

    @property
    def passed(self) -> bool:
        return self.floor > self.delta


DELTA = 1e-3  # deviation floor the d = 3 certificate must clear
TILE = 32  # side, in lattice steps, of the boxes lattice_deviations starts from


def _lattice_steps(grid_deg: float) -> int:
    """Nodes per angle of the lattice of spacing `grid_deg` degrees."""
    if not 0 < grid_deg < 720:  # NaN fails too; from 720 degrees no node is left
        raise ValueError(f"grid_deg must lie in (0, 720) degrees to give a lattice, got {grid_deg!r}")
    return int(round(360 / grid_deg))


def _halvings(steps: int) -> list[np.ndarray]:
    """halvings[L][x]: half the side, in nodes, of the level-L interval starting at node x.

    Level 0 cuts one angle's nodes into TILE-long intervals, the last one
    shorter; each level halves every interval longer than one node into a
    lower half of side // 2 nodes and an upper half of the rest.  The last
    level has only one-node intervals.
    """
    start = np.arange(0, steps, TILE)
    size = np.minimum(TILE, steps - start)
    out = []
    while True:
        half = size // 2
        table = np.zeros(steps, dtype=int)
        table[start] = half
        out.append(table)
        if not half.any():
            return out
        split = half > 0
        start = np.concatenate([start[split], start + half])
        size = np.concatenate([half[split], size - half])


def lattice_deviations(family: MubFamily, *, grid_deg: float) -> list[TupleDeviation]:
    """Lattice minimum and Lipschitz floor of the overlap deviation for every index tuple.

    A tuple picks state j_m of basis m + 1 for m = 0..d-1; the d^d tuples come
    in lexicographic order.  With theta_0 = 0 and k = d - 1 free angles
    theta_1..theta_k, each constituent overlap is
    o_m = n^2 |sum_l g_ml e^(i theta_l)|^2, where g is the tuple's Gram
    matrix, and f = max_m |o_m - overlap_target(d)|.  The l = j term of the
    sum drops out of the derivative, so |d o_m / d theta_j| <= 2 n^2 |g_mj|
    sum_{l != j} |g_ml|.  Every point lies within h/2 of a node of the
    lattice of spacing h = `grid_deg` in each angle, so no phases beat the
    lattice minimum by more than the slack
    h n^2 max_m sum_{j >= 1} |g_mj| sum_{l != j} |g_ml|.

    The lattice minimum is exact but found by branch and bound, one tuple at
    a time.  Boxes of nodes start as TILE-sided tiles (the last one per axis
    shorter) and are halved along every axis longer than one node, so the
    boxes of level L are products of the level-L intervals of _halvings and
    a box's lower corner gives its side.  Every node of a box lies within
    r = max(side // 2) steps of its centre c = lo + side // 2 in each angle,
    so its value is at least f(c) - 2 r slack.  A box whose bound, with the
    slack widened by 1e-9 for rounding, is above the tuple's least value so
    far is dropped; the others are halved until none are left.  Ties go to
    the lowest flat node index, as np.argmin over the full lattice would
    choose.  A one-node box can repeat an earlier box's centre; `evaluated`
    counts each node once.  A tuple's boxes and its log of evaluated nodes
    are dropped before the next tuple starts, so memory scales with one
    tuple's live boxes and evaluated nodes, not with the d^d tuples.
    """
    steps = _lattice_steps(grid_deg)
    d = family.dim
    k = d - 1
    n2 = _norm_constant(d) ** 2
    target = overlap_target(d)
    ang = 2 * np.pi * np.arange(steps) / steps
    phases = np.exp(1j * ang)
    index_tuples, grams = selection_grams(family)
    a = np.abs(grams)
    grad = (a * (a.sum(axis=2, keepdims=True) - a))[:, :, 1:].sum(axis=2)
    slack = 2 * np.pi / steps * n2 * grad.max(axis=1)

    halvings = _halvings(steps)
    tiles = np.array(list(itertools.product(range(0, steps, TILE), repeat=k))).T  # lower corners
    sides = np.array(list(itertools.product((0, 1), repeat=k))).T[:, None]  # lower/upper half per axis
    strides = steps ** np.arange(k - 1, -1, -1)  # flat node index, row-major
    terms = np.empty((k, d, steps), dtype=complex)
    out = []
    for t, indices in enumerate(index_tuples):
        # terms[j, m, s] = g_m(j+1) e^(i ang[s]), plus g_m0 at j = 0; built row by
        # row, as a broadcast product would buffer its operands
        for m, g in enumerate(grams[t]):
            for j in range(k):
                np.multiply(g[j + 1], phases, out=terms[j, m])
            terms[0, m] += g[0]
        lo, best, seen = tiles, np.inf, []  # lo[:, b]: lower corner of box b; seen: centres
        for halving in halvings:
            half = halving[lo]
            c = lo + half
            amp = terms[0].take(c[0], axis=1)
            for j in range(1, k):
                amp += terms[j].take(c[j], axis=1)
            dev = np.abs(n2 * (amp.real ** 2 + amp.imag ** 2) - target).max(axis=0)
            node = strides @ c
            seen.append(node)
            low = dev.min()
            if low <= best:
                at = node[dev == low].min()
                first = at if low < best else min(first, at)
                best = low
            r = half.max(axis=0)
            keep = (r > 0) & (dev - (1 + 1e-9) * 2 * r * slack[t] <= best)
            if not keep.any():
                break
            # halve every axis: lower halves (empty where the side is 1) and upper halves
            lo, half = lo[:, keep], half[:, keep]
            nonempty = ((half[:, :, None] > 0) | sides).all(axis=0).ravel()
            lo = (lo[:, :, None] + sides * half[:, :, None]).reshape(k, -1)[:, nonempty]
        seen = np.sort(np.concatenate(seen))
        out.append(TupleDeviation(
            indices=indices, deviation=float(best), slack=float(slack[t]),
            angles=tuple(float(ang[i]) for i in np.unravel_index(first, (steps,) * k)),
            evaluated=1 + int(np.count_nonzero(seen[1:] != seen[:-1]))))
    return out


def certify_d3_impossible(family: MubFamily, *, grid_deg: float = 0.5) -> ImpossibilityReport:
    """Prove no d = 3 signal state exists for any index tuple.

    lattice_deviations gives each of the 27 index tuples its exact minimum
    deviation on the lattice of spacing `grid_deg` in the two free angles,
    and a floor, that minimum less the Lipschitz slack, below which no phase
    pair gets.  Branch and bound finds the minimum: it drops every box of
    nodes whose centre value less (1 + 1e-9) 2 r slack, r the box's
    half-width in steps, is above the least value found so far.  Passes when
    the floor over all tuples exceeds DELTA.
    """
    if family.dim != 3:
        raise ValueError(f"this certificate is specific to dim 3, got {family.dim}")
    tuples = lattice_deviations(family, grid_deg=grid_deg)
    return ImpossibilityReport(dim=3, delta=DELTA, tuples=tuples,
                               evaluated=sum(t.evaluated for t in tuples),
                               grid_nodes=27 * _lattice_steps(grid_deg) ** 2)

