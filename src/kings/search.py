"""Exact searches for equal-overlap signal states.

A signal state for the d = 4 family superposes one state from each of the
four non-computational bases with unit-modulus phases,

    chi = (|a> + b |b'> + c |c'> + d |d'>) / sqrt(10),

and qualifies when its squared overlap with every constituent equals
overlap_target(4) = 5/8.  One vectorized pass over all 4^4 index tuples
with phases restricted to 4th roots of unity yields exactly 32 solutions,
whose orthogonality graph has exactly 32 4-cliques: orthonormal bases that
each saturate the conventional success bound in d = 4.

The analogous d = 3 construction has no solution.  certify_d3_impossible
proves it with a phase grid plus a Lipschitz bound: every index tuple has a
floor that no phases get below, and every floor sits above delta.  The same
bound prunes the grid, so only a few percent of its nodes are evaluated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bounds import overlap_target
from .mub import MubFamily, OrthonormalBasis
from .strategy import ConventionalStrategy, SuccessBreakdown, build_strategy, success_exact

FOURTH_ROOTS: tuple[complex, ...] = (1, 1j, -1, -1j)


@dataclass
class SignalState:
    """One equal-overlap superposition found by the scan (indices 0-based)."""

    indices: tuple[int, int, int, int]
    phases: tuple[complex, complex, complex]
    vector: np.ndarray


@dataclass
class MeasurementBasis4:
    """Four mutually orthogonal signal states (indices into the scan output)."""

    members: tuple[int, int, int, int]
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


def find_signal_states(family: MubFamily, *, tol: float = 1e-9) -> list[SignalState]:
    """Scan all index tuples and 4th-root phase triples for equal overlaps.

    Requires the d = 4 family.  All 256 x 64 candidates are evaluated in one
    contraction of the per-tuple Gram matrices with the phase vectors.
    Returns solutions in lexicographic order; the squared overlap with each
    of the four constituents must equal 5/8 within `tol`.
    """
    d = family.dim
    if d != 4:
        raise ValueError(f"the scan is specific to dim 4, got {d}")
    index_tuples = list(itertools.product(range(4), repeat=4))
    phase_triples = list(itertools.product(FOURTH_ROOTS, repeat=3))
    coeffs = np.array([(1, *phases) for phases in phase_triples])
    comps = family.array[1:][np.arange(4), np.array(index_tuples)]  # (tuple, m, component)
    gram = np.einsum("tmx,tkx->tmk", comps.conj(), comps)
    amps = _norm_constant(4) * np.einsum("tmk,pk->tpm", gram, coeffs)
    dev = np.abs(np.abs(amps) ** 2 - overlap_target(d)).max(axis=-1)
    found: list[SignalState] = []
    for t, p in np.argwhere(dev < tol):
        indices, phases = index_tuples[t], phase_triples[p]
        found.append(SignalState(indices=indices, phases=phases,
                                 vector=signal_candidate(family, indices, phases)))
    return found


def refine_signal_phases(
    family: MubFamily,
    state: SignalState,
) -> tuple[float, np.ndarray]:
    """Continuously re-optimize a solution's phases.

    Returns (residual deviation, optimal phase angles).  For a true solution
    the optimizer must stay put: the residual is ~0 and the angles move by
    less than ~1e-7 from the 4th-root lattice point.
    """
    comps = np.array([family.state(m + 1, j) for m, j in enumerate(state.indices)])
    start = np.angle(np.asarray(state.phases))
    from scipy.optimize import minimize  # scipy loads only when a polish runs
    f = _phase_objective(comps, family.dim)
    res = minimize(f, start, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
    return float(res.fun), np.asarray(res.x)


def _phase_objective(comps: np.ndarray, d: int):
    n = _norm_constant(d)
    target = overlap_target(d)

    def f(angles: np.ndarray) -> float:
        coeffs = np.concatenate(([1.0], np.exp(1j * np.asarray(angles))))
        chi = n * (coeffs[:, None] * comps).sum(axis=0)
        overlaps = np.abs(comps.conj() @ chi) ** 2
        return float(np.max(np.abs(overlaps - target)))

    return f


def off_lattice_deviation(
    family: MubFamily,
    indices: tuple[int, int, int, int],
    *,
    grid_deg: float = 6.0,
    extra_starts: int = 8,
    seed: int = 0,
) -> float:
    """Best (smallest) max overlap deviation over continuous phases.

    Coarse vectorized grid seeds a Nelder-Mead polish, plus a few random
    restarts.  Solutions of the scan reach ~0; for every other index tuple
    the result stays bounded away from zero, confirming that no solutions
    hide off the 4th-root lattice.
    """
    comps = np.array([family.state(m + 1, j) for m, j in enumerate(indices)])
    gram = comps.conj() @ comps.T  # gram[m, m'] = <comp_m | comp_m'>
    n = _norm_constant(family.dim)
    target = 5.0 / 8.0
    steps = int(round(360 / grid_deg))
    ang = 2 * np.pi * np.arange(steps) / steps
    u = np.exp(1j * ang)[:, None, None]
    v = np.exp(1j * ang)[None, :, None]
    w = np.exp(1j * ang)[None, None, :]
    worst = None
    for m in range(4):
        c = gram[m]
        amp = n * (c[0] + c[1] * u + c[2] * v + c[3] * w)
        dev = np.abs(np.abs(amp) ** 2 - target)
        worst = dev if worst is None else np.maximum(worst, dev)
    flat = int(np.argmin(worst))
    gi = np.unravel_index(flat, worst.shape)
    starts = [np.array([ang[gi[0]], ang[gi[1]], ang[gi[2]]])]
    rng = np.random.default_rng(seed)
    starts += [rng.uniform(0, 2 * np.pi, 3) for _ in range(extra_starts)]
    from scipy.optimize import minimize  # scipy loads only when a polish runs
    f = _phase_objective(comps, family.dim)
    best = float(worst[gi])
    for s in starts:
        res = minimize(f, s, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 2000})
        best = min(best, float(res.fun))
    return best


def find_measurement_bases(states: list[SignalState], *, tol: float = 1e-9) -> list[MeasurementBasis4]:
    """All orthonormal quadruples among the signal states, canonically ordered.

    Enumerates the 4-cliques of the orthogonality graph (an edge wherever two
    states overlap by less than `tol`): each state is extended by the triples
    of its later neighbours, so the quadruples come out lexicographically.
    """
    vecs = np.array([s.vector for s in states])
    ortho = np.abs(vecs.conj() @ vecs.T) < tol
    out: list[MeasurementBasis4] = []
    for a in range(len(states)):
        later = [b for b in range(a + 1, len(states)) if ortho[a, b]]
        for rest in itertools.combinations(later, 3):
            if all(ortho[x, y] for x, y in itertools.combinations(rest, 2)):
                quad = (a,) + rest
                out.append(MeasurementBasis4(
                    members=quad,
                    basis=OrthonormalBasis(label=None, states=vecs[list(quad)]),
                ))
    return out


def certify_optimal_strategy(family: MubFamily, basis: MeasurementBasis4) -> tuple[ConventionalStrategy, SuccessBreakdown]:
    """Turn a signal-state basis into a strategy and check it is optimal.

    The greedy assignment pairs each covered basis state with the signal
    state holding the 5/8 overlap; the result must be well conditioned with
    every control outcome collecting the same overlap sum.  Raises ValueError
    if any of that fails (which would signal a search bug).
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
    """Grid minimum of one tuple's overlap deviation (d = 3); no phases beat its floor."""

    indices: tuple[int, int, int]
    deviation: float
    angles: tuple[float, float]
    slack: float

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


COARSE_STRIDE = 8  # certify_d3_impossible's coarse pass keeps every 8th node per angle


def _grid_deviation(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Max overlap deviation from overlap_target(3) at the phase pairs (u, v), broadcast."""
    n2 = _norm_constant(3) ** 2
    target = overlap_target(3)
    dev = np.zeros(np.broadcast_shapes(u.shape, v.shape))
    for gm in g:
        amp = gm[0] + gm[1] * u + gm[2] * v
        np.maximum(dev, np.abs(n2 * (amp.real ** 2 + amp.imag ** 2) - target), out=dev)
    return dev


def certify_d3_impossible(
    family: MubFamily,
    *,
    delta: float = 1e-3,
    grid_deg: float = 0.5,
) -> ImpossibilityReport:
    """Prove no d = 3 signal state exists for any index tuple.

    With the first phase fixed to 1 and the free angles theta_1, theta_2,
    each constituent overlap is o_m = n^2 |sum_k g_mk e^(i theta_k)|^2, where
    g is the tuple's Gram matrix.  For each of the 27 tuples the maximum
    deviation of the three overlaps from overlap_target(3) is minimized over
    a grid of spacing h = `grid_deg`.  The k = j term of the sum
    drops out of the derivative, so |d o_m / d theta_j| <= 2 n^2 |g_mj|
    sum_{k != j} |g_mk|; every point lies within h/2 of a grid node in each
    angle, so no phase pair beats the grid minimum by more than the slack
    h n^2 max_m sum_{j=1,2} |g_mj| sum_{k != j} |g_mk|.  Passes when the floor,
    grid minimum minus slack over all tuples, exceeds `delta`.

    The grid minimum is exact but found coarse to fine.  Every node lies
    within b/2 steps (b = COARSE_STRIDE, indices mod the step count) of a
    node c of the coarse grid of every b-th node in each angle, so its value
    is at least dev(c) - b slack.  Cells with dev(c) - (1 + 1e-9) b slack
    above the coarse minimum (1e-9 covers rounding) are dropped; the minimum
    over the nodes of the other cells, ties to the lowest flat index, is the
    grid minimum.
    """
    d = family.dim
    if d != 3:
        raise ValueError(f"this certificate is specific to dim 3, got {d}")
    n2 = _norm_constant(3) ** 2
    steps = int(round(360 / grid_deg))
    ang = 2 * np.pi * np.arange(steps) / steps
    phases = np.exp(1j * ang)
    b = COARSE_STRIDE
    coarse = np.arange(0, steps, b)
    offsets = np.arange(-(b // 2), b - b // 2)
    tuples: list[TupleDeviation] = []
    evaluated = 0
    for indices in itertools.product(range(3), repeat=3):
        comps = np.array([family.state(m + 1, j) for m, j in enumerate(indices)])
        g = comps.conj() @ comps.T
        a = np.abs(g)
        grad = (a * (a.sum(axis=1, keepdims=True) - a))[:, 1:].sum(axis=1)
        slack = float(2 * np.pi / steps * n2 * grad.max())
        dev = _grid_deviation(g, phases[coarse][:, None], phases[coarse][None, :])
        ci, cj = np.nonzero(dev - (1 + 1e-9) * b * slack <= dev.min())
        rows = (coarse[ci, None, None] + offsets[:, None]) % steps
        cols = (coarse[cj, None, None] + offsets) % steps
        fine = _grid_deviation(g, phases[rows], phases[cols])
        evaluated += dev.size + fine.size
        flat = np.broadcast_to(rows * steps + cols, fine.shape)
        i, j = divmod(int(flat[fine == fine.min()].min()), steps)
        tuples.append(TupleDeviation(indices=indices, deviation=float(fine.min()),
                                     angles=(float(ang[i]), float(ang[j])), slack=slack))
    return ImpossibilityReport(dim=3, delta=delta, tuples=tuples, evaluated=evaluated,
                               grid_nodes=27 * steps ** 2)


def single_overlap_deviation(
    family: MubFamily,
    indices: tuple[int, int, int],
    which: int = 0,
) -> float:
    """Smallest deviation achievable for ONE overlap alone (d = 3).

    Aligning both cross terms of the chosen constituent makes its squared
    overlap hit the target exactly, so this is ~0 for every tuple; failure is
    collective, never per-overlap.
    """
    comps = np.array([family.state(m + 1, j) for m, j in enumerate(indices)])
    g = comps.conj() @ comps.T
    n = _norm_constant(3)
    target = overlap_target(3)
    # phases that cancel the cross-term phases as seen from `which`
    coeffs = np.ones(3, dtype=complex)
    for m in range(3):
        if m != which:
            coeffs[m] = np.exp(-1j * np.angle(g[which, m]))
    coeffs = coeffs / coeffs[0]  # keep the first amplitude's phase fixed
    chi = n * (coeffs[:, None] * comps).sum(axis=0)
    return float(abs(abs(np.vdot(comps[which], chi)) ** 2 - target))
