"""The signal-state eigenproblem, its basis assembly, and the d = 3 certificate."""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

import kings.bounds
import kings.mub
import kings.search
from kings.bounds import bound_p, overlap_target
from kings.mub import OrthonormalBasis, construct_mub, selection_grams
from kings.reference import BASIS_CATALOG, D3_WORST_MIN_DEVIATION, SIGNAL_CATALOG
from kings.search import (
    TILE,
    MeasurementBasis,
    SignalState,
    _norm_constant,
    certify_d3_impossible,
    certify_optimal_strategy,
    find_measurement_bases,
    find_signal_states,
    lattice_deviations,
    signal_candidate,
)


@pytest.fixture(scope="module")
def family4():
    return construct_mub(4)


@pytest.fixture(scope="module")
def signals(family4):
    return find_signal_states(family4)


@pytest.fixture(scope="module")
def bases(signals):
    return find_measurement_bases(signals)


def test_scan_finds_exactly_32(signals):
    assert len(signals) == 32


def test_scan_matches_catalog(signals):
    got = {
        tuple(x + 1 for x in s.indices) + tuple(complex(p) for p in s.phases)
        for s in signals
    }
    expected = {
        (i, j, k, l, complex(b), complex(c), complex(d))
        for i, j, k, l, b, c, d in SIGNAL_CATALOG
    }
    assert got == expected


def test_signal_states_enumerate_the_selections_once(monkeypatch):
    # relaxed_f_max is the one engine: find_signal_states builds no Gram matrices of its own
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return selection_grams(*args, **kwargs)

    for module in (kings.mub, kings.bounds, kings.search):
        monkeypatch.setattr(module, "selection_grams", counted)
    find_signal_states(construct_mub(4))
    assert len(calls) == 1


def test_signal_states_have_equal_overlaps(family4, signals):
    target = overlap_target(4)
    for s in signals:
        assert abs(np.linalg.norm(s.vector) - 1) < 1e-12
        for m, j in enumerate(s.indices):
            p = abs(np.vdot(family4.state(m + 1, j), s.vector)) ** 2
            assert p == pytest.approx(target, abs=1e-12)


def test_signal_candidate_assembly(family4, signals):
    for s in signals:
        rebuilt = signal_candidate(family4, s.indices, s.phases)
        assert np.abs(rebuilt - s.vector).max() <= 1e-15


def _fourth_root_scan(family, tol=1e-9):
    """The earlier d = 4 scan, kept as a reference: every index tuple times every
    4th-root phase triple, in one contraction with the selection Gram matrices."""
    index_tuples, grams = selection_grams(family)
    phase_triples = list(itertools.product((1, 1j, -1, -1j), repeat=3))
    coeffs = np.array([(1, *phases) for phases in phase_triples])
    amps = _norm_constant(4) * np.einsum("tmk,pk->tpm", grams, coeffs)
    dev = np.abs(np.abs(amps) ** 2 - overlap_target(4)).max(axis=-1)
    return [(index_tuples[t], phase_triples[p],
             signal_candidate(family, index_tuples[t], phase_triples[p]))
            for t, p in np.argwhere(dev < tol)]


def test_eigenvectors_equal_the_fourth_root_scan(family4, signals):
    want = _fourth_root_scan(family4)
    assert len(want) == 32
    assert [s.indices for s in signals] == [w[0] for w in want]
    assert [repr(s.phases) for s in signals] == [repr(w[1]) for w in want]
    assert [s.vector.tobytes() for s in signals] == [w[2].tobytes() for w in want]


def test_tables_3_and_4_equal_the_catalogue_byte_for_byte(tmp_path, monkeypatch, family4):
    """Signed zeros included: the catalogue's -1j prints its real part as -0.0."""
    from kings import tables

    engine = tables.write_tables(str(tmp_path / "engine"), which=(3, 4))
    states = []
    for row in SIGNAL_CATALOG:
        indices = tuple(j - 1 for j in row[:4])
        states.append(SignalState(indices=indices, phases=row[4:],
                                  vector=signal_candidate(family4, indices, row[4:])))
    bases = [MeasurementBasis(members=tuple(m - 1 for m in row),
                              basis=OrthonormalBasis(None, np.array([states[m - 1].vector for m in row])))
             for row in BASIS_CATALOG]
    monkeypatch.setattr(tables, "find_signal_states", lambda family: states)
    monkeypatch.setattr(tables, "find_measurement_bases", lambda signals: bases)
    catalogue = tables.write_tables(str(tmp_path / "catalogue"), which=(3, 4))
    names = ["table3.csv", "table3.json", "table4.csv", "table4.json"]
    assert [os.path.basename(p) for p in engine] == [os.path.basename(p) for p in catalogue] == names
    for ours, theirs in zip(engine, catalogue):
        with open(ours, "rb") as a, open(theirs, "rb") as b:
            assert a.read() == b.read()
    assert '"re": -0.0' in (tmp_path / "engine" / "table3.json").read_text()


def test_catalogue_is_every_signal_state_of_c4(family4):
    """A signal state is a top eigenvector of a selection whose top Gram
    eigenvalue is 2.5.  Only the 32 catalogue selections reach it, each with a
    simple top eigenvalue, so their top eigenvectors are the only signal
    states in C^4, up to a global phase."""
    index_tuples, grams = selection_grams(family4)
    eig = np.linalg.eigvalsh(grams)
    catalogue = {row[:4] for row in SIGNAL_CATALOG}
    inside = np.array([tuple(j + 1 for j in t) in catalogue for t in index_tuples])
    assert inside.sum() == 32
    assert eig[~inside, -1].max() <= 2.3547
    assert np.abs(eig[inside, -1] - 2.5).max() < 1e-12
    assert (eig[inside, -1] - eig[inside, -2]).min() >= 1.9


@pytest.mark.parametrize("d, gap", [(3, 0.017542), (5, 0.117377)])
def test_no_signal_states_below_the_ceiling(d, gap):
    """No selection's top eigenvalue reaches d * overlap_target(d), so no vector
    of C^d has the target overlap with one state of every covered basis."""
    family = construct_mub(d)
    assert find_signal_states(family) == []
    assert find_measurement_bases([]) == []
    _, grams = selection_grams(family)
    top = np.linalg.eigvalsh(grams)[:, -1].max()
    assert d * overlap_target(d) - top == pytest.approx(gap, abs=5e-7)


def test_d2_every_basis_gives_the_optimal_strategy():
    family = construct_mub(2)
    signals = find_signal_states(family)
    bases = find_measurement_bases(signals)
    assert (len(signals), len(bases)) == (4, 2)
    for b in bases:
        _, breakdown = certify_optimal_strategy(family, b)
        assert breakdown.total == pytest.approx(bound_p(2), abs=1e-12)


def test_selections_past_5_to_the_5_are_refused_before_any_array(monkeypatch):
    family = construct_mub(7)

    def enumerate_selections(*args, **kwargs):
        raise AssertionError("the d = 7 selections were enumerated")

    monkeypatch.setattr(itertools, "product", enumerate_selections)
    with pytest.raises(ValueError, match="823543 selections"):
        find_signal_states(family)
    with pytest.raises(ValueError, match="823543 selections"):
        lattice_deviations(family, grid_deg=90.0)


# --- d = 4 off the 4th-root lattice --------------------------------------------

D4_GRID_DEG = 11.25  # 32 steps per angle, so the 4th roots of unity are lattice nodes
CATALOGUE_PHASES = {
    (i - 1, j - 1, k - 1, l - 1): (b, c, d) for i, j, k, l, b, c, d in SIGNAL_CATALOG
}


@pytest.fixture(scope="module")
def d4_lattice_traced(family4):
    """The module's one d = 4 lattice run, under tracemalloc: the lattice and
    its traced peak."""
    return _traced(lambda: lattice_deviations(family4, grid_deg=D4_GRID_DEG))


@pytest.fixture(scope="module")
def d4_lattice(d4_lattice_traced):
    return d4_lattice_traced[0]


def test_d4_only_catalogue_tuples_reach_the_target(d4_lattice):
    """The 32 catalogue tuples reach the target at their catalogue phases; the
    other 224 have a positive floor, so no phases at all bring them there."""
    assert [t.indices for t in d4_lattice] == list(itertools.product(range(4), repeat=4))
    assert sum(t.indices in CATALOGUE_PHASES for t in d4_lattice) == 32
    for t in d4_lattice:
        if t.indices in CATALOGUE_PHASES:
            assert t.deviation < 1e-12
            phases = np.exp(1j * np.array(t.angles))
            assert np.abs(phases - CATALOGUE_PHASES[t.indices]).max() < 1e-12
        else:
            assert t.floor > 1e-3


def test_d4_floor_holds_off_the_lattice(family4, d4_lattice):
    """The k = 3 slack is a bound: no continuous phase triple gets below the floor."""
    others = [t for t in d4_lattice if t.indices not in CATALOGUE_PHASES]
    lowest = min(others, key=lambda t: t.floor)
    picks = [lowest] + [t for t in others if t.indices in ((0, 0, 0, 1), (3, 0, 1, 2))]
    assert len(picks) == 3
    h = np.radians(D4_GRID_DEG)
    rng = np.random.default_rng(4)
    for t in picks:
        # the slack bounds the derivative along all three free angles (n^2 = 1/10)
        comps = np.array([family4.state(m + 1, j) for m, j in enumerate(t.indices)])
        a = np.abs(comps.conj() @ comps.T)
        lipschitz = max(sum(a[m, j] * (a[m].sum() - a[m, j]) for j in (1, 2, 3)) for m in range(4))
        assert t.slack == pytest.approx(h * lipschitz / 10, rel=1e-12)
        angles = rng.uniform(0, 2 * np.pi, size=(10_000, 3))
        dev = _deviations(family4, t.indices, angles)
        assert dev.min() >= t.floor
        # the slack covers the drop from the nearest lattice node to any point
        nodes = h * np.round(angles / h)
        assert (_deviations(family4, t.indices, nodes) - dev).max() <= t.slack
        # the lattice minimum is attained at the reported angles
        at_node = _deviations(family4, t.indices, np.array([t.angles]))[0]
        assert at_node == pytest.approx(t.deviation, abs=1e-12)


def test_bases_match_catalog(bases):
    assert len(bases) == 32
    got = [tuple(m + 1 for m in b.members) for b in bases]
    assert got == BASIS_CATALOG  # canonical (lexicographic) order
    assert got[0] == (1, 11, 22, 32)


def test_each_signal_state_sits_in_four_bases(bases):
    counts = np.zeros(32, dtype=int)
    for b in bases:
        for m in b.members:
            counts[m] += 1
    assert np.all(counts == 4)


def test_bases_are_orthonormal(bases):
    from kings.mub import orthonormality_defect
    for b in bases:
        assert orthonormality_defect(b.basis.states) < 1e-9


def test_every_basis_gives_the_optimal_strategy(family4, bases):
    for b in bases[:4] + bases[-2:]:
        strat, breakdown = certify_optimal_strategy(family4, b)
        assert breakdown.total == pytest.approx(0.7, abs=1e-12)
        assert all(abs(f - 2.5) < 1e-9 for f in breakdown.per_signal.values())


def test_certify_rejects_non_saturating_basis(family4):
    fake = MeasurementBasis(members=(0, 1, 2, 3), basis=family4.bases[1])
    with pytest.raises(ValueError):
        certify_optimal_strategy(family4, fake)


# --- d = 3 --------------------------------------------------------------------


@pytest.fixture(scope="module")
def d3_report():
    return certify_d3_impossible(construct_mub(3))


def test_d3_all_tuples_fail(d3_report):
    assert d3_report.passed
    assert len(d3_report.tuples) == 27
    assert all(t.deviation > 1e-3 for t in d3_report.tuples)
    assert d3_report.floor > d3_report.delta
    assert d3_report.floor == min(t.deviation - t.slack for t in d3_report.tuples)


def _deviations(family, indices, angles):
    """Max overlap deviation from the target at each row of (theta_1, ..., theta_{d-1})."""
    d = family.dim
    comps = np.array([family.state(m + 1, j) for m, j in enumerate(indices)])
    coeffs = np.concatenate([np.ones((len(angles), 1)), np.exp(1j * angles)], axis=1)
    chi = coeffs @ comps / np.sqrt(d + (d - 1) * np.sqrt(d))
    overlaps = np.abs(chi @ comps.conj().T) ** 2
    return np.abs(overlaps - overlap_target(d)).max(axis=1)


@pytest.mark.parametrize("grid_deg", [0.5, 1.0])
def test_d3_floor_holds_off_the_grid(grid_deg):
    """The floor is a bound: no continuous phase pair gets below it."""
    family = construct_mub(3)
    report = certify_d3_impossible(family, grid_deg=grid_deg)
    assert report.passed
    h = np.radians(grid_deg)
    rng = np.random.default_rng(3)
    for t in report.tuples:
        angles = rng.uniform(0, 2 * np.pi, size=(10_000, 2))
        dev = _deviations(family, t.indices, angles)
        assert dev.min() >= t.floor
        # the slack covers the drop from the nearest grid node to any point
        nodes = h * np.round(angles / h)
        assert (_deviations(family, t.indices, nodes) - dev).max() <= t.slack
        # the grid minimum is attained at the reported angles
        at_grid = _deviations(family, t.indices, np.array([t.angles]))[0]
        assert at_grid == pytest.approx(t.deviation, abs=1e-12)


def _d3_full_grid(family, grid_deg):
    """Reference: the certificate's grid minimum with every node evaluated."""
    import itertools

    from kings.search import _norm_constant

    n2 = _norm_constant(3) ** 2
    target = overlap_target(3)
    steps = int(round(360 / grid_deg))
    ang = 2 * np.pi * np.arange(steps) / steps
    u = np.exp(1j * ang)[:, None]
    v = np.exp(1j * ang)[None, :]
    tuples = []
    for indices in itertools.product(range(3), repeat=3):
        comps = np.array([family.state(m + 1, j) for m, j in enumerate(indices)])
        g = comps.conj() @ comps.T
        dev = np.zeros((steps, steps))
        for gm in g:
            amp = gm[0] + gm[1] * u + gm[2] * v
            np.maximum(dev, np.abs(n2 * (amp.real ** 2 + amp.imag ** 2) - target), out=dev)
        gi = np.unravel_index(int(np.argmin(dev)), dev.shape)
        a = np.abs(g)
        grad = (a * (a.sum(axis=1, keepdims=True) - a))[:, 1:].sum(axis=1)
        tuples.append((indices, float(dev[gi]), (float(ang[gi[0]]), float(ang[gi[1]])),
                       float(2 * np.pi / steps * n2 * grad.max())))
    return tuples


@pytest.mark.parametrize("grid_deg", [0.5, 1.0, 0.7, 3.0, 10.0, 45.0, 90.0, 400.0])
def test_d3_pruned_grid_equals_full_grid(grid_deg):
    """Branch and bound returns the full grid's minimum, bit for bit.

    At 0.7 degrees the step count (514) is not a multiple of the tile side,
    so the short last tiles are exercised too, and grid ties must go to the
    lowest flat index.  Pruning without the Lipschitz term fails at every
    grid here but 400 degrees.  At 90 degrees small boxes re-evaluate their
    parents' centres, and each node must count once in `evaluated`.
    """
    family = construct_mub(3)
    report = certify_d3_impossible(family, grid_deg=grid_deg)
    got = [(t.indices, t.deviation, t.angles, t.slack) for t in report.tuples]
    assert got == _d3_full_grid(family, grid_deg)
    steps = int(round(360 / grid_deg))
    assert report.grid_nodes == 27 * steps**2
    assert report.evaluated <= report.grid_nodes


@pytest.mark.parametrize("d", [3, 4])
def test_lattice_counts_every_node_once_when_nothing_prunes(d):
    """At 72 degrees (5 steps per angle, odd box sides) the slack is too wide
    for any box to be dropped, so every node is evaluated, and counted once."""
    for t in lattice_deviations(construct_mub(d), grid_deg=72.0):
        assert t.evaluated == 5 ** (d - 1)


def test_d3_certificate_evaluates_a_fraction_of_the_grid(d3_report):
    assert d3_report.grid_nodes == 27 * 720**2
    assert 0 < d3_report.evaluated < d3_report.grid_nodes / 20


def test_d3_worst_matches_frozen_value(d3_report):
    assert d3_report.worst == pytest.approx(D3_WORST_MIN_DEVIATION, abs=1e-9)
    # the easiest and hardest tuples span a narrow, stable band
    assert 0.09 < max(t.deviation for t in d3_report.tuples) < 0.10


def test_d3_certificate_requires_dim_3():
    with pytest.raises(ValueError):
        certify_d3_impossible(construct_mub(2))


# --- the one-tuple engine against the all-tuple engine ---------------------------


def _reference_lattice(family, grid_deg):
    """The earlier lattice engine, kept as an oracle: one level-synchronous
    frontier over the boxes of all d^d tuples at once, and one log of every
    (tuple, value, node) evaluated.  Returns (indices, deviation, angles,
    slack, evaluated) per tuple."""
    d = family.dim
    k = d - 1
    n2 = _norm_constant(d) ** 2
    target = overlap_target(d)
    steps = int(round(360 / grid_deg))
    ang = 2 * np.pi * np.arange(steps) / steps
    phases = np.exp(1j * ang)
    index_tuples, grams = selection_grams(family)
    a = np.abs(grams)
    grad = (a * (a.sum(axis=2, keepdims=True) - a))[:, :, 1:].sum(axis=2)
    slack = 2 * np.pi / steps * n2 * grad.max(axis=1)

    ntup = len(index_tuples)
    tile_lo = np.array(list(itertools.product(range(0, steps, TILE), repeat=k)))
    tid = np.repeat(np.arange(ntup), len(tile_lo))
    lo = np.tile(tile_lo, (ntup, 1))
    size = np.minimum(TILE, steps - lo)
    sides = np.array(list(itertools.product((0, 1), repeat=k)))
    best = np.full(ntup, np.inf)
    seen = []
    while tid.size:
        c = lo + size // 2
        dev = np.zeros(tid.size)
        for gm in grams.transpose(1, 0, 2):
            amp = gm[tid, 0]
            for j in range(k):
                amp = amp + gm[tid, j + 1] * phases[c[:, j]]
            np.maximum(dev, np.abs(n2 * (amp.real ** 2 + amp.imag ** 2) - target), out=dev)
        seen.append((tid, dev, np.ravel_multi_index(tuple(c.T), (steps,) * k)))
        np.minimum.at(best, tid, dev)
        r = (size // 2).max(axis=1)
        keep = (r > 0) & (dev - (1 + 1e-9) * 2 * r * slack[tid] <= best[tid])
        half = (size[keep] // 2)[:, None]
        lo = (lo[keep][:, None] + sides * half).reshape(-1, k)
        size = np.where(sides, size[keep][:, None] - half, half).reshape(-1, k)
        nonempty = size.min(axis=1) > 0
        tid, lo, size = np.repeat(tid[keep], len(sides))[nonempty], lo[nonempty], size[nonempty]

    tid, dev, node = map(np.concatenate, zip(*seen))
    nodes = steps ** k
    key = np.sort(tid * nodes + node)
    evaluated = np.bincount(key[np.diff(key, prepend=-1) != 0] // nodes, minlength=ntup)
    first = np.full(ntup, nodes)
    at_min = dev == best[tid]
    np.minimum.at(first, tid[at_min], node[at_min])
    return [(indices, float(best[t]),
             tuple(float(ang[i]) for i in np.unravel_index(first[t], (steps,) * k)),
             float(slack[t]), int(evaluated[t]))
            for t, indices in enumerate(index_tuples)]


@pytest.mark.parametrize("d, grid_deg", [(3, 0.5), (3, 0.7), (3, 3.0), (3, 10.0), (3, 45.0),
                                         (3, 90.0), (3, 400.0), (4, 11.25), (4, 30.0), (4, 72.0)])
def test_one_tuple_at_a_time_equals_the_all_tuple_engine(request, d, grid_deg):
    """A tuple's pruning reads only its own least value, so running the tuples
    one by one changes no output, `evaluated` included."""
    family = construct_mub(d)
    if (d, grid_deg) == (4, D4_GRID_DEG):  # the module's d = 4 lattice, built once
        lattice = request.getfixturevalue("d4_lattice")
    else:
        lattice = lattice_deviations(family, grid_deg=grid_deg)
    got = [(t.indices, t.deviation, t.angles, t.slack, t.evaluated) for t in lattice]
    assert got == _reference_lattice(family, grid_deg)


def _traced(call):
    """call()'s result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_d3_certificate_memory_is_one_tuples_boxes():
    family = construct_mub(3)
    assert _traced(lambda: certify_d3_impossible(family))[1] < 0.5e6


def test_d4_lattice_memory_is_one_tuples_boxes(d4_lattice_traced):
    assert d4_lattice_traced[1] < 8e6


@pytest.mark.parametrize("grid_deg", [0.0, -1.0, 720.0, 1000.0, math.nan, math.inf, -math.inf])
def test_a_grid_with_no_lattice_is_refused_before_any_array(monkeypatch, grid_deg):
    import kings.search

    def gram_matrices(*args, **kwargs):
        raise AssertionError("the selections were built")

    monkeypatch.setattr(kings.search, "selection_grams", gram_matrices)
    with pytest.raises(ValueError, match=f"grid_deg .* got {grid_deg!r}"):
        lattice_deviations(construct_mub(3), grid_deg=grid_deg)
    with pytest.raises(ValueError, match=f"grid_deg .* got {grid_deg!r}"):
        certify_d3_impossible(construct_mub(3), grid_deg=grid_deg)
