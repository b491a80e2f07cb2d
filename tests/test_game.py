"""Monte Carlo referee: determinism, statistical agreement with exact values,
pinned seeded counts, equality with the reference sampler, and chunked
sampling with bounded memory."""

import re
import tracemalloc

import numpy as np
import pytest

from kings import game
from kings.cube import (
    conventional_cube_rule,
    conventional_cube_value,
    king_collapse,
    make_cube_setup,
    vaa_prediction_table,
    vaa_success_exact,
)
from kings.game import (
    BLOCK,
    CHUNK,
    CubeConventionalStrategy,
    CubeVaaStrategy,
    GameConfig,
    GameResult,
    _lower,
    _refine,
    run,
)
from kings.mub import construct_mub
from kings.presets import (
    cube_conventional_strategy,
    cube_vaa_strategy,
    d2_optimal_strategy,
    d4_optimal_strategy,
)
from kings.qstate import spin_up_state
from kings.strategy import _check_probs, random_strategy, success_exact
from kings.verify import ACCEPTANCE_SEED


def _cases():
    setup = make_cube_setup()
    conv = cube_conventional_strategy()
    return [
        ("mub-d2", d2_optimal_strategy(), success_exact(d2_optimal_strategy()).total, 3),
        ("mub-d4", d4_optimal_strategy(), success_exact(d4_optimal_strategy()).total, 5),
        ("cube-vaa", cube_vaa_strategy(), vaa_success_exact(setup), 4),
        ("cube-conventional", conv, conventional_cube_value(setup, conv.direction), 4),
    ]


@pytest.mark.parametrize("name, strategy, exact, n_choices", _cases())
def test_estimates_agree_with_exact_values(name, strategy, exact, n_choices):
    result = run(GameConfig(strategy=strategy, trials=100_000, seed=ACCEPTANCE_SEED))
    assert result.mode == name
    assert abs(result.estimate - exact) <= 3 * result.stderr
    assert result.generator == "numpy-pcg64"
    assert set(result.per_choice) == set(range(n_choices))


@pytest.mark.parametrize("name, strategy, exact, n_choices", _cases())
def test_bit_exact_determinism(name, strategy, exact, n_choices):
    config = GameConfig(strategy=strategy, trials=20_000, seed=99)
    assert run(config) == run(config)
    other = run(GameConfig(strategy=strategy, trials=20_000, seed=100))
    assert other != run(config)


@pytest.mark.parametrize("preset, successes", [
    (d4_optimal_strategy, 70182),
    (d2_optimal_strategy, 90358),
    (cube_vaa_strategy, 93323),
    (cube_conventional_strategy, 86550),
])
def test_pinned_success_counts(preset, successes):
    """Seeded counts are frozen: a run within one chunk reads the seed's
    stream in the order choices, king uniforms, control uniforms."""
    result = run(GameConfig(strategy=preset(), trials=100_000, seed=ACCEPTANCE_SEED))
    assert result.successes == successes


def test_multi_chunk_run_is_deterministic_and_consistent():
    config = GameConfig(strategy=d2_optimal_strategy(), trials=3 * CHUNK + 1, seed=7)
    result = run(config)
    assert run(config) == result
    assert sum(t for t, _ in result.per_choice.values()) == result.trials
    assert sum(w for _, w in result.per_choice.values()) == result.successes
    exact = success_exact(d2_optimal_strategy()).total
    assert abs(result.estimate - exact) <= 4 * result.stderr
    # the counts of the gather, compare and sum sampler, across four chunks
    assert result.successes == 2838787
    assert result.per_choice == {0: (1048511, 1048511), 1: (1048113, 894248),
                                 2: (1049105, 896028)}


def _sample_rows(prob_rows: np.ndarray, row_index: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample: one categorical draw per trial from its row."""
    cdf = np.cumsum(prob_rows, axis=-1)[row_index]
    idx = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(idx, prob_rows.shape[-1] - 1)


def _reference_run(config: GameConfig, chunk: int = CHUNK) -> GameResult:
    """Reference: the gather, compare and sum sampler run() replaced, reading
    each chunk's uniforms as two whole draws."""
    tables = _lower(config.strategy)
    n_choices, n_out = tables.first.shape
    rng = np.random.default_rng(config.seed)
    played = np.zeros(n_choices, dtype=np.int64)
    won = np.zeros(n_choices, dtype=np.int64)
    for start in range(0, config.trials, chunk):
        size = min(chunk, config.trials - start)
        choice = rng.integers(0, n_choices, size=size)
        outcome = _sample_rows(tables.first, choice, rng.random(size))
        k = _sample_rows(tables.control, choice * n_out + outcome, rng.random(size))
        ok = tables.predict[k, choice] == outcome
        played += np.bincount(choice, minlength=n_choices)
        won += np.bincount(choice[ok], minlength=n_choices)
    successes = int(won.sum())
    estimate = successes / config.trials
    stderr = float(np.sqrt(max(estimate * (1 - estimate), 1e-300) / config.trials))
    return GameResult(
        mode=tables.mode,
        trials=config.trials,
        successes=successes,
        estimate=estimate,
        stderr=stderr,
        per_choice={c: (int(played[c]), int(won[c])) for c in range(n_choices)},
        seed=config.seed,
    )


def test_draw_equals_reference_on_ties_and_past_the_last_cdf_value():
    """Uniforms equal to a CDF value are not above it, and one above a row
    total short of 1 still lands on the last outcome."""
    probs = np.array([[0.5, 0.25, 0.25 - 1e-9], [1 / 3, 1 / 3, 1 / 3]])
    cdf = np.cumsum(probs, axis=-1)
    u = np.concatenate([cdf.ravel(), [0.0, 1 - 5e-10, 0.5]])
    row = np.array([0, 0, 0, 1, 1, 1, 0, 0, 1])
    index = row.copy()
    _refine(index, u, cdf)
    outcome = index - row * probs.shape[1]
    assert outcome.tolist() == _sample_rows(probs, row, u).tolist()
    assert outcome.tolist() == [0, 1, 2, 0, 1, 2, 0, 2, 1]


@pytest.mark.parametrize("trials", [1, 7, 2_000, CHUNK + 1])
@pytest.mark.parametrize("name, strategy, exact, n_choices", _cases())
def test_presets_equal_reference_sampler(name, strategy, exact, n_choices, trials):
    config = GameConfig(strategy=strategy, trials=trials, seed=ACCEPTANCE_SEED)
    assert run(config) == _reference_run(config)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_random_strategies_equal_reference_sampler(d):
    family = construct_mub(d)
    rng = np.random.default_rng(100 + d)
    for trials in (1, 7, 500, 2_000):
        strategy = random_strategy(family, int(rng.integers(d + 1)), rng)
        config = GameConfig(strategy=strategy, trials=trials, seed=int(rng.integers(2**63)))
        assert run(config) == _reference_run(config)


@pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK, BLOCK + 1, CHUNK - 1, 2 * CHUNK + BLOCK + 1])
@pytest.mark.parametrize("name, strategy, exact, n_choices", _cases())
def test_presets_equal_reference_sampler_at_block_boundaries(name, strategy, exact, n_choices,
                                                            trials):
    config = GameConfig(strategy=strategy, trials=trials, seed=ACCEPTANCE_SEED)
    assert run(config) == _reference_run(config)


@pytest.mark.parametrize("trials", [1, CHUNK + BLOCK + 1])
def test_largest_count_table_equals_reference_sampler(trials):
    """d = 7 has 8 choices, 7 king and 7 control outcomes: 392 tallied cells."""
    rng = np.random.default_rng(707)
    strategy = random_strategy(construct_mub(7), int(rng.integers(8)), rng)
    config = GameConfig(strategy=strategy, trials=trials, seed=int(rng.integers(2**63)))
    assert _lower(strategy).control.size == 8 * 7 * 7
    assert run(config) == _reference_run(config)


def test_odd_chunks_and_partial_blocks_read_the_reference_stream(monkeypatch):
    """With CHUNK = 63 and BLOCK = 8 every chunk ends in a partial block and
    every other chunk of choices leaves half of a 64-bit draw buffered; the
    blocked draws must still read the stream as two whole draws a chunk.
    The store's type follows the control cells: d = 5 has 6 * 5 * 5 = 150,
    the largest MUB table whose store stays uint8, and d = 7 with 392 cells
    takes uint16, as does d = 17."""
    monkeypatch.setattr(game, "CHUNK", 63)
    monkeypatch.setattr(game, "BLOCK", 8)
    rng = np.random.default_rng(77)
    d7 = random_strategy(construct_mub(7), int(rng.integers(8)), rng)
    d17 = random_strategy(construct_mub(17), int(rng.integers(18)), rng)
    d5 = random_strategy(construct_mub(5), int(rng.integers(6)), rng)
    assert _lower(d17).first.size == 18 * 17
    assert _lower(d5).control.size == 150
    for strategy in [case[1] for case in _cases()] + [d5, d7, d17]:
        for seed in range(10):
            config = GameConfig(strategy=strategy, trials=1_000, seed=seed)
            assert run(config) == _reference_run(config, chunk=63)


@pytest.mark.parametrize("trials", [0, -3, True, False, 2.5, 3.0, "5", None])
def test_run_rejects_trial_counts_that_are_not_positive_integers(trials):
    with pytest.raises(ValueError, match=re.escape(f"got {trials!r}")):
        run(GameConfig(strategy=d2_optimal_strategy(), trials=trials, seed=0))


def test_run_accepts_numpy_integer_trial_counts():
    config = GameConfig(strategy=d2_optimal_strategy(), trials=np.int64(2_000), seed=3)
    assert run(config) == run(GameConfig(strategy=d2_optimal_strategy(), trials=2_000, seed=3))


def _traced_peak(strategy, trials: int) -> int:
    """Peak traced bytes of one run, after an untraced run has loaded
    numpy.random and warmed the strategy's caches."""
    run(GameConfig(strategy=strategy, trials=1, seed=1))
    tracemalloc.start()
    try:
        run(GameConfig(strategy=strategy, trials=trials, seed=1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, strategy, exact, n_choices", _cases())
def test_memory_per_trial_of_one_chunk(name, strategy, exact, n_choices):
    assert _traced_peak(strategy, CHUNK) <= 48 * CHUNK


@pytest.mark.parametrize("name, strategy, exact, n_choices", _cases())
def test_memory_of_one_chunk_is_its_index_and_uniforms(name, strategy, exact, n_choices):
    """A chunk holds one byte a trial in its cell store plus BLOCK-sized
    buffers."""
    assert _traced_peak(strategy, CHUNK) <= 2 * CHUNK


def test_memory_stays_flat_beyond_one_chunk():
    strategy = d4_optimal_strategy()
    one_chunk = _traced_peak(strategy, CHUNK)
    assert _traced_peak(strategy, 3 * CHUNK + 1) <= 1.5 * one_chunk


def test_per_choice_tallies_are_consistent():
    result = run(GameConfig(strategy=d2_optimal_strategy(), trials=60_000, seed=4))
    totals = [t for t, _ in result.per_choice.values()]
    wins = [w for _, w in result.per_choice.values()]
    assert sum(totals) == result.trials
    assert sum(wins) == result.successes
    # the king draws uniformly: each choice count within 4 sigma
    n, k = result.trials, len(totals)
    sigma = np.sqrt(n * (1 / k) * (1 - 1 / k))
    for t in totals:
        assert abs(t - n / k) < 4 * sigma


def test_multi_seed_agreement():
    """Independent seeds bracket the exact value like independent samples."""
    strategy = cube_vaa_strategy()
    exact = vaa_success_exact(strategy.setup)
    trials = 50_000
    estimates = [
        run(GameConfig(strategy=strategy, trials=trials, seed=s)).estimate
        for s in range(5)
    ]
    stderr_mean = np.sqrt(exact * (1 - exact) / (trials * len(estimates)))
    assert abs(np.mean(estimates) - exact) < 4 * stderr_mean


def test_guessed_basis_always_succeeds():
    """Rounds where the king picks the preparation basis are never lost."""
    result = run(GameConfig(strategy=d4_optimal_strategy(), trials=30_000, seed=12))
    prep = d4_optimal_strategy().prep_basis
    t, w = result.per_choice[prep]
    assert w == t


def test_probability_check_rejects_a_nan_row():
    with pytest.raises(ValueError, match="not 1"):
        _check_probs(np.array([[np.nan, 0.5]]), "first")


def test_unsupported_strategy_type():
    with pytest.raises(TypeError):
        run(GameConfig(strategy="nonsense", trials=10, seed=0))


def test_game_result_equality_is_field_wise():
    a = GameResult("m", 10, 5, 0.5, 0.1, {0: (10, 5)}, seed=1)
    b = GameResult("m", 10, 5, 0.5, 0.1, {0: (10, 5)}, seed=1)
    assert a == b
    assert a != GameResult("m", 10, 5, 0.5, 0.1, {0: (10, 5)}, seed=2)


def test_cube_lowering_derives_the_sign_rules():
    setup = make_cube_setup()
    vaa_signs = vaa_prediction_table(setup)
    assert (_lower(cube_vaa_strategy()).predict == (1 - vaa_signs) // 2).all()
    rng = np.random.default_rng(5)
    randoms = [v / np.linalg.norm(v) for v in rng.normal(size=(4, 3))]
    for m in [cube_conventional_strategy().direction, *randoms]:
        rule = conventional_cube_rule(setup, m)
        plus = [rule[a] for a in range(4)]
        minus = [rule[0]] + [-rule[a] for a in range(1, 4)]
        expected = (1 - np.array([plus, minus])) // 2  # sign +1 -> 0, -1 -> 1
        tables = _lower(CubeConventionalStrategy(setup=setup, direction=m))
        assert (tables.predict == expected).all()
    m = randoms[0]
    result = run(GameConfig(CubeConventionalStrategy(setup=setup, direction=m), 20_000, seed=3))
    assert abs(result.estimate - conventional_cube_value(setup, m)) < 5 * result.stderr
    with pytest.raises(ValueError, match="unit length"):
        _lower(CubeConventionalStrategy(setup=setup, direction=2 * m))


@pytest.mark.parametrize("direction", [[0, 0, 10], [np.nan, 0, 1], [0, 0, 0], [0, 0, 1, 0]])
def test_cube_directions_off_the_unit_sphere_are_refused(direction):
    """The value, the rule and the lowering share one check of the direction."""
    setup = make_cube_setup()
    strategy = CubeConventionalStrategy(setup=setup, direction=np.array(direction, dtype=float))
    for call in (lambda: conventional_cube_value(setup, direction),
                 lambda: conventional_cube_rule(setup, direction), lambda: _lower(strategy)):
        with pytest.raises(ValueError, match="unit length"):
            call()


def _state_vector_tables(strategy) -> tuple[np.ndarray, np.ndarray]:
    """The state-vector construction of a cube protocol's first and control
    tables, which the Bloch-vector and collapsed-state forms replaced."""
    setup = strategy.setup
    first = np.empty((4, 2))
    if isinstance(strategy, CubeVaaStrategy):
        for a in range(4):
            bra = np.array([king_collapse(setup, a, 1), king_collapse(setup, a, -1)])
            first[a] = np.abs(bra.conj() @ setup.bell) ** 2
        rows = np.array([king_collapse(setup, a, s) for a in range(4) for s in (1, -1)])
        return first, np.abs(rows.conj() @ setup.vaa.states.T) ** 2
    prep = spin_up_state(setup.diagonals[0])
    plus, minus = spin_up_state(strategy.direction), spin_up_state(-strategy.direction)
    control = np.empty((8, 2))
    for a in range(4):
        for si, sign in enumerate((1, -1)):
            state = spin_up_state(sign * setup.diagonals[a])
            first[a, si] = abs(np.vdot(state, prep)) ** 2
            control[2 * a + si] = (abs(np.vdot(plus, state)) ** 2,
                                   abs(np.vdot(minus, state)) ** 2)
    return first, control


def test_cube_tables_equal_their_state_vector_construction():
    """The VAA tables are bit for bit the state-vector ones.  The ancilla-free
    closed form agrees within 1e-15, and its clip keeps a direction along a
    diagonal, where n_a . n_a rounds above 1, free of negative weights."""
    vaa = cube_vaa_strategy()
    first, control = _state_vector_tables(vaa)
    tables = _lower(vaa)
    assert (tables.first == _check_probs(first, "first")).all()
    assert (tables.control == _check_probs(control, "control")).all()
    setup = vaa.setup
    rng = np.random.default_rng(2024)
    directions = [cube_conventional_strategy().direction, *setup.diagonals, *-setup.diagonals,
                  *(v / np.linalg.norm(v) for v in rng.normal(size=(100, 3)))]
    for m in directions:
        strategy = CubeConventionalStrategy(setup=setup, direction=m)
        first, control = _state_vector_tables(strategy)
        tables = _lower(strategy)
        assert np.abs(tables.first - _check_probs(first, "first")).max() <= 1e-15
        assert np.abs(tables.control - _check_probs(control, "control")).max() <= 1e-15
    for tables in (_lower(vaa), *(_lower(CubeConventionalStrategy(setup, m)) for m in directions)):
        assert (tables.first >= 0).all() and (tables.control >= 0).all()


def test_cube_lowerings_build_no_spin_state_and_each_collapse_once(monkeypatch):
    """The ancilla-free lowering works from dot products alone, and the VAA
    lowering builds each of the eight collapsed joint states once."""
    import kings.cube

    spins, collapses = [], []
    for module in (kings.cube, game):
        monkeypatch.setattr(module, "spin_up_state",
                            lambda n: spins.append(1) or spin_up_state(n), raising=False)
        monkeypatch.setattr(module, "king_collapse",
                            lambda *args: collapses.append(1) or king_collapse(*args),
                            raising=False)
    conv, vaa = cube_conventional_strategy(), cube_vaa_strategy()
    _lower(conv)
    assert len(spins) == 0
    _lower(vaa)
    assert len(collapses) == 8
