"""Monte Carlo referee: determinism, statistical agreement with exact values,
pinned seeded counts, and chunked sampling with bounded memory."""

import tracemalloc

import numpy as np
import pytest

from kings.cube import conventional_cube_value, make_cube_setup, vaa_success_exact
from kings.game import (
    CHUNK,
    CubeConventionalStrategy,
    CubeVaaStrategy,
    GameConfig,
    GameResult,
    run,
)
from kings.presets import (
    cube_conventional_strategy,
    cube_vaa_strategy,
    d2_optimal_strategy,
    d4_optimal_strategy,
)
from kings.strategy import success_exact
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


def _traced_peak(strategy, trials: int) -> int:
    tracemalloc.start()
    try:
        run(GameConfig(strategy=strategy, trials=trials, seed=1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def test_unsupported_strategy_type():
    with pytest.raises(TypeError):
        run(GameConfig(strategy="nonsense", trials=10, seed=0))


def test_game_result_equality_is_field_wise():
    a = GameResult("m", 10, 5, 0.5, 0.1, {0: (10, 5)}, seed=1)
    b = GameResult("m", 10, 5, 0.5, 0.1, {0: (10, 5)}, seed=1)
    assert a == b
    assert a != GameResult("m", 10, 5, 0.5, 0.1, {0: (10, 5)}, seed=2)


def test_custom_cube_strategies_accept_overrides():
    setup = make_cube_setup()
    vaa = CubeVaaStrategy(setup=setup)
    assert vaa.prediction is not None
    m = np.array([0.0, 0.0, 1.0])
    conv = CubeConventionalStrategy(setup=setup, direction=m)
    assert conv.rule[0] == 1
    result = run(GameConfig(strategy=conv, trials=5_000, seed=3))
    assert 0 < result.estimate < 1
