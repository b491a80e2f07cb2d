"""Seeded Monte Carlo referee for the retrodiction games.

run() simulates full rounds (king's choice, Born-rule collapse, control
measurement, prediction) for a conventional MUB strategy, the VAA cube
protocol or the ancilla-free cube protocol.  Sampling is vectorized
inverse-CDF over precomputed outcome distributions with numpy's PCG64
generator, so a seed pins the result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cube import (
    CubeGameSetup,
    PredictionTable,
    conventional_cube_rule,
    king_collapse,
    vaa_prediction_table,
)
from .qstate import spin_up_state
from .strategy import ConventionalStrategy, overlap_matrix

GENERATOR_NAME = "numpy-pcg64"


@dataclass
class CubeVaaStrategy:
    """Entangled-pair cube protocol: VAA measurement plus its reading rule."""

    setup: CubeGameSetup
    prediction: PredictionTable | None = None

    def __post_init__(self) -> None:
        if self.prediction is None:
            self.prediction = vaa_prediction_table(self.setup)


@dataclass
class CubeConventionalStrategy:
    """Ancilla-free cube protocol: spin-up preparation along diagonal 1 and
    a single control direction with its sign rule."""

    setup: CubeGameSetup
    direction: np.ndarray
    rule: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.rule:
            self.rule = conventional_cube_rule(self.setup, self.direction)


Strategy = ConventionalStrategy | CubeVaaStrategy | CubeConventionalStrategy


@dataclass
class GameConfig:
    strategy: Strategy
    trials: int
    seed: int


@dataclass
class PlayRecord:
    """One simulated round."""

    king_choice: int
    king_outcome: int
    control_outcome: int
    prediction: int
    success: bool


@dataclass
class GameResult:
    """Aggregated Monte Carlo outcome; equality is bit-for-bit."""

    mode: str
    trials: int
    successes: int
    estimate: float
    stderr: float
    per_choice: dict[int, tuple[int, int]]  # choice -> (trials, successes)
    seed: int
    generator: str = GENERATOR_NAME


def _check_probs(p: np.ndarray) -> np.ndarray:
    """Renormalize a Born distribution, rejecting real corruption."""
    s = p.sum(axis=-1, keepdims=True)
    if np.any(np.abs(s - 1.0) > 1e-10):
        raise ValueError(f"outcome probabilities sum to {s.ravel()!r}, not 1")
    return p / s


def _sample_rows(prob_rows: np.ndarray, row_index: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample: one categorical draw per trial from its row."""
    cdf = np.cumsum(prob_rows, axis=-1)[row_index]
    idx = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(idx, prob_rows.shape[-1] - 1)


# --- distribution tables per strategy kind ----------------------------------


def _mub_tables(s: ConventionalStrategy):
    family, d = s.family, s.family.dim
    prep = s.preparation
    king_probs = _check_probs(
        np.abs(np.einsum("ijm,m->ij", family.array.conj(), prep)) ** 2
    )
    control_probs = _check_probs(overlap_matrix(family, s.control).reshape(-1, d))
    pred = np.full((d, d + 1), -1, dtype=int)
    for (k, i), j in s.assignment.prediction.items():
        pred[k, i] = j
    pred[:, s.prep_basis] = s.prep_index
    return king_probs, control_probs, pred


def _cube_rows(setup: CubeGameSetup) -> np.ndarray:
    return np.array([king_collapse(setup, a, s) for a in range(4) for s in (1, -1)])


def _cube_vaa_tables(s: CubeVaaStrategy):
    rows = _cube_rows(s.setup)
    sign_probs = np.empty((4, 2))
    for a in range(4):
        # Born weights of the two collapse branches of the shared pair
        bra = np.array([rows[2 * a], rows[2 * a + 1]])
        sign_probs[a] = np.abs(bra.conj() @ s.setup.bell) ** 2
    sign_probs = _check_probs(sign_probs)
    control_probs = _check_probs(np.abs(rows.conj() @ s.setup.vaa.states.T) ** 2)
    return sign_probs, control_probs, s.prediction.table


def _cube_conventional_tables(s: CubeConventionalStrategy):
    setup = s.setup
    prep = spin_up_state(setup.diagonals[0])
    sign_probs = np.empty((4, 2))
    for a in range(4):
        up = spin_up_state(setup.diagonals[a])
        down = spin_up_state(-setup.diagonals[a])
        sign_probs[a] = (abs(np.vdot(up, prep)) ** 2, abs(np.vdot(down, prep)) ** 2)
    sign_probs = _check_probs(sign_probs)
    plus = spin_up_state(s.direction)
    minus = spin_up_state(-np.asarray(s.direction))
    control_probs = np.empty((8, 2))
    for a in range(4):
        for si, sign in enumerate((1, -1)):
            state = spin_up_state(sign * setup.diagonals[a])
            control_probs[2 * a + si] = (abs(np.vdot(plus, state)) ** 2,
                                         abs(np.vdot(minus, state)) ** 2)
    control_probs = _check_probs(control_probs)
    # prediction[k, a]: sign called when control outcome k (0:+, 1:-) on diagonal a
    pred = np.empty((2, 4), dtype=int)
    for a in range(4):
        pred[0, a] = s.rule[a]
        pred[1, a] = s.rule[a] if a == 0 else -s.rule[a]
    return sign_probs, control_probs, pred


# --- single rounds -----------------------------------------------------------


def play_once(strategy: Strategy, rng: np.random.Generator) -> PlayRecord:
    """Simulate one round and return its transcript."""
    if isinstance(strategy, ConventionalStrategy):
        king_probs, control_probs, pred = _mub_tables(strategy)
        d = strategy.family.dim
        i = int(rng.integers(0, d + 1))
        j = int(_sample_rows(king_probs, np.array([i]), rng.random(1))[0])
        k = int(_sample_rows(control_probs, np.array([i * d + j]), rng.random(1))[0])
        guess = int(pred[k, i])
        return PlayRecord(i, j, k, guess, guess == j)
    if isinstance(strategy, CubeVaaStrategy):
        sign_probs, control_probs, pred = _cube_vaa_tables(strategy)
    elif isinstance(strategy, CubeConventionalStrategy):
        sign_probs, control_probs, pred = _cube_conventional_tables(strategy)
    else:
        raise TypeError(f"unsupported strategy type {type(strategy).__name__}")
    a = int(rng.integers(0, 4))
    si = int(_sample_rows(sign_probs, np.array([a]), rng.random(1))[0])
    sign = 1 if si == 0 else -1
    k = int(_sample_rows(control_probs, np.array([2 * a + si]), rng.random(1))[0])
    guess = int(pred[k, a])
    return PlayRecord(a, sign, k, guess, guess == sign)


# --- vectorized runs ---------------------------------------------------------


def _mode_name(strategy: Strategy) -> str:
    if isinstance(strategy, ConventionalStrategy):
        return f"mub-d{strategy.family.dim}"
    if isinstance(strategy, CubeVaaStrategy):
        return "cube-vaa"
    return "cube-conventional"


def run(config: GameConfig) -> GameResult:
    """Simulate config.trials rounds; deterministic for a given seed."""
    if config.trials < 1:
        raise ValueError(f"trials must be a positive integer, got {config.trials}")
    rng = np.random.default_rng(config.seed)
    strategy = config.strategy
    if isinstance(strategy, ConventionalStrategy):
        king_probs, control_probs, pred = _mub_tables(strategy)
        d = strategy.family.dim
        n_choices = d + 1
        choice = rng.integers(0, n_choices, size=config.trials)
        j = _sample_rows(king_probs, choice, rng.random(config.trials))
        k = _sample_rows(control_probs, choice * d + j, rng.random(config.trials))
        ok = pred[k, choice] == j
    elif isinstance(strategy, (CubeVaaStrategy, CubeConventionalStrategy)):
        if isinstance(strategy, CubeVaaStrategy):
            sign_probs, control_probs, pred = _cube_vaa_tables(strategy)
        else:
            sign_probs, control_probs, pred = _cube_conventional_tables(strategy)
        n_choices = 4
        choice = rng.integers(0, 4, size=config.trials)
        si = _sample_rows(sign_probs, choice, rng.random(config.trials))
        sign = 1 - 2 * si
        k = _sample_rows(control_probs, 2 * choice + si, rng.random(config.trials))
        ok = pred[k, choice] == sign
    else:
        raise TypeError(f"unsupported strategy type {type(strategy).__name__}")
    successes = int(ok.sum())
    estimate = successes / config.trials
    stderr = float(np.sqrt(max(estimate * (1 - estimate), 1e-300) / config.trials))
    per_choice = {
        int(c): (int((choice == c).sum()), int(ok[choice == c].sum()))
        for c in range(n_choices)
    }
    return GameResult(
        mode=_mode_name(strategy),
        trials=config.trials,
        successes=successes,
        estimate=estimate,
        stderr=stderr,
        per_choice=per_choice,
        seed=config.seed,
    )
