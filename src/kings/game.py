"""Seeded Monte Carlo referee for the retrodiction games.

run() simulates full rounds (king's choice, Born-rule collapse, control
measurement, prediction) for a GameTables record (kings.strategy's one
ancilla-free strategy record, which the role exchange builds), a
conventional MUB strategy, the VAA cube protocol or the ancilla-free cube
protocol.  A record is played as it is; every other kind builds its own
once, with the tables() method its module defines, and one sampling loop
serves every kind.  Trials are drawn in chunks of CHUNK from one numpy PCG64
stream: per chunk the king's choices, then the king's uniforms, then the
control uniforms.  Each run keeps one cell store of the narrowest unsigned
type that holds its last (choice, king outcome, control outcome) cell: uint8
up to 256 cells, uint16 up to 65,536.  The choices are drawn into it BLOCK at
a time, and two inverse-CDF passes refine it in place BLOCK trials at a time,
each block's uniforms drawn into one BLOCK buffer, so the stream is read in
the same order as whole draws: the king's pass turns choice c into
c * n_out + o, the control pass into (c * n_out + o) * n_k + k, and no index
on the way exceeds the last cell.  Each block's bincount then tallies its
cells, and a boolean win table weights the cells into wins.
Memory is O(CHUNK) with no int32 buffer, 1 B per trial up to 256 cells and
2 B up to 65,536 cells; a seed pins the result bit for bit, and a run within
one chunk reads the stream as one draw.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .cube import CubeConventionalStrategy, CubeVaaStrategy
from .strategy import ConventionalStrategy, GameTables

GENERATOR_NAME = "numpy-pcg64"
CHUNK = 1 << 20
BLOCK = 1 << 14


Strategy = GameTables | ConventionalStrategy | CubeVaaStrategy | CubeConventionalStrategy


@dataclass
class GameConfig:
    strategy: Strategy
    trials: int
    seed: int


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


def _lower(strategy: Strategy) -> GameTables:
    """The one dispatch over strategy kinds: a record passes through as it
    is, and every other kind builds its own."""
    if isinstance(strategy, GameTables):
        return strategy
    if isinstance(strategy, (ConventionalStrategy, CubeVaaStrategy, CubeConventionalStrategy)):
        return strategy.tables()
    raise TypeError(f"unsupported strategy type {type(strategy).__name__}")


def _refine(i: np.ndarray, u: np.ndarray, cdf: np.ndarray) -> None:
    """Inverse-CDF step on one block in place, i <- i * n + outcome: the count
    of the first n - 1 columns of CDF row `i` below u, found by stepping along
    the flat CDF while u lies above it, as a CDF is monotone."""
    n, flat = cdf.shape[1], cdf.ravel()
    i *= n
    for _ in range(n - 1):
        i += u > flat.take(i)


def run(config: GameConfig) -> GameResult:
    """Simulate config.trials rounds; deterministic for a given seed."""
    trials = operator.index(config.trials) if hasattr(config.trials, "__index__") else 0
    if trials < 1 or isinstance(config.trials, bool):
        raise ValueError(f"trials must be a positive integer, got {config.trials!r}")
    tables = _lower(config.strategy)
    n_choices, n_out = tables.first.shape
    first, control = np.cumsum(tables.first, axis=-1), np.cumsum(tables.control, axis=-1)
    counts = np.zeros(tables.control.size, dtype=np.int64)
    rng = np.random.default_rng(config.seed)
    cells = np.empty(min(CHUNK, trials), np.min_scalar_type(counts.size - 1))
    u = np.empty(min(BLOCK, trials))
    for start in range(0, trials, CHUNK):
        chunk = cells[:min(CHUNK, trials - start)]
        blocks = [chunk[b:b + BLOCK] for b in range(0, chunk.size, BLOCK)]
        for block in blocks:  # bounded int32 draws keep the buffered 32-bit half: one whole draw
            block[:] = rng.integers(0, n_choices, size=block.size, dtype=np.int32)
        for block in blocks:  # c -> c * n_out + o
            _refine(block, rng.random(out=u[:block.size]), first)
        for block in blocks:  # -> (c * n_out + o) * n_k + k, never above the last cell
            _refine(block, rng.random(out=u[:block.size]), control)
            counts += np.bincount(block, minlength=counts.size)  # bincount copies to intp
    played = counts.reshape(n_choices, -1)
    won = (played * tables.win()).sum(axis=1)
    successes = int(won.sum())
    estimate = successes / trials
    stderr = float(np.sqrt(max(estimate * (1 - estimate), 1e-300) / trials))
    per_choice = dict(enumerate(zip(played.sum(axis=1).tolist(), won.tolist())))
    return GameResult(mode=tables.mode, trials=trials, successes=successes, estimate=estimate,
                      stderr=stderr, per_choice=per_choice, seed=config.seed)
