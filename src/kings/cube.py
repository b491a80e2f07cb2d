"""Retrodicting spin along cube diagonals with a maximally entangled pair.

The king measures the object qubit's spin along one of the four body
diagonals of a cube.  With the object maximally entangled with an ancilla the
joint state admits one product decomposition per diagonal (the partner leg is
the diagonal's mirror image in the x-z plane), and a single entangled
measurement basis (the VAA basis) retrodicts the king's sign with probability
(2 + sqrt(3)) / 4, every table of it read off the eight collapsed joint
states.  The best ancilla-free protocol instead prepares spin-up along the
first diagonal and measures along one control direction m; its tables follow
from the dot products n_a . m by the Born rule |<a|b>|^2 = (1 + a . b) / 2.
Its optimum is exact: the best direction is the longest signed sum of the
other three diagonals, which reaches (15 + sqrt(33)) / 24 on three degenerate
axes, and a Cauchy-Schwarz bound that the optimum meets certifies it.
CubeVaaStrategy and CubeConventionalStrategy are the two protocols as
strategy kinds; each builds the GameTables record the Monte Carlo referee
plays from the tables derived here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import CONSTRUCTION_TOL, COMPARISON_TOL
from .mub import OrthonormalBasis
from .qstate import spin_up_state, tensor
from .strategy import GameTables

REFLECTION_PARTNER: dict[int, int] = {0: 3, 1: 2, 2: 1, 3: 0}


@dataclass
class CubeGameSetup:
    """Geometry and states of the cube-diagonal game.

    diagonals holds the four unit vectors as rows; bell is the shared
    (|00> + |11>)/sqrt(2) pair; vaa is the entangled measurement basis.
    """

    diagonals: np.ndarray
    bell: np.ndarray
    vaa: OrthonormalBasis


def make_cube_setup() -> CubeGameSetup:
    """Build the cube geometry, the shared pair and the VAA basis."""
    diagonals = np.array(
        [[1, 1, 1], [-1, 1, 1], [-1, -1, 1], [1, -1, 1]], dtype=float
    ) / np.sqrt(3)
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    r2 = 1 / np.sqrt(2)
    e = np.exp(1j * np.pi / 4) / 2
    eb = np.exp(-1j * np.pi / 4) / 2
    vaa = OrthonormalBasis(label=None, states=np.array([
        [r2, e, eb, 0],
        [r2, -e, -eb, 0],
        [0, eb, e, r2],
        [0, -eb, -e, r2],
    ]))
    if not vaa.defect <= CONSTRUCTION_TOL:
        raise ValueError(f"VAA basis defect {vaa.defect:g}")
    return CubeGameSetup(diagonals=diagonals, bell=bell, vaa=vaa)


def king_collapse(setup: CubeGameSetup, diagonal: int, sign: int) -> np.ndarray:
    """Joint state after the king finds `sign` along `diagonal` (0-based).

    The object collapses along the measured diagonal and the ancilla along
    its reflection partner, per the product decomposition of the shared pair.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    partner = REFLECTION_PARTNER[diagonal]
    return tensor(
        spin_up_state(sign * setup.diagonals[diagonal]),
        spin_up_state(sign * setup.diagonals[partner]),
    )


_ROW_ORDER: list[tuple[int, int]] = [(a, s) for a in range(4) for s in (1, -1)]


def collapsed_states(setup: CubeGameSetup) -> np.ndarray:
    """The eight collapsed joint states as rows, in collapse_row_labels order."""
    return np.array([king_collapse(setup, a, s) for a, s in _ROW_ORDER])


def verify_bell_decompositions(setup: CubeGameSetup) -> dict[int, float]:
    """Ray-equality defects of the four product decompositions of the pair.

    For each diagonal a the state (|+a,+partner> + |-a,-partner>)/sqrt(2)
    must reproduce the shared pair up to a global phase; returns the defect
    | |<bell|candidate>| - 1 | per diagonal and raises if any exceeds the
    comparison tolerance.
    """
    pairs = collapsed_states(setup).reshape(4, 2, 4)
    defects = {a: float(abs(abs(np.vdot(setup.bell, (p[0] + p[1]) / np.sqrt(2))) - 1.0))
               for a, p in enumerate(pairs)}
    bad = {a: v for a, v in defects.items() if not v <= COMPARISON_TOL}
    if bad:
        raise ValueError(f"decomposition defects exceed {COMPARISON_TOL}: {bad}")
    return defects


def collapse_row_labels() -> list[str]:
    """Labels of the eight collapsed joint states, in table row order."""
    labels = []
    for a, s in _ROW_ORDER:
        p = REFLECTION_PARTNER[a]
        sgn = "+" if s == 1 else "-"
        labels.append(f"{sgn}n{a + 1}{sgn}n{p + 1}")
    return labels


def vaa_tables(setup: CubeGameSetup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, overlap, prediction) of the VAA protocol from one array of the
    eight collapsed joint states; signs +1 index 0 and -1 index 1.

    first[a, s] = |<collapse(a, s)|bell>|^2; overlap[2a + s, k] is the Born
    weight of VAA outcome k after that collapse; prediction[k, a] the likelier
    sign along diagonal a given VAA outcome k (+1 on a tie).
    """
    bras = collapsed_states(setup).conj()
    overlap = np.abs(bras @ setup.vaa.states.T) ** 2
    prediction = np.where(overlap[0::2] >= overlap[1::2], 1, -1).T
    return (np.abs(bras @ setup.bell) ** 2).reshape(4, 2), overlap, prediction


def vaa_overlap_table(setup: CubeGameSetup) -> np.ndarray:
    """8 x 4 Born matrix: collapsed joint states (rows) vs VAA states."""
    return vaa_tables(setup)[1]


def vaa_prediction_table(setup: CubeGameSetup) -> np.ndarray:
    """table[k, a]: the sign vaa_tables calls along diagonal a on VAA outcome k."""
    return vaa_tables(setup)[2]


def wrong_prediction_mass(tables: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Per collapsed state, the Born mass landing on wrong-prediction outcomes,
    from the (first, overlap, prediction) triple of vaa_tables."""
    _, t, prediction = tables
    signs = np.array([s for _, s in _ROW_ORDER])
    wrong = np.repeat(prediction.T, 2, axis=0) != signs[:, None]
    return np.where(wrong, t, 0.0).sum(axis=1)


def vaa_success_exact(setup: CubeGameSetup) -> float:
    """Exact success of the VAA-basis protocol, (2 + sqrt(3)) / 4."""
    return float(1.0 - wrong_prediction_mass(vaa_tables(setup)).mean())


@dataclass
class CubeVaaStrategy:
    """Entangled-pair cube protocol: the VAA measurement, read by the
    majority-likelihood rule vaa_tables derives from the setup."""

    setup: CubeGameSetup

    def tables(self) -> GameTables:
        """vaa_tables as a record, built afresh on every call; signs +1 index
        0 and -1 index 1."""
        first, overlap, prediction = vaa_tables(self.setup)
        return GameTables("cube-vaa", first, overlap, (1 - prediction) // 2)


# --- ancilla-free (conventional) protocol ----------------------------------


def diagonal_dots(setup: CubeGameSetup, direction: np.ndarray) -> np.ndarray:
    """n_a . m per diagonal after the one check of a direction m (a 3-vector
    of unit length; a NaN fails), clipped to [-1, 1]: n_1 . n_1 rounds to
    1 + 2^-52, which would make the Born weight (1 - a . b) / 2 negative."""
    m = np.asarray(direction, dtype=float)
    if m.shape != (3,) or not abs(np.linalg.norm(m) - 1.0) <= CONSTRUCTION_TOL:
        raise ValueError(f"direction must be a unit length 3-vector, got {m.tolist()!r}")
    return (setup.diagonals @ m).clip(-1.0, 1.0)


def conventional_cube_value(setup: CubeGameSetup, direction: np.ndarray) -> float:
    """Success of the best decision rule for control direction m.

    Preparation is spin-up along diagonal 1, which the king's first diagonal
    confirms for free; for each other diagonal the optimal well-conditioned
    rule succeeds with probability (1 + |m . n_a|) / 2 regardless of which
    control outcome is tied to which sign, because the collapse and the rule
    flip signs together.
    """
    dots = diagonal_dots(setup, direction)[1:]
    return float(0.25 + 0.25 * np.sum((1.0 + np.abs(dots)) / 2.0))


def conventional_cube_rule(setup: CubeGameSetup, direction: np.ndarray) -> dict[int, int]:
    """Sign predicted on the + control outcome, per diagonal (0-based keys).

    Diagonal 0 is the preparation diagonal and is always called +1; the -
    outcome predicts the opposite sign of the + outcome elsewhere.
    """
    dots = diagonal_dots(setup, direction)
    return {a: 1 if a == 0 or dots[a] >= 0 else -1 for a in range(4)}


@dataclass
class CubeConventionalStrategy:
    """Ancilla-free cube protocol: spin-up preparation along diagonal 1 and
    a single control direction, read by the sign rule
    conventional_cube_rule derives from the two."""

    setup: CubeGameSetup
    direction: np.ndarray

    def tables(self) -> GameTables:
        """The protocol's record for direction m by the spin-1/2 Born rule,
        built afresh on every call; signs +1 index 0 and -1 index 1.

        first[a, s] = (1 + s n_a . n_1) / 2; control[2a + s, t] = (1 + s t n_a . m) / 2;
        the rule calls its sign on k = +, flipped off diagonal 0 on k = -.
        """
        setup, m = self.setup, self.direction
        first = (1 + np.outer(diagonal_dots(setup, setup.diagonals[0]), [1, -1])) / 2
        control = (1 + np.outer(np.outer(diagonal_dots(setup, m), [1, -1]), [1, -1])) / 2
        plus = np.array(list(conventional_cube_rule(setup, m).values()))  # keys 0..3
        signs = np.array([plus, plus * [1, -1, -1, -1]])
        return GameTables("cube-conventional", first, control, (1 - signs) // 2)


def conventional_baseline(setup: CubeGameSetup) -> float:
    """Best constant-guess success: always call the likelier sign, 3/4."""
    return conventional_cube_value(setup, setup.diagonals[0])


@dataclass
class CubeConventionalResult:
    """Optimal ancilla-free protocol for the cube game.

    upper_bound caps the value of every unit direction; value == upper_bound
    certifies that the returned direction is optimal.
    """

    direction: np.ndarray
    rule: dict[int, int]
    value: float
    angle_to_first_diagonal_deg: float
    co_optima: list[np.ndarray]
    great_circle: int | None
    upper_bound: float


def _great_circle_tag(setup: CubeGameSetup, m: np.ndarray) -> int | None:
    """Which n_1 - n_k great circle (k in 1..3, 0-based) contains m, if any."""
    for k in range(1, 4):
        normal = np.cross(setup.diagonals[0], setup.diagonals[k])
        normal /= np.linalg.norm(normal)
        if abs(float(m @ normal)) < 1e-6:
            return k
    return None


def conventional_cube_optimize(
    setup: CubeGameSetup,
    *,
    grid_deg: float | None = None,
) -> CubeConventionalResult:
    """Exact ancilla-free optimum with its closed-form certificate.

    The value of a control direction m is 1/4 + (3 + sum_a |m . n_a|) / 8
    over the three non-preparation diagonals, and sum_a |m . n_a| =
    max_s m . v_s with v_s = sum_a s_a n_a over sign vectors s.  The best
    unit m is therefore v_s / |v_s| for the sign vectors maximising |v_s|.
    s and -s give the same axis, so s_1 = +1 leaves four candidates; three
    tie, one axis per great circle through the preparation diagonal.  The
    co-optima are listed in the order of their sign vectors (+1, s_2, s_3),
    enumerated with -1 before +1, each as its obtuse-angle representative;
    the first is the returned direction.  By Cauchy-Schwarz m . v_s <= |v_s|,
    so no unit direction exceeds upper_bound = 1/4 + (3 + max_s |v_s|) / 8.
    grid_deg is accepted, unchecked and unused: the optimum needs no grid.
    """
    signs = np.array([(1, s2, s3) for s2, s3 in itertools.product((-1, 1), repeat=2)])
    sums = signs @ setup.diagonals[1:]
    norms = np.linalg.norm(sums, axis=1)
    axes = [v / nv for v, nv in zip(sums, norms) if nv > norms.max() - 1e-12]
    co = [-m if float(m @ setup.diagonals[0]) > 0 else m for m in axes]
    best = co[0]
    angle = float(np.degrees(np.arccos(np.clip(best @ setup.diagonals[0], -1, 1))))
    return CubeConventionalResult(
        direction=best,
        rule=conventional_cube_rule(setup, best),
        value=conventional_cube_value(setup, best),
        angle_to_first_diagonal_deg=angle,
        co_optima=co,
        great_circle=_great_circle_tag(setup, best),
        upper_bound=0.25 + (3.0 + float(norms.max())) / 8,
    )
