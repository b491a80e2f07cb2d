"""JSON/CSV encoders and the matching readers for everything the CLI emits.

Complex numbers appear in JSON as {"re": x, "im": y} and in CSV as adjacent
re/im column pairs.  Each writer here has a reader that round-trips its
output exactly.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Iterable, Sequence

import numpy as np

from .bounds import BoundReport
from .game import GameResult
from .mub import MubFamily, OrthonormalBasis
from .strategy import SuccessBreakdown


# --- complex numbers and states ----------------------------------------------


def complex_to_json(z: complex) -> dict[str, float]:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_json(obj: dict[str, float]) -> complex:
    return complex(float(obj["re"]), float(obj["im"]))


def state_to_json(vec: np.ndarray) -> list[dict[str, float]]:
    return [complex_to_json(z) for z in np.asarray(vec)]


def state_from_json(items: Iterable[dict[str, float]]) -> np.ndarray:
    return np.array([complex_from_json(o) for o in items])


# --- family ------------------------------------------------------------------


def family_to_json(family: MubFamily) -> dict[str, Any]:
    return {"dim": family.dim, "bases": [basis_to_json(b) for b in family.bases]}


def family_from_json(obj: dict[str, Any]) -> MubFamily:
    bases = tuple(basis_from_json(entry) for entry in obj["bases"])
    return MubFamily(dim=int(obj["dim"]), bases=bases)


def basis_to_json(basis: OrthonormalBasis) -> dict[str, Any]:
    return {"label": basis.label, "states": [state_to_json(s) for s in basis.states]}


def basis_from_json(obj: dict[str, Any]) -> OrthonormalBasis:
    return OrthonormalBasis(
        label=obj.get("label"),
        states=np.array([state_from_json(s) for s in obj["states"]]),
    )


def family_csv_header(dim: int) -> list[str]:
    cols = ["basis", "state"]
    for m in range(dim):
        cols += [f"re{m}", f"im{m}"]
    return cols


def family_to_csv_rows(family: MubFamily) -> list[list[Any]]:
    rows: list[list[Any]] = []
    for b in family.bases:
        for j, s in enumerate(b.states):
            row: list[Any] = [b.label, j]
            for z in s:
                row += [z.real, z.imag]
            rows.append(row)
    return rows


def family_from_csv(text: str) -> MubFamily:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    dim = (len(header) - 2) // 2
    states: dict[int, dict[int, np.ndarray]] = {}
    for row in body:
        label, j = int(row[0]), int(row[1])
        vals = np.array([float(x) for x in row[2:]])
        states.setdefault(label, {})[j] = vals[0::2] + 1j * vals[1::2]
    bases = tuple(
        OrthonormalBasis(label=m, states=np.array([states[m][j] for j in range(dim)]))
        for m in sorted(states)
    )
    return MubFamily(dim=dim, bases=bases)


# --- reports -----------------------------------------------------------------


def bound_report_to_json(report: BoundReport) -> dict[str, Any]:
    return {"dim": report.dim, "r": report.r, "value": report.value, "formula": report.formula}


def breakdown_to_json(b: SuccessBreakdown) -> dict[str, Any]:
    return {
        "total": b.total,
        "per_basis": {str(k): v for k, v in sorted(b.per_basis.items())},
        "per_signal": {str(k): v for k, v in sorted(b.per_signal.items())},
    }


def game_result_to_json(r: GameResult) -> dict[str, Any]:
    return {
        "mode": r.mode,
        "trials": r.trials,
        "successes": r.successes,
        "estimate": r.estimate,
        "stderr": r.stderr,
        "per_choice": {str(k): list(v) for k, v in sorted(r.per_choice.items())},
        "seed": r.seed,
        "generator": r.generator,
    }


def game_result_from_json(obj: dict[str, Any]) -> GameResult:
    return GameResult(
        mode=obj["mode"],
        trials=int(obj["trials"]),
        successes=int(obj["successes"]),
        estimate=float(obj["estimate"]),
        stderr=float(obj["stderr"]),
        per_choice={int(k): (int(v[0]), int(v[1])) for k, v in obj["per_choice"].items()},
        seed=int(obj["seed"]),
        generator=obj["generator"],
    )


# --- generic CSV -------------------------------------------------------------


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


__all__ = [
    "family_to_json", "family_from_json", "family_csv_header",
    "family_to_csv_rows", "family_from_csv",
    "basis_to_json", "basis_from_json",
    "bound_report_to_json", "breakdown_to_json",
    "game_result_to_json", "game_result_from_json",
    "write_csv", "read_csv",
    "complex_to_json", "complex_from_json", "state_to_json", "state_from_json",
]
