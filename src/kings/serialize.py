"""JSON/CSV codecs for what the CLI and the tables emit with complex numbers.

Complex numbers appear in JSON as {"re": x, "im": y} and in CSV as adjacent
re/im column pairs.  A record with only real fields (a bound report, a
success breakdown, a game result) needs no codec: it prints as
dataclasses.asdict.  basis_from_json is the one reader, for a control basis
file; it reads basis_to_json's output back exactly.
"""

from __future__ import annotations

import csv
from typing import Any, Iterable, Sequence

import numpy as np

from .mub import MubFamily, OrthonormalBasis


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


# --- generic CSV -------------------------------------------------------------


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
