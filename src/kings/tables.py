"""Builders and writers for the five reference tables.

table1  success bound by dimension
table2  the two-qubit unbiased family (basis states)
table3  the 32 equal-overlap signal states (indices and phases)
table4  the 32 orthonormal signal-state quadruples
table5  VAA overlap table for the cube game

Each table writes as table<n>.csv plus a table<n>.json sibling carrying the
same data at full precision.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

from .bounds import bound_p
from .cube import collapse_row_labels, make_cube_setup, vaa_overlap_table
from .mub import construct_mub
from .search import MeasurementBasis, SignalState, find_measurement_bases, find_signal_states
from .serialize import family_csv_header, family_to_csv_rows, family_to_json, state_to_json, write_csv

TABLE_DIMS = (2, 3, 4, 5, 8, 9)


def bound_summary() -> list[tuple[int, float]]:
    return [(d, bound_p(d)) for d in TABLE_DIMS]


def table1_csv() -> tuple[list[str], list[list[Any]]]:
    """Header and rows of table 1, the one writer behind every table-1 output."""
    return ["d", "success_bound"], [[d, f"{v:.4f}"] for d, v in bound_summary()]


def table5_csv(table: np.ndarray) -> tuple[list[str], list[list[Any]]]:
    """Header and rows of table 5 from vaa_overlap_table, the one writer behind
    every table-5 output."""
    rows = [[lab] + [f"{x:.6f}" for x in row] for lab, row in zip(collapse_row_labels(), table)]
    return ["collapsed_state", "chi1", "chi2", "chi3", "chi4"], rows


def _signal_rows(signals: list[SignalState]) -> list[list[Any]]:
    rows = []
    for num, s in enumerate(signals, start=1):
        row: list[Any] = [num] + [x + 1 for x in s.indices]
        for z in s.phases:
            z = complex(z)
            row += [z.real, z.imag]
        rows.append(row)
    return rows


def _basis_rows(bases: list[MeasurementBasis]) -> list[list[int]]:
    return [[num] + [m + 1 for m in b.members] for num, b in enumerate(bases, start=1)]


def write_tables(outdir: str, which: tuple[int, ...] = (1, 2, 3, 4, 5)) -> list[str]:
    """Write the requested tables under outdir; returns the paths written."""
    os.makedirs(outdir, exist_ok=True)
    paths: list[str] = []
    if {2, 3, 4} & set(which):
        family4 = construct_mub(4)
    if {3, 4} & set(which):
        signals = find_signal_states(family4)
        bases = find_measurement_bases(signals)

    def emit(name: str, header: list[str], rows: list[list[Any]], payload: dict[str, Any]) -> None:
        csv_path = os.path.join(outdir, f"{name}.csv")
        json_path = os.path.join(outdir, f"{name}.json")
        write_csv(csv_path, header, rows)
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        paths.extend([csv_path, json_path])

    for n in which:
        if n == 1:
            emit(
                "table1",
                *table1_csv(),
                {"bounds": [{"d": d, "value": v} for d, v in bound_summary()]},
            )
        elif n == 2:
            emit(
                "table2",
                family_csv_header(4),
                family_to_csv_rows(family4),
                family_to_json(family4),
            )
        elif n == 3:
            emit(
                "table3",
                ["state", "i", "j", "k", "l", "b_re", "b_im", "c_re", "c_im", "d_re", "d_im"],
                _signal_rows(signals),
                {
                    "states": [
                        {
                            "number": num,
                            "indices": [x + 1 for x in s.indices],
                            "phases": state_to_json(s.phases),
                        }
                        for num, s in enumerate(signals, start=1)
                    ]
                },
            )
        elif n == 4:
            emit(
                "table4",
                ["basis", "state1", "state2", "state3", "state4"],
                _basis_rows(bases),
                {"bases": [{"number": r[0], "members": r[1:]} for r in _basis_rows(bases)]},
            )
        elif n == 5:
            table = vaa_overlap_table(make_cube_setup())
            emit(
                "table5",
                *table5_csv(table),
                {
                    "rows": [
                        {"collapsed_state": lab, "overlaps": [float(x) for x in row]}
                        for lab, row in zip(collapse_row_labels(), table)
                    ]
                },
            )
        else:
            raise ValueError(f"unknown table {n}")
    return paths
