"""Builders and writer for the five reference tables.

table1  success bound by dimension
table2  the two-qubit unbiased family (basis states)
table3  the 32 equal-overlap signal states (indices and phases)
table4  the 32 orthonormal signal-state quadruples
table5  VAA overlap table for the cube game

Each table is one builder, `table<n>(...)`, that returns its CSV header, its
CSV rows and its JSON payload; the payload carries the same data at full
precision.  `write_tables` writes each as table<n>.csv plus a table<n>.json
sibling, and `kings bound --table1` and `kings cube vaa` print the rows of
table1() and table5().
"""

from __future__ import annotations

import json
import os
from typing import Any

from .bounds import bound_p
from .cube import collapse_row_labels, make_cube_setup, vaa_overlap_table
from .mub import MubFamily, construct_mub
from .search import MeasurementBasis, SignalState, find_measurement_bases, find_signal_states
from .serialize import family_csv_header, family_to_csv_rows, family_to_json, state_to_json, write_csv

TABLE_DIMS = (2, 3, 4, 5, 8, 9)
TABLE_NUMBERS = (1, 2, 3, 4, 5)

Table = tuple[list[str], list[list[Any]], dict[str, Any]]


def table1() -> Table:
    """Success bound by dimension: 4 decimals in the CSV."""
    bounds = [(d, bound_p(d)) for d in TABLE_DIMS]
    return (["d", "success_bound"], [[d, f"{v:.4f}"] for d, v in bounds],
            {"bounds": [{"d": d, "value": v} for d, v in bounds]})


def table2(family: MubFamily) -> Table:
    return family_csv_header(family.dim), family_to_csv_rows(family), family_to_json(family)


def table3(signals: list[SignalState]) -> Table:
    header = ["state", "i", "j", "k", "l", "b_re", "b_im", "c_re", "c_im", "d_re", "d_im"]
    rows: list[list[Any]] = []
    states = []
    for num, s in enumerate(signals, start=1):
        indices = [x + 1 for x in s.indices]
        row: list[Any] = [num] + indices
        for z in s.phases:
            z = complex(z)
            row += [z.real, z.imag]
        rows.append(row)
        states.append({"number": num, "indices": indices, "phases": state_to_json(s.phases)})
    return header, rows, {"states": states}


def table4(bases: list[MeasurementBasis]) -> Table:
    rows = [[num] + [m + 1 for m in b.members] for num, b in enumerate(bases, start=1)]
    return (["basis", "state1", "state2", "state3", "state4"], rows,
            {"bases": [{"number": r[0], "members": r[1:]} for r in rows]})


def table5() -> Table:
    """VAA overlaps of the eight collapsed states: 6 decimals in the CSV."""
    labelled = list(zip(collapse_row_labels(), vaa_overlap_table(make_cube_setup())))
    return (["collapsed_state", "chi1", "chi2", "chi3", "chi4"],
            [[lab] + [f"{x:.6f}" for x in row] for lab, row in labelled],
            {"rows": [{"collapsed_state": lab, "overlaps": [float(x) for x in row]}
                      for lab, row in labelled]})


def write_tables(outdir: str, which: tuple[int, ...] = TABLE_NUMBERS) -> list[str]:
    """Write the requested tables under outdir; returns the paths written.

    An unknown table number is refused before anything is created.
    """
    unknown = [n for n in which if n not in TABLE_NUMBERS]
    if unknown:
        raise ValueError(f"unknown table {unknown[0]}")
    os.makedirs(outdir, exist_ok=True)
    wanted = set(which)
    family4 = construct_mub(4) if wanted & {2, 3, 4} else None
    signals = find_signal_states(family4) if wanted & {3, 4} else None
    bases = find_measurement_bases(signals) if 4 in wanted else None
    build = {1: table1, 2: lambda: table2(family4), 3: lambda: table3(signals),
             4: lambda: table4(bases), 5: table5}
    paths: list[str] = []
    for n in which:
        header, rows, payload = build[n]()
        stem = os.path.join(outdir, f"table{n}")
        write_csv(stem + ".csv", header, rows)
        with open(stem + ".json", "w") as fh:
            json.dump(payload, fh, indent=2)
        paths += [stem + ".csv", stem + ".json"]
    return paths
