"""Round-trips for every encoder the CLI emits, decoded with the standard
library and the codecs kings.serialize keeps."""

import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from kings.bounds import bound_report
from kings.game import GameConfig, GameResult, run
from kings.mub import construct_mub
from kings.presets import d2_optimal_strategy, d4_optimal_strategy
from kings.serialize import (
    basis_from_json,
    basis_to_json,
    family_csv_header,
    family_to_csv_rows,
    family_to_json,
    write_csv,
)
from kings.strategy import build_strategy, success_exact
from kings.tables import write_tables


def _families():
    return [construct_mub(d) for d in (2, 3, 4, 5)]


def test_family_json_round_trip():
    for family in _families():
        obj = json.loads(json.dumps(family_to_json(family)))
        bases = [basis_from_json(b) for b in obj["bases"]]
        assert obj["dim"] == family.dim
        assert np.array_equal(np.stack([b.states for b in bases]), family.array)
        assert [b.label for b in bases] == [b.label for b in family.bases]


def test_family_csv_round_trip(tmp_path):
    for family in _families():
        path = tmp_path / f"family{family.dim}.csv"
        write_csv(path, family_csv_header(family.dim), family_to_csv_rows(family))
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert (len(header) - 2) // 2 == family.dim
        assert [(int(r[0]), int(r[1])) for r in rows] == [
            (m, j) for m in family.labels for j in range(family.dim)]
        values = np.array([[float(x) for x in r[2:]] for r in rows])
        states = values[:, 0::2] + 1j * values[:, 1::2]
        assert np.array_equal(states.reshape(family.array.shape), family.array)


def test_basis_json_round_trip():
    basis = d2_optimal_strategy().control
    back = basis_from_json(json.loads(json.dumps(basis_to_json(basis))))
    assert np.array_equal(back.states, basis.states)
    assert back.label == basis.label


def test_game_result_round_trip():
    result = run(GameConfig(strategy=d2_optimal_strategy(), trials=5_000, seed=77))
    obj = json.loads(json.dumps(asdict(result)))
    obj["per_choice"] = {int(k): tuple(v) for k, v in obj["per_choice"].items()}
    assert GameResult(**obj) == result


def test_bound_report_json():
    obj = asdict(bound_report(4, 2))
    assert obj == {"dim": 4, "r": 2, "value": obj["value"], "formula": "guess/control split"}
    assert obj["value"] == 0.7


def test_breakdown_json_keys():
    breakdown = success_exact(d2_optimal_strategy())
    obj = json.loads(json.dumps(asdict(breakdown)))
    assert obj["total"] == breakdown.total
    assert set(obj["per_basis"]) == {"0", "1", "2"}
    assert set(obj["per_signal"]) == {"0", "1"}
    # the keys print in label order whichever basis is prepared
    strategy = d4_optimal_strategy()
    for prep in (2, 4):
        moved = build_strategy(strategy.family, prep, 1, strategy.control)
        obj = json.loads(json.dumps(asdict(success_exact(moved))))
        assert list(obj["per_basis"]) == ["0", "1", "2", "3", "4"]
        assert obj["per_basis"][str(prep)] == 1.0


def test_generic_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, 2.5], ["x", -3]])
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["a", "b"]
    assert rows == [["1", "2.5"], ["x", "-3"]]


def test_table_json_siblings_carry_the_csv_data(tmp_path):
    write_tables(str(tmp_path))

    def load(n):
        with open(tmp_path / f"table{n}.csv", newline="") as fh:
            _, *rows = csv.reader(fh)
        return rows, json.loads((tmp_path / f"table{n}.json").read_text())

    rows, obj = load(1)
    assert len(rows) == 6
    assert [[str(b["d"]), f"{b['value']:.4f}"] for b in obj["bounds"]] == rows

    rows, obj = load(2)
    assert len(rows) == 20
    assert [[int(r[0]), int(r[1])] for r in rows] == [
        [b["label"], j] for b in obj["bases"] for j in range(len(b["states"]))]
    values = np.array([[float(x) for x in r[2:]] for r in rows])
    states = np.concatenate([basis_from_json(b).states for b in obj["bases"]])
    assert np.array_equal(values[:, 0::2] + 1j * values[:, 1::2], states)

    rows, obj = load(3)
    assert len(rows) == 32
    assert [[int(x) for x in r[:5]] for r in rows] == [
        [s["number"], *s["indices"]] for s in obj["states"]]
    assert [[float(x) for x in r[5:]] for r in rows] == [
        [v for z in s["phases"] for v in (z["re"], z["im"])] for s in obj["states"]]

    rows, obj = load(4)
    assert len(rows) == 32
    assert [[int(x) for x in r] for r in rows] == [[b["number"], *b["members"]] for b in obj["bases"]]

    rows, obj = load(5)
    assert len(rows) == 8
    assert [[r["collapsed_state"]] + [f"{x:.6f}" for x in r["overlaps"]] for r in obj["rows"]] == rows


def test_write_tables_refuses_an_unknown_table_before_writing(tmp_path):
    outdir = tmp_path / "x"
    with pytest.raises(ValueError, match="unknown table 6"):
        write_tables(str(outdir), which=(1, 6))
    assert not outdir.exists()
