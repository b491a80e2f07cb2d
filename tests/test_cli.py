"""End-to-end command-line checks: outputs parse with the standard library's
json and csv modules and the codecs kings.serialize keeps, manifests land next
to artifacts, exit codes follow the contract."""

import argparse
import csv
import inspect
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kings.bounds import bound_p
from kings.cli import build_parser, main
from kings.game import GameResult
from kings.mub import OrthonormalBasis, construct_mub
from kings.presets import d2_optimal_strategy
from kings.serialize import basis_from_json, basis_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def json_family_states(obj):
    """The (d + 1, d, d) states of a family printed by `kings mub`."""
    return np.stack([basis_from_json(b).states for b in obj["bases"]])


def csv_family_states(text):
    """The (d + 1, d, d) states of a family printed by `kings mub --emit csv`:
    basis, state, then re/im column pairs."""
    header, *rows = csv.reader(io.StringIO(text))
    dim = (len(header) - 2) // 2
    values = np.array([[float(x) for x in row[2:]] for row in rows])
    return (values[:, 0::2] + 1j * values[:, 1::2]).reshape(dim + 1, dim, dim)


def read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def test_bound_table1(capsys):
    code, out, _ = run_cli(capsys, "bound", "--table1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,success_bound"
    assert lines[1] == "2,0.9024"
    assert lines[4] == "5,0.6315"
    assert len(lines) == 7


def test_bound_json(capsys):
    code, out, _ = run_cli(capsys, "bound", "--d", "3")
    obj = json.loads(out)
    assert code == 0
    assert obj["value"] == pytest.approx(bound_p(3))
    assert obj["formula"] == "conventional"
    assert obj["manifest"]["command"] == "bound"
    assert obj["manifest"]["version"]


def test_bound_split_report(capsys):
    code, out, _ = run_cli(capsys, "bound", "--d", "4", "--r", "0")
    assert json.loads(out)["formula"] == "all-or-nothing split"
    assert code == 0


def test_bound_needs_d_or_table(capsys):
    code, _, err = run_cli(capsys, "bound")
    assert code == 2
    assert "error" in err


def test_mub_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "mub", "--d", "3")
    assert code == 0
    obj = json.loads(out)
    assert np.array_equal(json_family_states(obj), construct_mub(3).array)
    assert obj["certification"]["passed"] is True


def test_mub_csv_round_trips(capsys):
    code, out, _ = run_cli(capsys, "mub", "--d", "4", "--emit", "csv")
    assert code == 0
    assert np.array_equal(csv_family_states(out), construct_mub(4).array)


def test_mub_file_output_with_manifest(capsys, tmp_path):
    out_file = tmp_path / "family.json"
    code, _, _ = run_cli(capsys, "mub", "--d", "2", "--out", str(out_file))
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["dim"] == 2
    assert np.array_equal(json_family_states(obj), construct_mub(2).array)
    manifest = json.loads((tmp_path / "family.manifest.json").read_text())
    assert manifest["command"] == "mub"
    assert manifest["files"] == ["family.json"]


def test_mub_rejects_bad_dimension(capsys):
    code, _, err = run_cli(capsys, "mub", "--d", "6")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("exc", (MemoryError("Unable to allocate 149. GiB"), MemoryError()))
def test_memory_error_is_a_usage_error(capsys, monkeypatch, exc):
    """A family too large to allocate exits 2 with one error line, no traceback;
    the allocation is stubbed, as a real refusal depends on the machine."""
    def construct_mub(d):
        raise exc

    monkeypatch.setattr("kings.cli.construct_mub", construct_mub)
    code, _, err = run_cli(capsys, "mub", "--d", "100003")
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert err.strip() != "error:"


def test_mub_rejects_unknown_emit(capsys):
    code, _, err = run_cli(capsys, "mub", "--d", "2", "--emit", "xml")
    assert code == 2


def test_eval_builtin_d2(capsys):
    code, out, _ = run_cli(capsys, "eval", "--d", "2", "--control", "builtin")
    obj = json.loads(out)
    assert code == 0
    assert obj["total"] == pytest.approx((4 + np.sqrt(2)) / 6, abs=1e-12)


def test_eval_builtin_d4(capsys):
    code, out, _ = run_cli(capsys, "eval", "--d", "4", "--control", "builtin")
    assert json.loads(out)["total"] == pytest.approx(0.7, abs=1e-9)
    assert code == 0


def test_eval_control_file(capsys, tmp_path):
    control = tmp_path / "control.json"
    control.write_text(json.dumps(basis_to_json(d2_optimal_strategy().control)))
    code, out, _ = run_cli(capsys, "eval", "--d", "2", "--control", str(control))
    assert code == 0
    assert json.loads(out)["total"] == pytest.approx((4 + np.sqrt(2)) / 6, abs=1e-12)


def test_eval_rejects_a_nan_control_file(capsys, tmp_path):
    states = np.eye(7, dtype=complex)
    states[0, 0] = np.nan
    control = tmp_path / "control.json"
    control.write_text(json.dumps(basis_to_json(OrthonormalBasis(label=None, states=states))))
    code, _, err = run_cli(capsys, "eval", "--d", "7", "--control", str(control))
    assert code == 2
    assert err.startswith("error: control basis is not orthonormal") and err.count("\n") == 1


def test_eval_no_builtin_for_d3(capsys):
    code, _, err = run_cli(capsys, "eval", "--d", "3", "--control", "builtin")
    assert code == 2


def test_eval_missing_control_file(capsys):
    code, _, err = run_cli(capsys, "eval", "--d", "2", "--control", "nope.json")
    assert code == 2


def test_eval_malformed_control_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    for content in ('{"states": "oops"}', "{not json", "[1, 2]", "[" * 100_000):
        bad.write_text(content)
        code, _, err = run_cli(capsys, "eval", "--d", "2", "--control", str(bad))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, content
        assert str(bad) in err


def test_search_d4_writes_tables(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "search", "--d", "4", "--outdir", str(tmp_path))
    assert code == 0
    _, rows3 = read_csv(os.path.join(tmp_path, "table3.csv"))
    assert len(rows3) == 32
    _, rows4 = read_csv(os.path.join(tmp_path, "table4.csv"))
    assert len(rows4) == 32
    assert rows4[0][1:] == ["1", "11", "22", "32"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["files"]) >= {"table3.csv", "table4.csv"}


def test_search_d4_single_table(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "search", "--d", "4", "--outdir", str(tmp_path),
                         "--emit", "table3")
    assert code == 0
    assert (tmp_path / "table3.csv").exists()
    assert not (tmp_path / "table4.csv").exists()


def test_search_manifest_records_seed_as_given(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "search", "--d", "4", "--outdir", str(tmp_path),
                         "--emit", "table3")
    assert code == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["seed"] is None


def test_search_d3_impossibility_report(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "search", "--d", "3", "--outdir", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "impossibility-d3.json").read_text())
    assert report["passed"] is True
    assert len(report["tuples"]) == 27
    assert report["gap"] > 0.017
    assert report["worst_min_deviation"] > 1e-3
    assert report["floor"] == pytest.approx(report["worst_min_deviation"] - report["slack"])
    assert report["floor"] > report["delta"]
    assert all(t["deviation"] - t["slack"] >= report["floor"] for t in report["tuples"])
    assert report["grid_nodes"] == 27 * 720**2
    assert 0 < report["evaluated_nodes"] < report["grid_nodes"]


def test_search_rejects_other_dims(capsys, tmp_path):
    outdir = tmp_path / "out"
    code, _, err = run_cli(capsys, "search", "--d", "5", "--outdir", str(outdir))
    assert code == 2
    assert not outdir.exists()


def test_cube_vaa_stdout(capsys):
    code, out, _ = run_cli(capsys, "cube", "vaa")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "collapsed_state,chi1,chi2,chi3,chi4"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "+n1+n4"
    assert sum(float(x) for x in first[1:]) == pytest.approx(1.0, abs=1e-5)


def test_cube_vaa_table_files(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "cube", "vaa", "--outdir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "table5.csv").exists()
    assert (tmp_path / "manifest.json").exists()


def test_cube_conventional(capsys):
    code, out, _ = run_cli(capsys, "cube", "conventional")
    obj = json.loads(out)
    assert code == 0
    assert obj["manifest"]["parameters"] == {}
    assert obj["value"] == pytest.approx((15 + np.sqrt(33)) / 24, abs=1e-9)
    assert abs(obj["upper_bound"] - obj["value"]) <= 1e-12
    assert abs(obj["angle_to_first_diagonal_deg"] - 100.0) < 0.5
    assert obj["great_circle_partner"] in (2, 3, 4)
    assert obj["baseline"] == pytest.approx(0.75)
    assert obj["rule"]["1"] == 1


@pytest.mark.parametrize("argv", [
    ("simulate", "--mode", "d2", "--trials", "0"),
    ("simulate", "--mode", "d4", "--trials", "-5"),
    ("eval", "--d", "4", "--control", "builtin", "--prep-basis", "9"),
    ("eval", "--d", "4", "--control", "builtin", "--prep-index", "9"),
    ("eval", "--d", "4", "--control", "builtin", "--prep-basis", "-1"),
    ("mub", "--d", "4", "--tolerance", "-1"),
    ("mub", "--d", "4", "--tolerance", "0"),
    ("mub", "--d", "4", "--tolerance", "nan"),
    ("mub", "--d", "4", "--tolerance", "inf"),
    ("simulate", "--mode", "d2", "--seed", "-1"),
    ("tables", "--outdir", "/dev/null/x"),
    ("search", "--d", "3", "--outdir", "/dev/null/x"),
    ("search", "--d", "4", "--outdir", "/dev/null/x"),
    ("cube", "vaa", "--outdir", "/dev/null/x"),
    ("cube", "conventional", "--out", "/dev/null/x"),
    ("mub", "--d", "4", "--out", "/dev/null/x"),
    ("bound", "--d", "3", "--out", "/dev/null/x"),
    ("bound", "--table1", "--out", "/dev/null/x"),
    ("eval", "--d", "4", "--control", "builtin", "--out", "/dev/null/x"),
    ("simulate", "--mode", "d2", "--trials", "1000", "--out", "/dev/null/x"),
])
def test_bad_numbers_exit_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    named = next((a for a in argv if a in ("--seed", "--tolerance", "/dev/null/x")), None)
    assert named is None or named in err


@pytest.mark.parametrize("argv", [
    ("verify", "--seed", "5"),
    ("verify", "--out", "/dev/null/x"),
    ("verify", "--tolerance", "1e-9"),
    ("tables", "--emit", "csv"),
    ("bound", "--d", "3", "--emit", "csv"),
    ("simulate", "--mode", "d2", "--emit", "csv"),
    ("search", "--d", "4", "--out", "x.json"),
    ("tables", "--out", "x.json"),
    ("cube", "vaa", "--out", "x.json"),
    ("eval", "--d", "4", "--control", "builtin", "--emit", "json"),
    ("cube", "conventional", "--emit", "json"),
    ("mub", "--d", "nan"),
    ("search", "--d", "3", "--seed", "-1"),
    ("tables", "--seed", "1"),
    ("eval", "--d", "4", "--control", "builtin", "--tolerance", "1e-9"),
    ("cube", "vaa", "--emit", "table5"),
])
def test_unread_flags_and_malformed_values_exit_2_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("error: ")
    assert argv[-2] in out.err


@pytest.mark.parametrize("argv, flag", [
    (("bound", "--table1", "--d", "3", "--out"), "--d"),
    (("bound", "--table1", "--r", "2", "--out"), "--r"),
    (("search", "--d", "3", "--emit", "table3", "--outdir"), "--emit"),
])
def test_ignored_flag_combinations_exit_2_with_one_line(capsys, tmp_path, argv, flag):
    target = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, str(target))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert flag in err
    assert not target.exists()


# The option strings of each subcommand; each one changes what it does.
SUBCOMMAND_FLAGS = {
    "mub": {"--d", "--emit", "--tolerance", "--out"},
    "bound": {"--d", "--r", "--table1", "--out"},
    "eval": {"--d", "--control", "--prep-basis", "--prep-index", "--out"},
    "search": {"--d", "--emit", "--outdir"},
    "cube vaa": {"--outdir"},
    "cube conventional": {"--out"},
    "simulate": {"--mode", "--trials", "--seed", "--out"},
    "tables": {"--which", "--outdir"},
    "verify": {"--profile"},
}


def _leaf_parsers(parser, name=""):
    """Map each leaf subcommand ("cube vaa", ...) to its parser."""
    leaves = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub_name, sub in action.choices.items():
                leaves.update(_leaf_parsers(sub, f"{name} {sub_name}".strip()))
    return leaves or {name: parser}


def test_every_subcommand_accepts_only_the_flags_it_reads():
    leaves = _leaf_parsers(build_parser())
    options = {
        name: [a for a in sub._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
        for name, sub in leaves.items()
    }
    assert {name: {s for a in acts for s in a.option_strings}
            for name, acts in options.items()} == SUBCOMMAND_FLAGS
    for name, acts in options.items():
        source = inspect.getsource(leaves[name].get_default("func"))
        unread = [a.option_strings[0] for a in acts if f"args.{a.dest}" not in source]
        assert not unread, f"{name} accepts {unread} but never reads them"


# Every subcommand with valid required arguments, and the flags it reads.
FUZZ_COMMANDS = [
    (("mub", "--d", "4"), ("--tolerance", "--d", "--out")),
    (("bound", "--d", "3"), ("--d", "--out")),
    (("eval", "--d", "4", "--control", "builtin"),
     ("--d", "--prep-basis", "--prep-index", "--out")),
    (("search", "--d", "4"), ("--d", "--outdir")),
    (("cube", "vaa"), ("--outdir",)),
    (("cube", "conventional"), ("--out",)),
    (("simulate", "--mode", "d2", "--trials", "1000"), ("--seed", "--trials", "--out")),
    (("tables", "--which", "1"), ("--outdir",)),
]
ZERO_IS_VALID = ("--seed", "--prep-basis", "--prep-index")
NOT_FINITE = st.sampled_from(["nan", "inf", "-inf"])


@st.composite
def bad_command_lines(draw):
    """One subcommand with one of its flags set to a bad value (the last one wins)."""
    base, flags = draw(st.sampled_from(FUZZ_COMMANDS))
    flag = draw(st.sampled_from(flags))
    if flag in ("--out", "--outdir"):
        value = "/dev/null/" + draw(st.text(alphabet="abc019_", min_size=1, max_size=8))
    elif flag == "--tolerance":
        value = draw(NOT_FINITE | st.floats(max_value=0.0).map(repr))
    else:
        value = draw(NOT_FINITE | st.integers(max_value=-1 if flag in ZERO_IS_VALID else 0).map(str))
    return [*base, f"{flag}={value}"]


@settings(max_examples=80, deadline=None)
@given(bad_command_lines())
def test_fuzzed_bad_values_exit_2_with_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 2
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("error: ")


def test_simulate_round_trips(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--mode", "d2",
                           "--trials", "20000", "--seed", "5")
    assert code == 0
    obj = json.loads(out)
    record = {k: v for k, v in obj.items() if k != "manifest"}
    record["per_choice"] = {int(k): tuple(v) for k, v in record["per_choice"].items()}
    result = GameResult(**record)
    assert result.mode == "mub-d2"
    assert result.trials == 20000
    assert result.seed == 5
    assert obj["manifest"]["seed"] == 5
    assert result.successes == round(result.estimate * result.trials)


def test_simulate_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "simulate", "--mode", "cube-vaa",
                         "--trials", "5000", "--seed", "11")
    _, out2, _ = run_cli(capsys, "simulate", "--mode", "cube-vaa",
                         "--trials", "5000", "--seed", "11")
    # manifests differ only by timestamp; the numeric payload must not
    a, b = json.loads(out1), json.loads(out2)
    a.pop("manifest"), b.pop("manifest")
    assert a == b


def test_tables_selected_subset(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "tables", "--which", "1,5", "--outdir", str(tmp_path))
    assert code == 0
    names = sorted(os.listdir(tmp_path))
    assert "table1.csv" in names and "table5.csv" in names
    assert "table2.csv" not in names
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"]["which"] == [1, 5]
    header, rows = read_csv(os.path.join(tmp_path, "table1.csv"))
    assert rows[3] == ["5", "0.6315"]


def test_bound_table1_matches_tables_csv(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "bound", "--table1")
    run_cli(capsys, "tables", "--which", "1", "--outdir", str(tmp_path))
    header, rows = read_csv(os.path.join(tmp_path, "table1.csv"))
    assert [line.split(",") for line in out.strip().splitlines()] == [header, *rows]


def test_bound_table1_out_is_the_tables_file(capsys, tmp_path):
    run_cli(capsys, "bound", "--table1", "--out", str(tmp_path / "bound.csv"))
    run_cli(capsys, "tables", "--which", "1", "--outdir", str(tmp_path))
    assert (tmp_path / "bound.csv").read_bytes() == (tmp_path / "table1.csv").read_bytes()
    assert (tmp_path / "bound.manifest.json").exists()


def test_cube_vaa_stdout_matches_tables_csv(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "cube", "vaa")
    run_cli(capsys, "tables", "--which", "5", "--outdir", str(tmp_path))
    header, rows = read_csv(os.path.join(tmp_path, "table5.csv"))
    assert [line.split(",") for line in out.strip().splitlines()] == [header, *rows]


def test_tables_rejects_bad_selection(capsys, tmp_path):
    code, _, err = run_cli(capsys, "tables", "--which", "7", "--outdir", str(tmp_path))
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_quick_profile(capsys):
    # the output is the message, so a failure names the criterion that failed
    code, out, _ = run_cli(capsys, "verify", "--profile", "quick")
    assert code == 0, out
    lines = out.strip().splitlines()
    assert len(lines) == 11, out  # 10 criteria + summary
    assert all("PASS" in line for line in lines[:-1]), out
    assert lines[-1].startswith("10/10"), out
