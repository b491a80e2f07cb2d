"""Command-line front end: build families, evaluate strategies, reproduce
the reference tables as CSV/JSON, run the Monte Carlo referee and the
acceptance suite.

Every flag a subcommand accepts changes what it does: `--seed` exists only
on `simulate` and `--tolerance` (the certification tolerance) only on `mub`.
Every artifact-writing command drops a run manifest next to its output so
the emitting command line, seed, tool version and tolerances are always
recoverable; stdout-printing commands embed the manifest in their JSON.
Exit codes: 0 success, 1 failed check, 2 usage error. A usage error is a
malformed command line, a value the library rejects with `ValueError`, or a
path that cannot be used; each is reported as one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Any, NoReturn

from . import __version__
from .bounds import bound_report, overlap_target, relaxed_f_max
from .config import CONSTRUCTION_TOL, COMPARISON_TOL
from .cube import conventional_baseline, conventional_cube_optimize, make_cube_setup
from .game import GameConfig, run
from .mub import certify_family, construct_mub
from .search import certify_d3_impossible
from .presets import (
    cube_conventional_strategy,
    cube_vaa_strategy,
    d2_optimal_strategy,
    d4_optimal_strategy,
)
from .serialize import basis_from_json, family_csv_header, family_to_csv_rows, family_to_json, write_csv
from .strategy import build_strategy, success_exact
from .tables import table1, table5, write_tables
from .verify import run_all


class UsageError(Exception):
    """Bad command-line input; reported on stderr with exit code 2."""


@dataclass
class RunManifest:
    """Provenance record emitted alongside every artifact."""

    command: str
    parameters: dict[str, Any]
    seed: int | None
    version: str
    tolerances: dict[str, float]
    timestamp: str


def make_manifest(command: str, parameters: dict[str, Any], *, seed: int | None = None,
                  tolerance: float | None = None) -> RunManifest:
    return RunManifest(
        command=command,
        parameters=parameters,
        seed=seed,
        version=__version__,
        tolerances={
            "construction": CONSTRUCTION_TOL,
            "comparison": tolerance if tolerance is not None else COMPARISON_TOL,
        },
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def _print_json(obj: dict[str, Any], out: str | None, manifest: RunManifest) -> None:
    """Print with the manifest embedded, or write `out` + manifest sibling."""
    if out is None:
        sys.stdout.write(json.dumps({"manifest": asdict(manifest), **obj}, indent=2) + "\n")
        return
    with open(out, "w") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")
    _write_manifest(_sibling_manifest_path(out), manifest, [out])


def _emit_csv(header: list[str], rows: list[list[Any]], out: str | None, manifest: RunManifest) -> None:
    """Print `_csv_text`, or write `out` as `kings tables` does, with a manifest sibling."""
    if out is None:
        sys.stdout.write(_csv_text(header, rows))
        return
    write_csv(out, header, rows)
    _write_manifest(_sibling_manifest_path(out), manifest, [out])


def _csv_text(header: list[str], rows: list[list[Any]]) -> str:
    """Comma-joined LF lines for stdout; a file is written by the csv module (CRLF)."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def _sibling_manifest_path(out: str) -> str:
    stem, _ = os.path.splitext(out)
    return stem + ".manifest.json"


def _write_manifest(path: str, manifest: RunManifest, files: list[str]) -> None:
    record = {**asdict(manifest), "files": [os.path.basename(f) for f in files]}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def _write_table_files(outdir: str, which: tuple[int, ...], manifest: RunManifest) -> None:
    """Write the numbered tables and `manifest.json` into `outdir`; print the paths."""
    paths = write_tables(outdir, which=which)
    _write_manifest(os.path.join(outdir, "manifest.json"), manifest, paths)
    for p in paths:
        print(p)


# --- subcommands --------------------------------------------------------------


def cmd_mub(args: argparse.Namespace) -> int:
    if args.tolerance is not None and not 0 < args.tolerance < math.inf:
        raise UsageError(f"--tolerance must be positive and finite, got {args.tolerance}")
    family = construct_mub(args.d)
    report = certify_family(family, atol=args.tolerance)
    manifest = make_manifest("mub", {"d": args.d, "emit": args.emit, "out": args.out},
                             tolerance=args.tolerance)
    emit = args.emit or "json"
    if emit == "json":
        obj = family_to_json(family)
        obj["certification"] = {
            "passed": report.passed,
            "max_orthonormality_deviation": report.max_orthonormality_deviation,
            "max_unbiasedness_deviation": report.max_unbiasedness_deviation,
            "atol": report.atol,
        }
        _print_json(obj, args.out, manifest)
    elif emit == "csv":
        _emit_csv(family_csv_header(family.dim), family_to_csv_rows(family), args.out, manifest)
    else:
        raise UsageError(f"mub emits json or csv, not {emit!r}")
    return 0 if report.passed else 1


def cmd_bound(args: argparse.Namespace) -> int:
    manifest = make_manifest("bound", {"d": args.d, "r": args.r, "table1": args.table1})
    if args.table1:
        if args.d is not None or args.r is not None:
            raise UsageError("bound --table1 prints every dimension and takes no --d or --r")
        header, rows, _ = table1()
        _emit_csv(header, rows, args.out, manifest)
        return 0
    if args.d is None:
        raise UsageError("bound needs --d (or --table1)")
    _print_json(asdict(bound_report(args.d, args.r)), args.out, manifest)
    return 0


def _load_control(source: str, d: int):
    if source == "builtin":
        if d == 2:
            return d2_optimal_strategy().control
        if d == 4:
            return d4_optimal_strategy().control
        raise UsageError(f"no builtin control basis for d={d}; pass a JSON file")
    if not os.path.exists(source):
        raise UsageError(f"control file not found: {source}")
    try:
        with open(source) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise TypeError("the top level is not a JSON object")
        return basis_from_json(obj)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise UsageError(f"malformed control basis file {source}: {exc}") from exc


def cmd_eval(args: argparse.Namespace) -> int:
    family = construct_mub(args.d)
    control = _load_control(args.control, args.d)
    strategy = build_strategy(family, args.prep_basis, args.prep_index, control)
    manifest = make_manifest("eval", {"d": args.d, "control": args.control,
                                      "prep_basis": args.prep_basis, "prep_index": args.prep_index})
    _print_json(asdict(success_exact(strategy)), args.out, manifest)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    manifest = make_manifest("search", {"d": args.d, "emit": args.emit, "outdir": args.outdir})
    if args.d == 4:
        emit = args.emit or "table3,table4"
        nums = []
        for name in emit.split(","):
            if name.strip() not in ("table3", "table4"):
                raise UsageError(f"search --d 4 emits table3 and/or table4, not {name!r}")
            nums.append(int(name.strip()[-1]))
        _write_table_files(args.outdir, tuple(sorted(set(nums))), manifest)
        return 0
    if args.d == 3:
        if args.emit is not None:
            raise UsageError("search --d 3 writes impossibility-d3.json and takes no --emit")
        os.makedirs(args.outdir, exist_ok=True)
        family = construct_mub(3)
        report = certify_d3_impossible(family)
        relaxed = relaxed_f_max(family, excluded=0)
        ceiling = 3 * overlap_target(3)
        obj = {
            "dim": 3,
            "delta": report.delta,
            "passed": report.passed,
            "worst_min_deviation": report.worst,
            "slack": report.slack,
            "floor": report.floor,
            "evaluated_nodes": report.evaluated,
            "grid_nodes": report.grid_nodes,
            "relaxed_overlap_sum_max": relaxed.value,
            "overlap_sum_ceiling": ceiling,
            "gap": ceiling - relaxed.value,
            "tuples": [
                {"indices": list(t.indices), "deviation": t.deviation,
                 "angles": list(t.angles), "slack": t.slack}
                for t in report.tuples
            ],
        }
        out = os.path.join(args.outdir, "impossibility-d3.json")
        with open(out, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        _write_manifest(os.path.join(args.outdir, "manifest.json"), manifest, [out])
        print(out)
        return 0 if report.passed else 1
    raise UsageError(f"search supports --d 4 (catalogue) and --d 3 (impossibility), not {args.d}")


def cmd_cube_vaa(args: argparse.Namespace) -> int:
    if args.outdir is None:
        header, rows, _ = table5()
        sys.stdout.write(_csv_text(header, rows))
        return 0
    manifest = make_manifest("cube vaa", {"outdir": args.outdir})
    _write_table_files(args.outdir, (5,), manifest)
    return 0


def cmd_cube_conventional(args: argparse.Namespace) -> int:
    setup = make_cube_setup()
    result = conventional_cube_optimize(setup)
    manifest = make_manifest("cube conventional", {})
    obj = {
        "value": result.value,
        "direction": [float(x) for x in result.direction],
        "angle_to_first_diagonal_deg": result.angle_to_first_diagonal_deg,
        "rule": {str(a + 1): int(s) for a, s in sorted(result.rule.items())},
        "co_optima": [[float(x) for x in m] for m in result.co_optima],
        "great_circle_partner": None if result.great_circle is None else result.great_circle + 1,
        "baseline": conventional_baseline(setup),
        "upper_bound": result.upper_bound,
    }
    _print_json(obj, args.out, manifest)
    return 0


_SIM_MODES = {"d4": d4_optimal_strategy, "d2": d2_optimal_strategy,
              "cube-vaa": cube_vaa_strategy, "cube-conv": cube_conventional_strategy}


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    strategy = _SIM_MODES[args.mode]()
    result = run(GameConfig(strategy=strategy, trials=args.trials, seed=args.seed))
    manifest = make_manifest("simulate", {"mode": args.mode, "trials": args.trials},
                             seed=args.seed)
    _print_json(asdict(result), args.out, manifest)
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    try:
        which = tuple(sorted({int(w) for w in args.which.split(",")}))
    except ValueError as exc:
        raise UsageError(f"--which wants numbers like 1,3,5: {exc}") from exc
    manifest = make_manifest("tables", {"which": list(which), "outdir": args.outdir})
    _write_table_files(args.outdir, which, manifest)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(profile=args.profile)
    for r in results:
        print(r.line())
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed ({args.profile} profile)")
    return 0 if n_pass == len(results) else 1


# --- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one `error:` line and exit code 2.

    Abbreviations are off, so `--out` is not taken for `--outdir`.
    """

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=None,
                     help="write to this file instead of stdout (manifest sibling)")
    parser = _Parser(
        prog="kings",
        description="Retrodicting measurement outcomes across unbiased bases: "
                    "constructions, bounds, searches and the cube-diagonal game.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mub", parents=[out], help="construct and certify an unbiased family")
    p.add_argument("--d", type=int, required=True, help="Hilbert space dimension")
    p.add_argument("--emit", type=str, default=None, help="json (default) or csv")
    p.add_argument("--tolerance", type=float, default=None,
                   help="certification tolerance (default: the comparison tolerance)")
    p.set_defaults(func=cmd_mub)

    scope = ("success bounds and their split forms for the conventional class (an eigenstate "
             "preparation, one control basis, a bijective assignment), not for every "
             "ancilla-free strategy")
    p = sub.add_parser("bound", parents=[out], help=scope, description=scope)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--r", type=int, default=None, help="number of guessed bases")
    p.add_argument("--table1", action="store_true", help="emit the bound summary as CSV")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("eval", parents=[out], help="exact success of a control basis")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--control", type=str, required=True,
                   help="'builtin' (d=2 or 4) or a JSON basis file")
    p.add_argument("--prep-basis", type=int, default=0)
    p.add_argument("--prep-index", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search",
                       help="equal-overlap state search (d=4) / impossibility certificate (d=3)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--emit", type=str, default=None,
                   help="d=4 only: table3, table4 or both (default)")
    p.add_argument("--outdir", type=str, default=".")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("cube", help="cube-diagonal qubit game")
    cube_sub = p.add_subparsers(dest="variant", required=True)
    v = cube_sub.add_parser("vaa", help="entangled-pair protocol tables")
    v.add_argument("--outdir", type=str, default=None)
    v.set_defaults(func=cmd_cube_vaa)
    c = cube_sub.add_parser("conventional", parents=[out], help="ancilla-free optimum")
    c.set_defaults(func=cmd_cube_conventional)

    p = sub.add_parser("simulate", parents=[out], help="Monte Carlo referee")
    p.add_argument("--mode", type=str, required=True, choices=tuple(_SIM_MODES))
    p.add_argument("--trials", type=int, default=100_000,
                   help="rounds to play; memory stays O(CHUNK), one 2^20-trial chunk at about "
                        "1 B a trial, whatever the count")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tables", help="write reference tables as CSV + JSON")
    p.add_argument("--which", type=str, default="1,2,3,4,5")
    p.add_argument("--outdir", type=str, default="tables")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--profile", type=str, default="full", choices=("quick", "full"))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, MemoryError) as exc:  # each names what it refused
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
