"""Command-line front end: build families, evaluate strategies, reproduce
the reference tables as CSV/JSON, run the Monte Carlo referee and the
acceptance suite.

Every artifact-writing command drops a run manifest next to its output so
the emitting command line, seed, tool version and tolerances are always
recoverable; stdout-printing commands embed the manifest in their JSON.
Exit codes: 0 success, 1 failed check, 2 usage error.
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
from .config import DEFAULT
from .cube import (
    collapse_row_labels,
    conventional_baseline,
    conventional_cube_optimize,
    make_cube_setup,
    vaa_overlap_table,
)
from .game import GameConfig, run
from .mub import certify_family, construct_mub
from .search import certify_d3_impossible
from .presets import (
    cube_conventional_strategy,
    cube_vaa_strategy,
    d2_optimal_strategy,
    d4_optimal_strategy,
)
from .serialize import (
    basis_from_json,
    bound_report_to_json,
    breakdown_to_json,
    family_csv_header,
    family_to_csv_rows,
    family_to_json,
    game_result_to_json,
    write_csv,
)
from .strategy import build_strategy, success_exact
from .tables import table1_csv, write_tables
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


def make_manifest(command: str, parameters: dict[str, Any], seed: int | None,
                  tolerance: float | None) -> RunManifest:
    return RunManifest(
        command=command,
        parameters=parameters,
        seed=seed,
        version=__version__,
        tolerances={
            "construction": DEFAULT.construction,
            "comparison": tolerance if tolerance is not None else DEFAULT.comparison,
        },
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def _print_json(obj: dict[str, Any], out: str | None, manifest: RunManifest) -> None:
    """Print to stdout (manifest embedded) or write out + manifest sibling."""
    if out is None:
        obj = {"manifest": asdict(manifest), **obj}
        json.dump(obj, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        _write_manifest(_sibling_manifest_path(out), manifest, [out])


def _sibling_manifest_path(out: str) -> str:
    stem, _ = os.path.splitext(out)
    return stem + ".manifest.json"


def _write_manifest(path: str, manifest: RunManifest, files: list[str]) -> None:
    record = {**asdict(manifest), "files": [os.path.basename(f) for f in files]}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


# --- subcommands --------------------------------------------------------------


def cmd_mub(args: argparse.Namespace) -> int:
    try:
        family = construct_mub(args.d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = certify_family(family, atol=args.tolerance)
    manifest = make_manifest("mub", {"d": args.d, "emit": args.emit, "out": args.out},
                             args.seed, args.tolerance)
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
        header, rows = family_csv_header(family.dim), family_to_csv_rows(family)
        if args.out is None:
            print(",".join(header))
            for row in rows:
                print(",".join(str(x) for x in row))
        else:
            write_csv(args.out, header, rows)
            _write_manifest(_sibling_manifest_path(args.out), manifest, [args.out])
    else:
        raise UsageError(f"mub emits json or csv, not {emit!r}")
    return 0 if report.passed else 1


def cmd_bound(args: argparse.Namespace) -> int:
    manifest = make_manifest("bound", {"d": args.d, "r": args.r, "table1": args.table1},
                             args.seed, args.tolerance)
    if args.table1:
        header, rows = table1_csv()
        text = "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
            _write_manifest(_sibling_manifest_path(args.out), manifest, [args.out])
        return 0
    if args.d is None:
        raise UsageError("bound needs --d (or --table1)")
    try:
        report = bound_report(args.d, args.r)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _print_json(bound_report_to_json(report), args.out, manifest)
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
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed control basis file {source}: {exc}") from exc


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        family = construct_mub(args.d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    control = _load_control(args.control, args.d)
    try:
        strategy = build_strategy(family, args.prep_basis, args.prep_index, control)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    breakdown = success_exact(strategy)
    manifest = make_manifest(
        "eval",
        {"d": args.d, "control": args.control, "prep_basis": args.prep_basis,
         "prep_index": args.prep_index},
        args.seed, args.tolerance,
    )
    _print_json(breakdown_to_json(breakdown), args.out, manifest)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    manifest = make_manifest("search", {"d": args.d, "emit": args.emit,
                                        "outdir": args.outdir}, args.seed, args.tolerance)
    if args.d == 4:
        emit = args.emit or "table3,table4"
        nums = []
        for name in emit.split(","):
            if name.strip() not in ("table3", "table4"):
                raise UsageError(f"search --d 4 emits table3 and/or table4, not {name!r}")
            nums.append(int(name.strip()[-1]))
        paths = write_tables(args.outdir, which=tuple(sorted(set(nums))))
        _write_manifest(os.path.join(args.outdir, "manifest.json"), manifest, paths)
        for p in paths:
            print(p)
        return 0
    if args.d == 3:
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


def cmd_cube(args: argparse.Namespace) -> int:
    setup = make_cube_setup()
    if args.variant == "vaa":
        emit = args.emit or "table5"
        if emit != "table5":
            raise UsageError(f"cube vaa emits table5, not {emit!r}")
        manifest = make_manifest("cube vaa", {"emit": emit, "outdir": args.outdir},
                                 args.seed, args.tolerance)
        if args.outdir is None:
            table = vaa_overlap_table(setup)
            print("state," + ",".join(f"chi{k + 1}" for k in range(4)))
            for label, row in zip(collapse_row_labels(), table):
                print(label + "," + ",".join(f"{v:.6f}" for v in row))
            return 0
        paths = write_tables(args.outdir, which=(5,))
        _write_manifest(os.path.join(args.outdir, "manifest.json"), manifest, paths)
        for p in paths:
            print(p)
        return 0
    # conventional
    try:
        result = conventional_cube_optimize(setup, grid_deg=args.grid_deg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    manifest = make_manifest("cube conventional", {"grid_deg": args.grid_deg},
                             args.seed, args.tolerance)
    obj = {
        "value": result.value,
        "direction": [float(x) for x in result.direction],
        "angle_to_first_diagonal_deg": result.angle_to_first_diagonal_deg,
        "rule": {str(a + 1): int(s) for a, s in sorted(result.rule.items())},
        "co_optima": [[float(x) for x in m] for m in result.co_optima],
        "great_circle_partner": None if result.great_circle is None else result.great_circle + 1,
        "baseline": conventional_baseline(setup),
        "grid_best": result.grid_best,
    }
    _print_json(obj, args.out, manifest)
    return 0


_SIM_MODES = {"d4": d4_optimal_strategy, "d2": d2_optimal_strategy,
              "cube-vaa": cube_vaa_strategy, "cube-conv": cube_conventional_strategy}


def cmd_simulate(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    strategy = _SIM_MODES[args.mode]()
    try:
        result = run(GameConfig(strategy=strategy, trials=args.trials, seed=seed))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    manifest = make_manifest("simulate", {"mode": args.mode, "trials": args.trials},
                             seed, args.tolerance)
    _print_json(game_result_to_json(result), args.out, manifest)
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    try:
        which = tuple(sorted({int(w) for w in args.which.split(",")}))
    except ValueError as exc:
        raise UsageError(f"--which wants numbers like 1,3,5: {exc}") from exc
    if not which or any(w not in (1, 2, 3, 4, 5) for w in which):
        raise UsageError(f"--which entries must be table numbers 1..5, got {args.which!r}")
    manifest = make_manifest("tables", {"which": list(which), "outdir": args.outdir},
                             args.seed, args.tolerance)
    paths = write_tables(args.outdir, which=which)
    _write_manifest(os.path.join(args.outdir, "manifest.json"), manifest, paths)
    for p in paths:
        print(p)
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
    # shared flags, each attached only to the subcommands that read it
    seeded, emit, out = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    seeded.add_argument("--seed", type=int, default=None, help="RNG seed where applicable")
    seeded.add_argument("--tolerance", type=float, default=None,
                        help="override the comparison tolerance where applicable")
    emit.add_argument("--emit", type=str, default=None,
                      help="output format/selection (per subcommand)")
    out.add_argument("--out", type=str, default=None,
                     help="write to this file instead of stdout (manifest sibling)")
    parser = _Parser(
        prog="kings",
        description="Retrodicting measurement outcomes across unbiased bases: "
                    "constructions, bounds, searches and the cube-diagonal game.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.set_defaults(seed=None, tolerance=None)  # verify takes neither
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mub", parents=[seeded, emit, out],
                       help="construct and certify an unbiased family")
    p.add_argument("--d", type=int, required=True, help="Hilbert space dimension")
    p.set_defaults(func=cmd_mub)

    p = sub.add_parser("bound", parents=[seeded, out], help="success bounds and their split forms")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--r", type=int, default=None, help="number of guessed bases")
    p.add_argument("--table1", action="store_true", help="emit the bound summary as CSV")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("eval", parents=[seeded, out], help="exact success of a control basis")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--control", type=str, required=True,
                   help="'builtin' (d=2 or 4) or a JSON basis file")
    p.add_argument("--prep-basis", type=int, default=0)
    p.add_argument("--prep-index", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", parents=[seeded, emit],
                       help="equal-overlap state search (d=4) / impossibility certificate (d=3)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--outdir", type=str, default=".")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("cube", help="cube-diagonal qubit game")
    cube_sub = p.add_subparsers(dest="variant", required=True)
    v = cube_sub.add_parser("vaa", parents=[seeded, emit], help="entangled-pair protocol tables")
    v.add_argument("--outdir", type=str, default=None)
    v.set_defaults(func=cmd_cube, variant="vaa")
    c = cube_sub.add_parser("conventional", parents=[seeded, out], help="ancilla-free optimum")
    c.add_argument("--grid-deg", type=float, default=0.25)
    c.set_defaults(func=cmd_cube, variant="conventional")

    p = sub.add_parser("simulate", parents=[seeded, out], help="Monte Carlo referee")
    p.add_argument("--mode", type=str, required=True, choices=tuple(_SIM_MODES))
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tables", parents=[seeded], help="write reference tables as CSV + JSON")
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
        if args.seed is not None and args.seed < 0:
            raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.tolerance is not None and not 0 < args.tolerance < math.inf:
            raise UsageError(f"--tolerance must be positive and finite, got {args.tolerance}")
        return args.func(args)
    except (UsageError, OSError) as exc:  # an OSError names the path it could not use
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
