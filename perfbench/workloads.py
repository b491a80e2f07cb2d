"""The benchmark's three workloads: their inputs, their ops and their output checks.

reproduce  one cold paper reproduction per op, each in a fresh interpreter:
           the layer calls behind `kings verify` criteria 3-8 and
           `kings tables`.  The search layer does most of the work.
referee    bulk Monte Carlo: one op runs `game.run` at 10**7 trials on each
           of the four presets in turn.  The game layer does nearly all the
           work, and its O(trials) arrays dwarf every cache.
sweep      a seeded stream of small ops: random strategies in d = 2..7
           (greedy map plus the dim! or Hungarian repair), exact success, a
           complement round trip, one cube direction, and 2,000-trial
           Monte Carlo runs that pay the per-call table lowering.

Each workload takes only the seed; the library receives only the inputs
generated from it.  Every op checks its outputs against `kings.reference`
or an exact closed form and reports failed checks as counts, never asserts.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Iterator

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"

REFEREE_TRIALS = 10**7
SMOKE_REFEREE_TRIALS = 20_000
SWEEP_TRIALS = 2_000
SWEEP_DIMS = (2, 3, 4, 5, 7)
REPRODUCE_DIMS = (2, 3, 4, 5, 7, 11, 13)
REPAIR_SAMPLE = 1_000  # strategies counted for strategy.repair_share
MC_SE_LIMIT = 5.0  # two-sided normal tail beyond 5 se: about 6e-7 per call
WRONG_SHIFT = 0.25  # added to expected values by --wrong-expected
CUBE_OPTIMUM = (15 + math.sqrt(33)) / 24
VAA_SUCCESS = (2 + math.sqrt(3)) / 4
D4_SUCCESS = 0.7


def import_kings() -> SimpleNamespace:
    """Import the library from the checkout's src/ and return its modules.

    numpy is imported here too, never at module level, so that a traced
    `import.kings` span covers the library's whole import cost.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy
    from kings import bounds, cube, game, mub, presets, reference, search, strategy, tables

    return SimpleNamespace(np=numpy, bounds=bounds, cube=cube, game=game, mub=mub,
                           presets=presets, reference=reference, search=search,
                           strategy=strategy, tables=tables)


def game_mode(k: SimpleNamespace, strategy: Any) -> str:
    if isinstance(strategy, k.strategy.ConventionalStrategy):
        return f"mub-d{strategy.family.dim}"
    if isinstance(strategy, k.game.CubeVaaStrategy):
        return "cube-vaa"
    return "cube-conventional"


PRESETS = ("d4_optimal_strategy", "d2_optimal_strategy", "cube_vaa_strategy",
           "cube_conventional_strategy")


def trace_targets(k: SimpleNamespace) -> list[tuple[object, str, spans.Namer]]:
    """The public layer functions a traced run records, with their span names."""

    def build_strategy(args, kwargs):
        family = args[0] if args else kwargs["family"]
        return ("strategy.build_strategy.d_le4" if family.dim <= 4
                else "strategy.build_strategy.d_gt4"), {}

    def cube_optimize(args, kwargs):
        return f"cube.conventional_cube_optimize.grid_{float(kwargs.get('grid_deg', 0.25))!r}", {}

    def game_run(args, kwargs):
        config = args[0] if args else kwargs["config"]
        return "game.run", {"mode": game_mode(k, config.strategy), "trials": config.trials}

    f = spans.fixed
    return [
        (k.mub, "construct_mub", f("mub.construct_mub")),
        (k.mub, "certify_family", f("mub.certify_family")),
        (k.search, "find_signal_states", f("search.find_signal_states")),
        (k.search, "find_measurement_bases", f("search.find_measurement_bases")),
        (k.search, "certify_d3_impossible", f("search.certify_d3_impossible")),
        (k.bounds, "relaxed_f_max", f("bounds.relaxed_f_max")),
        (k.strategy, "random_control_basis", f("strategy.random_control_basis")),
        (k.strategy, "build_strategy", build_strategy),
        (k.strategy, "success_exact", f("strategy.success_exact")),
        (k.strategy, "complement_strategy", f("strategy.complement_strategy")),
        (k.strategy, "success_exact_general", f("strategy.success_exact_general")),
        (k.cube, "make_cube_setup", f("cube.make_cube_setup")),
        (k.cube, "vaa_success_exact", f("cube.vaa_success_exact")),
        (k.cube, "conventional_cube_optimize", cube_optimize),
        (k.cube, "conventional_cube_value", f("cube.conventional_cube_value")),
        (k.cube, "conventional_cube_rule", f("cube.conventional_cube_rule")),
        (k.game, "run", game_run),
        (k.tables, "write_tables", f("tables.write_tables")),
    ] + [(k.presets, name, f(f"presets.{name}")) for name in PRESETS]


# Span names of the layers, in report order; "op" is the root span of an op.
LAYERS = (
    "import.kings",
    "mub.construct_mub",
    "mub.certify_family",
    "search.find_signal_states",
    "search.find_measurement_bases",
    "search.certify_d3_impossible",
    "bounds.relaxed_f_max",
    "strategy.random_control_basis",
    "strategy.build_strategy.d_le4",
    "strategy.build_strategy.d_gt4",
    "strategy.success_exact",
    "strategy.complement_strategy",
    "strategy.success_exact_general",
    "cube.make_cube_setup",
    "cube.vaa_success_exact",
    "cube.conventional_cube_optimize.grid_0.25",
    "cube.conventional_cube_optimize.grid_1.0",
    "cube.conventional_cube_value",
    "cube.conventional_cube_rule",
    "game.run",
    "tables.write_tables",
) + tuple(f"presets.{name}" for name in PRESETS) + ("op",)

GAME_MODES = ("mub-d4", "mub-d2", "cube-vaa", "cube-conventional")


@dataclass
class Outcome:
    """What an op (or a set-up) did and how its output checks came out.

    attempted counts checked outputs (a reproduce iteration, a referee
    `run` call, a sweep op); failed counts those with any failed check.
    work is the number of work items (iterations, trials or ops) and work_s
    the time spent on them, or None for the op's own wall time.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    work: float = 1.0
    work_s: float | None = None
    margins: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)

    def checked(self, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(problems)

    def margin(self, name: str, value: float) -> None:
        self.margins[name] = max(self.margins.get(name, value), value)


def near(label: str, got: float, want: float, tol: float) -> list[str]:
    # written so that a NaN fails the check
    return [] if abs(got - want) <= tol else [f"{label}: {got!r} vs {want!r} (tol {tol:g})"]


def check_game(label: str, result: Any, trials: int, expected: float) -> tuple[list[str], float]:
    """Tallies add up and the estimate sits within MC_SE_LIMIT standard errors."""
    problems = []
    tallied = sum(t for t, _ in result.per_choice.values())
    won = sum(s for _, s in result.per_choice.values())
    if result.trials != trials or tallied != trials or won != result.successes:
        problems.append(f"{label}: tallies {tallied} trials / {won} wins, "
                        f"result {result.trials} / {result.successes}, asked {trials}")
    dev_se = abs(result.estimate - expected) / result.stderr
    if not dev_se <= MC_SE_LIMIT:
        problems.append(f"{label}: estimate {result.estimate!r} is {dev_se:.2f} se "
                        f"from {expected!r}")
    return problems, dev_se


def run_child(args: list[str]) -> tuple[list[str], float, float, float]:
    """Run child.py to completion, one at a time.

    Returns its stdout lines, the time from spawn to its first line, its
    wall time from spawn to exit, and its peak RSS in MB.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    with proc.stdout:
        first = proc.stdout.readline()
        first_s = time.perf_counter() - start
        rest = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited with code {proc.returncode}")
    return (first + rest).splitlines(), first_s, wall, usage.ru_maxrss / 1024


class Workload:
    """One workload: in-process set-up, a seeded op stream, and op execution."""

    name = ""
    in_process = True  # False: the ops run the library in child processes
    bulk_trials: int | None = None  # trials per bulk `run` call, if any

    def __init__(self, *, smoke: bool = False, wrong: bool = False) -> None:
        self.smoke = smoke
        self.shift = WRONG_SHIFT if wrong else 0.0
        self.k: SimpleNamespace | None = None

    def load(self) -> None:
        self.k = import_kings()

    def setup(self) -> Outcome | None:
        """Build what the ops need; returns the checks it made, if any."""
        return None

    def ops(self, seed: int) -> Iterator[Any]:
        raise NotImplementedError

    def run(self, op: Any, recorder: spans.Recorder | None) -> Outcome:
        raise NotImplementedError

    def counting_pass(self, seed: int) -> dict[str, float]:
        """Exact counts taken outside every timed region (traced runs only)."""
        return {}


class Reproduce(Workload):
    """Each op is one cold reproduction in a fresh interpreter (child.py)."""

    name = "reproduce"
    in_process = False

    def __init__(self, **kw: Any) -> None:
        super().__init__(**kw)
        self.peak_child_rss_mb = 0.0

    def ops(self, seed: int) -> Iterator[int]:
        rng = random.Random(seed)
        while True:
            yield rng.randrange(2**32)

    def run(self, op: int, recorder: spans.Recorder | None) -> Outcome:
        lines, _, wall, rss_mb = run_child(
            ["reproduce", str(op), str(int(recorder is not None)), str(self.shift)])
        self.peak_child_rss_mb = max(self.peak_child_rss_mb, rss_mb)
        report = json.loads(lines[-1])
        if recorder is not None:
            recorder.adopt(report["spans"])
        out = Outcome(margins=report["margins"], counts=report["counts"], work_s=wall)
        out.checked(report["problems"])
        return out


def reproduce_iteration(k: SimpleNamespace, seed: int, shift: float) -> dict[str, Any]:
    """One paper reproduction; the seed only shuffles the order of the work."""
    rng = random.Random(seed)
    ref = k.reference
    problems: list[str] = []
    counts: dict[str, float] = {}
    margins: dict[str, float] = {}

    families = {}
    for d in rng.sample(REPRODUCE_DIMS, len(REPRODUCE_DIMS)):
        families[d] = k.mub.construct_mub(d)
        if not k.mub.certify_family(families[d]).passed:
            problems.append(f"family d={d} fails certification")

    family4 = families[4]
    signals = k.search.find_signal_states(family4)
    got = [tuple(x + 1 for x in s.indices) + tuple(complex(p) for p in s.phases) for s in signals]
    want = [row[:4] + tuple(complex(p) for p in row[4:]) for row in ref.SIGNAL_CATALOG]
    if got != want:
        problems.append(f"{len(signals)} signal states differ from SIGNAL_CATALOG")
    bases = k.search.find_measurement_bases(signals)
    if [tuple(m + 1 for m in b.members) for b in bases] != list(ref.BASIS_CATALOG):
        problems.append(f"{len(bases)} bases differ from BASIS_CATALOG")
    # the scan tries 4**4 index tuples times 4**3 fourth-root phase triples
    counts["search.d4_candidates"] = 4**4 * 4**3
    counts["search.d4_states"] = len(signals)
    counts["search.d4_subsets"] = math.comb(len(signals), 4)
    counts["search.d4_bases"] = len(bases)

    worst = 0.0
    for n in rng.sample(range(len(bases)), len(bases)):
        strat = k.strategy.build_strategy(family4, 0, 0, bases[n].basis)
        total = k.strategy.success_exact(strat).total
        mirrored = k.strategy.complement_strategy(strat).success()
        problems += near(f"basis {n + 1} success", total, D4_SUCCESS + shift, 1e-9)
        problems += near(f"basis {n + 1} mirrored success", mirrored, D4_SUCCESS + shift, 1e-9)
        worst = max(worst, abs(total - D4_SUCCESS), abs(mirrored - D4_SUCCESS))
    margins["margin.success_max_abs_dev"] = worst

    family3 = families[3]
    report = k.search.certify_d3_impossible(family3)
    if not report.passed:
        problems.append("d = 3 certificate did not pass")
    problems += near("d = 3 worst deviation", report.worst, ref.D3_WORST_MIN_DEVIATION, 1e-9)
    counts["search.d3_tuples"] = len(report.tuples)
    counts["search.d3_floor_minus_delta"] = report.worst - report.delta
    relaxed = k.bounds.relaxed_f_max(family3, restarts=64, seed=0)
    problems += near("d = 3 relaxed maximum", relaxed.value, ref.D3_RELAXED_MAX, 1e-6)
    counts["bounds.d3_relaxed_gap"] = 3 * k.bounds.overlap_target(3) - relaxed.value

    setup = k.cube.make_cube_setup()
    problems += near("VAA success", k.cube.vaa_success_exact(setup), VAA_SUCCESS, 1e-12)
    optimum = k.cube.conventional_cube_optimize(setup, grid_deg=0.25)
    problems += near("cube optimum", optimum.value, CUBE_OPTIMUM, 1e-9)

    OUT.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="tables-", dir=OUT)
    try:
        paths = k.tables.write_tables(outdir)
        written = [p for p in paths if os.path.isfile(p)]
        if len(paths) != 10 or len(written) != 10:
            problems.append(f"{len(written)} of 10 table files written")
        counts["tables.bytes_written"] = sum(os.path.getsize(p) for p in written)
    finally:
        shutil.rmtree(outdir)
    return {"problems": problems, "counts": counts, "margins": margins}


class Referee(Workload):
    """Each op cycles once through the four presets at REFEREE_TRIALS trials."""

    name = "referee"

    def __init__(self, **kw: Any) -> None:
        super().__init__(**kw)
        self.bulk_trials = SMOKE_REFEREE_TRIALS if self.smoke else REFEREE_TRIALS

    def setup(self) -> None:
        k = self.k
        d4 = k.presets.d4_optimal_strategy()
        d2 = k.presets.d2_optimal_strategy()
        vaa = k.presets.cube_vaa_strategy()
        conv = k.presets.cube_conventional_strategy()
        self.cases = [
            (d4, k.strategy.success_exact(d4).total),
            (d2, k.strategy.success_exact(d2).total),
            (vaa, k.cube.vaa_success_exact(vaa.setup)),
            (conv, k.cube.conventional_cube_value(conv.setup, conv.direction)),
        ]

    def ops(self, seed: int) -> Iterator[list[int]]:
        calls = 0
        while True:
            yield [int(self.k.np.random.SeedSequence([seed, calls + j]).generate_state(1)[0])
                   for j in range(len(self.cases))]
            calls += len(self.cases)

    def run(self, op: list[int], recorder: spans.Recorder | None) -> Outcome:
        k = self.k
        out = Outcome(work=0.0, work_s=0.0)
        for (strategy, exact), run_seed in zip(self.cases, op):
            config = k.game.GameConfig(strategy=strategy, trials=self.bulk_trials, seed=run_seed)
            start = time.perf_counter()
            result = k.game.run(config)
            out.work_s += time.perf_counter() - start
            out.work += self.bulk_trials
            problems, dev_se = check_game(game_mode(k, strategy), result, self.bulk_trials,
                                          exact + self.shift)
            out.checked(problems)
            out.margin("margin.mc_max_dev_se", dev_se)
        return out


class Sweep(Workload):
    """Five ops in six: a random strategy in d cycling over SWEEP_DIMS; one
    in six: a random cube control direction.  Every op ends in a small run."""

    name = "sweep"

    def setup(self) -> Outcome:
        k = self.k
        out = Outcome()
        self.families = {}
        problems = []
        for d in SWEEP_DIMS:
            self.families[d] = k.mub.construct_mub(d)
            if not k.mub.certify_family(self.families[d]).passed:
                problems.append(f"family d={d} fails certification")
        out.checked(problems)
        self.cube_setup = k.cube.make_cube_setup()
        return out

    def ops(self, seed: int) -> Iterator[tuple]:
        np = self.k.np
        rng = np.random.default_rng(seed)
        index = 0
        mub_ops = 0
        while True:
            if index % 6 == 5:
                v = rng.normal(size=3)
                yield ("cube", v / np.linalg.norm(v), int(rng.integers(2**63)))
            else:
                d = SWEEP_DIMS[mub_ops % len(SWEEP_DIMS)]
                mub_ops += 1
                yield ("mub", d, int(rng.integers(d + 1)), int(rng.integers(2**63)),
                       int(rng.integers(2**63)))
            index += 1

    def run(self, op: tuple, recorder: spans.Recorder | None) -> Outcome:
        k = self.k
        out = Outcome()
        if op[0] == "cube":
            _, direction, run_seed = op
            value = k.cube.conventional_cube_value(self.cube_setup, direction)
            strategy = k.game.CubeConventionalStrategy(setup=self.cube_setup, direction=direction)
            problems = [] if 0.625 <= value <= CUBE_OPTIMUM + 1e-12 else [
                f"cube value {value!r} outside [0.625, {CUBE_OPTIMUM!r}]"]
            label = "cube-conventional"
        else:
            _, d, prep, strategy_seed, run_seed = op
            strategy = k.strategy.random_strategy(self.families[d], prep,
                                                  k.np.random.default_rng(strategy_seed))
            breakdown = k.strategy.success_exact(strategy)
            value = breakdown.total
            mirror = k.strategy.complement_strategy(strategy)
            mirrored = mirror.success()
            back = k.strategy.success_exact(k.strategy.complement_strategy(mirror)).total
            ceiling = d * k.bounds.overlap_target(d)
            label = f"mub-d{d}"
            problems = [] if max(breakdown.per_signal.values()) <= ceiling + 1e-9 else [
                f"{label}: overlap sum {max(breakdown.per_signal.values())!r} above {ceiling!r}"]
            problems += near(f"{label} regroup identity", breakdown.total_from_signals(), value, 1e-12)
            problems += near(f"{label} complement round trip", back, value, 1e-12)
            problems += near(f"{label} mirrored success", mirrored,
                             (1 + breakdown.per_signal[0]) / (d + 1), 1e-12)
        result = k.game.run(k.game.GameConfig(strategy=strategy, trials=SWEEP_TRIALS, seed=run_seed))
        game_problems, dev_se = check_game(label, result, SWEEP_TRIALS, value + self.shift)
        out.checked(problems + game_problems)
        out.margin("margin.mc_max_dev_se", dev_se)
        return out

    def counting_pass(self, seed: int) -> dict[str, float]:
        """Share of the first REPAIR_SAMPLE sweep strategies whose greedy map
        is not bijective, i.e. that need the repair step."""
        k = self.k
        repaired = counted = 0
        for op in self.ops(seed):
            if counted == REPAIR_SAMPLE:
                break
            if op[0] != "mub":
                continue
            _, d, prep, strategy_seed, _ = op
            control = k.strategy.random_control_basis(d, k.np.random.default_rng(strategy_seed))
            raw = k.strategy.assign_greedy(self.families[d], prep, control)
            repaired += not raw.is_well_conditioned()
            counted += 1
        return {"strategy.repair_share": repaired / counted}


WORKLOADS = {w.name: w for w in (Reproduce, Referee, Sweep)}
