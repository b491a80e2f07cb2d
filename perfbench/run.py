"""Benchmark driver for the kings package: one workload per invocation.

    python3 perfbench/run.py --workload {reproduce,referee,sweep} --seed N \\
        --seconds S --trace {0,1} [--smoke] [--wrong-expected]

Run it from the root of a checkout; it imports the library from src/.

--trace 0 measures the end-to-end metrics with tracing off: set-up time
(median of cold set-ups in fresh interpreters), op time median and tail,
throughput and peak RSS.  --trace 1 runs the same ops twice, untraced and
then traced, and reports per-layer busy time, self time and calls per op,
the exact counts and margins, and the tracing overhead; the spans are
written to .perfbench_out/ when the workload ends.

Human-readable lines come first, under workload-specific names
(reproduce_s, referee_trials_per_s, sweep_op_ms.p99, failed_share, ...).
The last line is one JSON object: correct, attempted, failed, metrics.

--smoke shrinks the referee's runs to a few thousand trials and takes one
set-up sample; --wrong-expected shifts every expected success value so
that the output checks must fail.  Both exist for selftest.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    from workloads import GAME_MODES, LAYERS

    out = []
    for layer in LAYERS:
        out += [(f"{layer}.busy_s", "s"), (f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    for mode in GAME_MODES:
        out += [(f"game.run.{mode}.busy_s", "s"), (f"game.run.{mode}.trials_per_s", "1/s")]
    out += [
        ("game.run.bytes_per_trial", "B"),
        ("game.run.small_call_ms", "ms"),
        ("tables.bytes_written", "B"),
        ("search.d4_candidates", "count"),
        ("search.d4_states", "count"),
        ("search.d4_useful_share", "share"),
        ("search.d4_subsets", "count"),
        ("search.d4_bases", "count"),
        ("search.d3_tuples", "count"),
        ("search.d3_floor_minus_delta", "1"),
        ("bounds.d3_relaxed_gap", "1"),
        ("strategy.repair_share", "share"),
        ("margin.mc_max_dev_se", "se"),
        ("margin.success_max_abs_dev", "1"),
        ("trace.ops", "count"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_share", "share"),
    ]
    return out


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads at the CPUs this process may use.

    Set before numpy loads; child processes inherit it.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def environment() -> dict:
    """Versions, CPU and thread settings the numbers were measured under."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Tally:
    """Totals over the ops of one pass."""

    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    work: float = 0.0
    work_s: float = 0.0
    margins: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    wall: float = 0.0

    def add(self, outcome, seconds: float | None = None) -> None:
        if seconds is not None:
            self.op_s.append(seconds)
            self.work += outcome.work
            self.work_s += seconds if outcome.work_s is None else outcome.work_s
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        for name, value in outcome.margins.items():
            self.margins[name] = max(self.margins.get(name, value), value)
        self.counts.update(outcome.counts)


def timed_pass(workload, seed: int, seconds: float, *, n_ops: int | None = None,
               recorder=None) -> Tally:
    """Run ops from the seeded stream for about `seconds`, or exactly n_ops.

    A timed pass starts another op only if it is expected to end less than
    half an op past `seconds`, so long ops do not overrun the run time.
    """
    tally = Tally()
    start = time.perf_counter()
    for index, op in enumerate(workload.ops(seed)):
        if n_ops is None:
            if index and time.perf_counter() - start + tally.op_s[-1] / 2 >= seconds:
                break
        elif index == n_ops:
            break
        t0 = time.perf_counter()
        if recorder is None:
            outcome = workload.run(op, None)
        else:
            recorder.op = index
            with recorder.span("op"):
                outcome = workload.run(op, recorder)
        tally.add(outcome, time.perf_counter() - t0)
    tally.wall = time.perf_counter() - start
    return tally


def tail(op_s: list[float]) -> tuple[str, float]:
    """The highest of p99, p90 and p50 with at least ten ops beyond it."""
    n = len(op_s)
    if n < 100:
        return "p50", statistics.median(op_s)
    cuts = statistics.quantiles(op_s, n=100, method="inclusive")
    return ("p99", cuts[98]) if n >= 1000 else ("p90", cuts[89])


def setup_samples(workload, count: int) -> list[float]:
    """Spawn-to-ready times of cold set-ups, each in a fresh interpreter."""
    from workloads import run_child

    return [run_child(["setup", workload.name])[1] for _ in range(count)]


def line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<24} {value:>14.6g} {unit:<6} {note}".rstrip())


def report_untraced(workload, setup: list[float], tally: Tally) -> dict:
    p50 = statistics.median(tally.op_s)
    tail_name, tail_s = tail(tally.op_s)
    rss = workload.peak_child_rss_mb if workload.name == "reproduce" else self_rss_mb()
    n = len(tally.op_s)
    print(f"workload {workload.name}: {n} ops in {tally.wall:.3f} s")
    line("setup_s", statistics.median(setup), "s", f"median of {len(setup)} cold set-ups")
    if workload.name == "reproduce":
        line("reproduce_s", p50, "s", f"median of {n} cold iterations")
    elif workload.name == "referee":
        line("referee_trials_per_s", tally.work / tally.work_s, "1/s",
             f"{tally.work:.0f} trials in {tally.work_s:.3f} s of run()")
        line("referee_cycle_s", p50, "s", f"median of {n} cycles over the 4 presets")
    else:
        line("sweep_ops_per_s", tally.work / tally.work_s, "1/s", f"{n} ops")
        line("sweep_op_ms.p50", 1000 * p50, "ms")
        line(f"sweep_op_ms.{tail_name}", 1000 * tail_s, "ms", f"{n} samples")
    if n <= 20:
        print("  op times (s): " + " ".join(f"{t:.3f}" for t in tally.op_s))
    line("peak_rss_mb", rss, "MB")
    line("failed_share", tally.failed / tally.attempted, "share",
         f"{tally.failed} of {tally.attempted} checked outputs")
    return {
        "setup_s": statistics.median(setup),
        "op_ms.p50": 1000 * p50,
        "op_ms.tail": 1000 * tail_s,
        "throughput_per_s": tally.work / tally.work_s,
        "peak_rss_mb": rss,
    }


def report_traced(workload, recorder, untraced: Tally, traced: Tally,
                  rss_growth_mb: float, counts: dict[str, float]) -> dict:
    from spans import SETUP_OP, layer_totals
    from workloads import GAME_MODES, SWEEP_TRIALS

    n = len(traced.op_s)
    in_setup = layer_totals([s for s in recorder.spans if s["op"] == SETUP_OP])
    in_ops = layer_totals([s for s in recorder.spans if s["op"] != SETUP_OP])
    values: dict[str, float] = {}
    for name, unit in per_layer_metrics():
        layer, _, stat = name.rpartition(".")
        index = {"busy_s": 0, "self_s": 1, "calls": 2}.get(stat)
        if index is not None and (layer in in_setup or layer in in_ops):
            # set-up spans count once, op spans per op
            values[name] = (in_setup.get(layer, (0, 0, 0))[index]
                            + in_ops.get(layer, (0, 0, 0))[index] / n)
    runs = [s for s in recorder.spans if s["name"] == "game.run" and s["op"] != SETUP_OP]
    for mode in GAME_MODES:
        mine = [s for s in runs if s["attrs"]["mode"] == mode]
        busy = sum(s["end"] - s["start"] for s in mine)
        if mine:
            values[f"game.run.{mode}.busy_s"] = busy / n
            values[f"game.run.{mode}.trials_per_s"] = sum(s["attrs"]["trials"] for s in mine) / busy
    small = [s["end"] - s["start"] for s in runs if s["attrs"]["trials"] <= SWEEP_TRIALS]
    if small:
        values["game.run.small_call_ms"] = 1000 * statistics.median(small)
    if workload.bulk_trials:
        values["game.run.bytes_per_trial"] = rss_growth_mb * 2**20 / workload.bulk_trials
    values.update(traced.counts)
    values.update(traced.margins)
    values.update(counts)
    if "search.d4_states" in values:
        values["search.d4_useful_share"] = values["search.d4_states"] / values["search.d4_candidates"]
    values["trace.ops"] = n
    values["trace.overhead_s"] = (traced.wall - untraced.wall) / n
    values["trace.overhead_share"] = (traced.wall - untraced.wall) / untraced.wall
    print(f"workload {workload.name} traced: {n} ops, untraced {untraced.wall:.3f} s, "
          f"traced {traced.wall:.3f} s")
    for name, unit in per_layer_metrics():
        if values.get(name):
            line(name, values[name], unit)
    return {name: values.get(name, 0.0) for name, _ in per_layer_metrics()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("reproduce", "referee", "sweep"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--wrong-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "kings" / "__init__.py").is_file():
        print(f"run.py: no kings source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    cap_threads()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](smoke=args.smoke, wrong=args.wrong_expected)
    if args.trace == 0:
        tally, metrics = untraced_run(workload, args)
        units = dict(END_TO_END)
    else:
        tally, metrics = traced_run(workload, args)
        units = dict(per_layer_metrics())
    for problem in tally.problems[:20]:
        print(f"  FAILED CHECK: {problem}")
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def untraced_run(workload, args) -> tuple[Tally, dict]:
    setup = setup_samples(workload, 1 if args.smoke else SETUP_SAMPLES)
    if workload.in_process:
        workload.load()
    before = workload.setup()
    tally = timed_pass(workload, args.seed, args.seconds)
    if before is not None:
        tally.add(before)
    return tally, report_untraced(workload, setup, tally)


def traced_run(workload, args) -> tuple[Tally, dict]:
    """Untraced ops for half the time, then the same ops traced."""
    import spans
    from workloads import OUT, trace_targets

    recorder = spans.Recorder()
    restore = lambda: None  # noqa: E731
    if workload.in_process:
        with recorder.span("import.kings"):
            workload.load()
        restore = spans.instrument(recorder, trace_targets(workload.k))
    before = workload.setup()
    restore()
    rss_before = self_rss_mb()
    untraced = timed_pass(workload, args.seed, args.seconds / 2)
    rss_growth = self_rss_mb() - rss_before
    if workload.in_process:
        restore = spans.instrument(recorder, trace_targets(workload.k))
    traced = timed_pass(workload, args.seed, 0, n_ops=len(untraced.op_s), recorder=recorder)
    restore()
    if before is not None:
        traced.add(before)
    counts = workload.counting_pass(args.seed)
    metrics = report_traced(workload, recorder, untraced, traced, rss_growth, counts)
    # the result counts the checks of both passes
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.problems = untraced.problems + traced.problems
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload.name}-{args.seed}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "spans": recorder.spans}, fh)
    return traced, metrics


if __name__ == "__main__":
    sys.exit(main())
