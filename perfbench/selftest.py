"""Smoke check of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute.  For every workload,
at tiny size, it checks that:

- BENCHMARK.json names exactly the metrics run.py defines, with their units;
- an untraced run prints each workload's metrics by name with a unit, and
  its result line carries every end-to-end metric with its unit;
- a traced run's result line carries every per-layer metric with its unit;
- the outputs check clean on the program as it stands;
- with --wrong-expected the failures show in failed_share and the result.

It also checks that in a directory holding only BENCHMARK.json and
perfbench/ the benchmark exits non-zero without printing a result.
Exits 1 and lists what broke if any check fails.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import OUT, ROOT

# workload -> (extra arguments, names its human-readable lines must print)
CASES = {
    "reproduce": (["--seconds", "0.1"], ("setup_s", "reproduce_s", "peak_rss_mb", "failed_share")),
    "referee": (["--seconds", "1", "--smoke"],
                ("setup_s", "referee_trials_per_s", "peak_rss_mb", "failed_share")),
    "sweep": (["--seconds", "2"], ("setup_s", "sweep_ops_per_s", "sweep_op_ms.p50",
                                   "sweep_op_ms.p99", "peak_rss_mb", "failed_share")),
}


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def printed(stdout: str, name: str) -> tuple[float, str] | None:
    """Value and unit of a human-readable metric line, if printed."""
    match = re.search(rf"^\s+{re.escape(name)}\s+(\S+)\s+(\S+)", stdout, re.MULTILINE)
    return (float(match.group(1)), match.group(2)) if match else None


def check_result(errors: list[str], label: str, proc: subprocess.CompletedProcess,
                 declared: list[dict]) -> dict:
    if proc.returncode != 0:
        errors.append(f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        errors.append(f"{label}: malformed result {sorted(result)}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ set(want))} / units {got == want}")
    return result


def main() -> int:
    errors: list[str] = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    if declared != set(run.END_TO_END):
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {(m["name"], m["unit"]) for m in spec["per_layer"]} != set(run.per_layer_metrics()):
        errors.append("BENCHMARK.json per_layer differs from run.per_layer_metrics()")
    if {w["name"] for w in spec["workloads"]} != set(CASES):
        errors.append("BENCHMARK.json workloads differ from the benchmark's")

    for workload, (extra, names) in CASES.items():
        base = ["--workload", workload, "--seed", "7", *extra]
        proc = bench(ROOT, *base, "--trace", "0")
        result = check_result(errors, f"{workload} untraced", proc, spec["end_to_end"])
        if result and (result["failed"] or not result["correct"]):
            errors.append(f"{workload}: {result['failed']} checks fail on the program as it stands")
        for name in names:
            if result and not printed(proc.stdout, name):
                errors.append(f"{workload}: no line for {name} with a unit")

        proc = bench(ROOT, *base, "--trace", "1")
        check_result(errors, f"{workload} traced", proc, spec["per_layer"])

        proc = bench(ROOT, *base, "--trace", "0", "--wrong-expected")
        result = check_result(errors, f"{workload} wrong", proc, spec["end_to_end"])
        share = printed(proc.stdout, "failed_share")
        if result and (not result["failed"] or result["correct"] or not share or share[0] <= 0):
            errors.append(f"{workload}: a wrong expected value did not show in failed_share")
        print(f"{workload}: checked", flush=True)

    OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("without the program the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare)
    print("bare directory: checked")

    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
