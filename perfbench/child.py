"""Child processes of the benchmark; run.py starts them one at a time.

    python3 perfbench/child.py setup <workload>
        Set the workload up cold and print "ready".  The parent times spawn
        to that line as one set-up sample: interpreter start, `import
        kings`, and the workload's own set-up.
    python3 perfbench/child.py reproduce <seed> <trace 0|1> <shift>
        One cold reproduce iteration.  Prints its failed checks, counts,
        margins and (when traced) spans as one JSON line.
"""

from __future__ import annotations

import json
import sys

import spans
import workloads


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        workload = workloads.WORKLOADS[argv[1]]()
        workload.k = workloads.import_kings()
        workload.setup()
        print("ready", flush=True)
        return 0
    if argv[0] == "reproduce":
        seed, traced, shift = int(argv[1]), argv[2] == "1", float(argv[3])
        recorder = spans.Recorder() if traced else None
        if recorder is None:
            k = workloads.import_kings()
        else:
            with recorder.span("import.kings"):
                k = workloads.import_kings()
            spans.instrument(recorder, workloads.trace_targets(k))
        report = workloads.reproduce_iteration(k, seed, shift)
        report["spans"] = recorder.spans if recorder is not None else []
        print(json.dumps(report))
        return 0
    print(f"child.py: unknown mode {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
