"""Span recording for the traced benchmark runs.

A span is one call into a library function: its name, start, end, the span
that was open when it began (its parent) and the op it belongs to.  Spans
stay in memory and are written out when the workload ends.  Untraced runs
never create a Recorder or patch anything, so they pay nothing for tracing.

Calls are caught from outside the library: `instrument` rebinds a public
function's name in every loaded `kings` module to a wrapper that opens a
span, so calls the library makes internally (a preset running the d = 4
scan, `write_tables` rebuilding the catalogue) are recorded and nest under
their caller.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

SETUP_OP = -1  # op id of spans recorded while a workload sets up

# namer(args, kwargs) -> (span name, span attributes)
Namer = Callable[[tuple, dict], tuple[str, dict[str, Any]]]


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.op = SETUP_OP
        self._open: list[int] = []

    def open(self, name: str, attrs: dict[str, Any] | None = None) -> dict[str, Any]:
        record: dict[str, Any] = {
            "id": len(self.spans),
            "op": self.op,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._open.append(record["id"])
        return record

    def close(self, record: dict[str, Any]) -> None:
        record["end"] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = self.open(name)
        try:
            yield
        finally:
            self.close(record)

    def adopt(self, spans: list[dict[str, Any]]) -> None:
        """Append spans recorded by a child process under the open span.

        perf_counter is the system-wide monotonic clock on Linux, so a
        child's timestamps are comparable with the parent's.
        """
        offset = len(self.spans)
        outer = self._open[-1] if self._open else None
        for s in spans:
            s = dict(s, id=s["id"] + offset, op=self.op)
            s["parent"] = outer if s["parent"] is None else s["parent"] + offset
            self.spans.append(s)


def instrument(recorder: Recorder, targets: list[tuple[object, str, Namer]]) -> Callable[[], None]:
    """Route calls to each (module, function name) through a span.

    Every `kings` module attribute bound to the original function is
    rebound, so internal calls are caught too.  Returns a function that
    restores the originals.
    """
    restores: list[tuple[object, str, object]] = []
    for module, attr, namer in targets:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, _original=original, _namer=namer, **kwargs):
            record = recorder.open(*_namer(args, kwargs))
            try:
                return _original(*args, **kwargs)
            finally:
                recorder.close(record)

        for mod in list(sys.modules.values()):
            if mod is None or not (mod.__name__ == "kings" or mod.__name__.startswith("kings.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    restores.append((mod, key, original))

    def restore() -> None:
        for mod, key, original in restores:
            setattr(mod, key, original)

    return restore


def fixed(name: str) -> Namer:
    """Namer for a function whose span name does not depend on its arguments."""
    return lambda args, kwargs: (name, {})


def layer_totals(spans: list[dict[str, Any]]) -> dict[str, tuple[float, float, int]]:
    """Busy time, self time and call count per span name.

    Self time is a span's duration minus the time its children cover; the
    children of one span never overlap because each op runs on one thread.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, list] = {}
    for s in spans:
        duration = s["end"] - s["start"]
        entry = out.setdefault(s["name"], [0.0, 0.0, 0])
        entry[0] += duration
        entry[1] += duration - child_time[s["id"]]
        entry[2] += 1
    return {name: (busy, own, calls) for name, (busy, own, calls) in out.items()}
