"""Spans recorded around the benchmark's calls into zerosum.

A span has a name, the module it calls into, start and end times
(time.perf_counter, which is CLOCK_MONOTONIC and so comparable across
processes), its parent span and the pass it belongs to.  Spans are kept
in memory and written out once, when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, module: str):
        span = {
            "id": f"{self.pass_id}/{len(self.spans)}",
            "name": name,
            "module": module,
            "parent": self.spans[self._stack[-1]]["id"] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = s["end"] - s["start"] - covered
    return out
