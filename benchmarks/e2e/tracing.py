"""In-memory spans around the calls into each layer, and their arithmetic.

Spans are recorded from the benchmark's own files only (tracing inside the
program is a later change), kept in memory and written once, on exit, as a
Chrome-trace compatible JSON.  A span's *self time* is its duration minus
the part its child spans cover, so the self times of one unit's spans sum
to the unit's duration.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


class Tracer:
    """Records ``{name, layer, start, end, parent, unit_id}`` spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._unit_id: str | None = None

    @contextmanager
    def span(self, name: str, layer: str, **args):
        rec = {
            "name": name, "layer": layer, "start": time.perf_counter(),
            "end": None, "parent": self._stack[-1] if self._stack else None,
            "unit_id": self._unit_id, "args": args,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def unit(self, unit_id: str):
        """The root span of one traced unit; spans inside share its id."""
        self._unit_id = unit_id
        try:
            with self.span("unit", "harness") as rec:
                yield rec
        finally:
            self._unit_id = None


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Self time per span: duration minus the durations of its children."""
    out = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration(s)
    return out


def shares(spans: list[dict], by: str) -> dict[str, float]:
    """Self-time share of the traced units' total, grouped by span field
    ``by`` ("layer" or "name"); spans outside any unit are left out."""
    selfs = self_times(spans)
    total = sum(duration(s) for s in spans
                if s["unit_id"] is not None and s["parent"] is None)
    out: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        if s["unit_id"] is not None:
            out[s[by]] = out.get(s[by], 0.0) + t
    return {k: v / total for k, v in out.items()} if total else {}


def durations(spans: list[dict], name: str) -> list[float]:
    return [duration(s) for s in spans if s["name"] == name]


def chrome_trace(spans: list[dict]) -> dict:
    """The spans as Chrome trace-event "complete" events (microseconds)."""
    origin = min((s["start"] for s in spans), default=0.0)
    events = []
    for i, s in enumerate(spans):
        events.append({
            "name": s["name"], "cat": s["layer"], "ph": "X", "pid": 1, "tid": 1,
            "ts": (s["start"] - origin) * 1e6, "dur": duration(s) * 1e6,
            "args": {"id": i, "parent": s["parent"], "unit_id": s["unit_id"],
                     **s["args"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: list[dict], path: str, extra: dict) -> None:
    doc = chrome_trace(spans)
    doc["otherData"] = extra
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f)
