"""Trace exporters: JSONL, Chrome trace-event JSON, ASCII heatmaps.

JSONL (one sorted-key compact JSON object per line) is the *canonical*
form — the golden-trace corpus pins these bytes, so the serialization is
deliberately minimal and deterministic: sorted keys, no whitespace, no
floats beyond the route weights the simulator itself computed.

The Chrome trace-event export produces a JSON object loadable by
``chrome://tracing`` and by Perfetto (https://ui.perfetto.dev): each
sampled packet becomes a complete ("X") slice on its own track spanning
inject → eject, its route/link events become instants, and time-series
windows become counter ("C") tracks.  Simulated cycles are mapped 1:1 to
trace microseconds.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Iterable, Sequence

from ..analysis.ascii_plot import ascii_heatmap
from .events import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from .timeseries import WindowSample


# ----------------------------------------------------------------------
# JSONL (canonical, golden-pinned)
# ----------------------------------------------------------------------

def event_line(event: TraceEvent) -> str:
    """One event as a compact, key-sorted JSON line (no trailing newline)."""
    return json.dumps(
        event.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def events_jsonl(events: Iterable[TraceEvent]) -> str:
    """The whole stream as JSON lines; newline-terminated when non-empty."""
    lines = [event_line(ev) for ev in events]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(events: Iterable[TraceEvent], path: str) -> str:
    with open(path, "w") as f:
        f.write(events_jsonl(events))
    return path


def read_jsonl(path: str) -> list[TraceEvent]:
    """Parse a JSONL trace back into events (inverse of :func:`write_jsonl`)."""
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            out.append(TraceEvent(d["cycle"], d["type"], d["pkt"], d["where"], d["data"]))
    return out


# ----------------------------------------------------------------------
# Chrome trace-event format (perfetto-loadable)
# ----------------------------------------------------------------------

def chrome_trace(
    events: Iterable[TraceEvent],
    samples: "Sequence[WindowSample] | None" = None,
) -> dict:
    """Events (and optional time-series windows) as a trace-event object."""
    te: list[dict] = [
        {"args": {"name": "packets"}, "name": "process_name", "ph": "M", "pid": 1, "tid": 0},
    ]
    by_packet: dict[int, list[TraceEvent]] = {}
    for ev in events:
        by_packet.setdefault(ev.pkt, []).append(ev)
    for tid in sorted(by_packet):
        evs = by_packet[tid]
        first, last = evs[0], evs[-1]
        if first.type == "inject":
            te.append({
                "args": dict(first.data),
                "cat": "packet",
                "dur": max(1, last.cycle - first.cycle),
                "name": f"pkt {tid} ({first.data['src']}->{first.data['dst']})",
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": first.cycle,
            })
        for ev in evs:
            if ev.type == "route":
                name = f"route @r{ev.where} -> p{ev.data['out_port']}"
            elif ev.type == "eject":
                name = f"eject @t{ev.where}"
            else:
                continue  # sa/link/vc_alloc stay JSONL-only (volume)
            te.append({
                "args": dict(ev.data),
                "cat": ev.type,
                "name": name,
                "ph": "i",
                "pid": 1,
                "s": "t",
                "tid": tid,
                "ts": ev.cycle,
            })
    if samples:
        te.append({
            "args": {"name": "timeseries"}, "name": "process_name",
            "ph": "M", "pid": 2, "tid": 0,
        })
        for s in samples:
            te.append({
                "args": {"accepted": s.accepted_flits, "offered": s.offered_flits},
                "name": "throughput (flits/window)",
                "ph": "C", "pid": 2, "ts": s.start,
            })
            te.append({
                "args": {"buffered": sum(s.router_occupancy)},
                "name": "buffered flits",
                "ph": "C", "pid": 2, "ts": s.end,
            })
    return {"displayTimeUnit": "ms", "traceEvents": te}


def write_chrome_trace(
    events: Iterable[TraceEvent],
    path: str,
    samples: "Sequence[WindowSample] | None" = None,
) -> str:
    with open(path, "w") as f:
        json.dump(chrome_trace(events, samples), f, sort_keys=True, indent=1)
        f.write("\n")
    return path


# ----------------------------------------------------------------------
# ASCII heatmaps (terminal diagnostics)
# ----------------------------------------------------------------------

def occupancy_heatmap(
    samples: "Sequence[WindowSample]", mode: str = "router"
) -> str:
    """Occupancy-over-time heatmap: one row per router (or per VC id),
    one column per time window."""
    if not samples:
        raise ValueError("no time-series windows to plot")
    if mode == "router":
        series = [s.router_occupancy for s in samples]
        labels = [f"r{i}" for i in range(len(series[0]))]
        title = "buffered flits per router (rows) over windows (cols)"
    elif mode == "vc":
        series = [s.vc_occupancy for s in samples]
        labels = [f"vc{i}" for i in range(len(series[0]))]
        title = "buffered flits per VC (rows) over windows (cols)"
    else:
        raise ValueError("mode must be 'router' or 'vc'")
    rows = [[col[i] for col in series] for i in range(len(series[0]))]
    span = f"cycles [{samples[0].start}, {samples[-1].end})"
    return ascii_heatmap(rows, row_labels=labels, title=title, x_label=span)


# ----------------------------------------------------------------------
# Driver-side export (measure_point / run_fault_transient plumbing)
# ----------------------------------------------------------------------

def write_point_trace(tracer, sampler, out_dir: str, stem: str) -> list[str]:
    """Write a point's trace artifacts under ``out_dir``; returns paths.

    Always writes ``<stem>.jsonl``; adds ``<stem>.chrome.json`` when the
    tracer's options ask for it.  ``stem`` must be deterministic so
    repeated runs overwrite rather than accumulate.
    """
    os.makedirs(out_dir, exist_ok=True)
    events = tracer.events()
    samples = sampler.samples if sampler is not None else None
    paths = [write_jsonl(events, os.path.join(out_dir, stem + ".jsonl"))]
    if tracer.options.chrome:
        paths.append(write_chrome_trace(
            events, os.path.join(out_dir, stem + ".chrome.json"), samples
        ))
    return paths
