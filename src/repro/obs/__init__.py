"""Observability layer: lifecycle tracing, time series, phase profiling.

``repro.obs`` turns a running simulation into inspectable data without
perturbing it:

* :class:`~repro.obs.tracer.Tracer` — flit/packet lifecycle events
  (inject, route decision with candidate weights, VC alloc, switch alloc,
  link traversal, eject) into a bounded ring buffer, with per-packet 1/N
  and cycle-window sampling (:class:`~repro.obs.events.TraceOptions`);
* :func:`~repro.obs.tracer.record_hops` — every packet's committed
  ``(router, out_port, out_vc)`` hops, for path and VC-class checks;
* :class:`~repro.obs.timeseries.TimeSeriesSampler` — windowed
  offered/accepted throughput, latency percentiles, per-dimension link
  utilization, and per-(router, VC) occupancy;
* :mod:`~repro.obs.export` — JSONL (canonical, golden-pinned) and Chrome
  trace-event JSON (perfetto-loadable) exporters plus ASCII occupancy
  heatmaps;
* :class:`~repro.obs.profile.PhaseProfiler` — wall-clock attribution of
  ``Simulator.run`` to route / VC-alloc / SA / link phases;
* :mod:`~repro.obs.golden` — the pinned golden-trace scenarios behind
  ``tests/golden/`` and ``python -m repro trace --golden``.

Everything attaches through the established hook seams (router route and
forward hooks, terminal listeners, simulator processes, channel sinks) and
detaches without residue; with tracing detached the simulator runs at full
speed, and with it attached results are byte-identical to an untraced run
(enforced by ``repro.check.oracle.diff_trace_on_off``).

See docs/OBSERVABILITY.md for the event schema and workflow examples.
"""

from ..network.stats import nearest_rank
from .events import EVENT_TYPES, EventRing, TraceEvent, TraceOptions
from .export import (
    chrome_trace,
    event_line,
    events_jsonl,
    occupancy_heatmap,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_point_trace,
)
from .golden import GOLDEN_ALGORITHMS, golden_jsonl, golden_tracer
from .profile import PhaseProfiler
from .timeseries import TimeSeriesSampler, WindowSample
from .tracer import Tracer, record_hops

__all__ = [
    "EVENT_TYPES",
    "EventRing",
    "TraceEvent",
    "TraceOptions",
    "Tracer",
    "record_hops",
    "TimeSeriesSampler",
    "WindowSample",
    "PhaseProfiler",
    "GOLDEN_ALGORITHMS",
    "golden_tracer",
    "golden_jsonl",
    "chrome_trace",
    "event_line",
    "events_jsonl",
    "occupancy_heatmap",
    "read_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_point_trace",
    "nearest_rank",
]
