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

from .. import lazy_exports

lazy_exports(globals(), {
    "EVENT_TYPES": ".events",
    "EventRing": ".events",
    "TraceEvent": ".events",
    "TraceOptions": ".events",
    "Tracer": ".tracer",
    "record_hops": ".tracer",
    "TimeSeriesSampler": ".timeseries",
    "WindowSample": ".timeseries",
    "PhaseProfiler": ".profile",
    "GOLDEN_ALGORITHMS": ".golden",
    "golden_tracer": ".golden",
    "golden_jsonl": ".golden",
    "chrome_trace": ".export",
    "event_line": ".export",
    "events_jsonl": ".export",
    "occupancy_heatmap": ".export",
    "read_jsonl": ".export",
    "write_chrome_trace": ".export",
    "write_jsonl": ".export",
    "write_point_trace": ".export",
    "nearest_rank": "..network.stats",
})
