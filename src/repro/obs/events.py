"""Trace event model: lifecycle events, the bounded ring buffer, options.

A traced packet produces a deterministic sequence of :class:`TraceEvent`
records as it moves through the network:

``inject``
    the packet's head flit enters the terminal channel (``where`` is the
    source terminal; ``data`` carries src/dst/size/create cycle);
``route``
    a router commits a routing decision for the packet's head flit
    (``where`` is the router; ``data`` carries the chosen output port,
    its weight, and every candidate considered as
    ``[out_port, vc_class, hops, deroute, weight]`` — weight ``None``
    when the candidate had no free credited VC);
``vc_alloc``
    the output virtual channel the decision claimed (same cycle as its
    ``route`` event);
``sa``
    switch allocation — one flit crossed the crossbar into the staged
    output queue;
``link``
    one flit was delivered at the downstream end of a router-to-router
    channel;
``eject``
    the tail flit was consumed at the destination terminal (``data``
    carries latency/hops/deroutes).

Packet ids in events are *trace-local* (0, 1, 2, … in injection order):
the simulator's global ``Packet.pid`` counter is process-wide and not
reset between runs, so pinned golden traces use the normalized id.

Events land in :class:`EventRing`, a bounded ring buffer: when full, the
oldest event is dropped (and counted) rather than growing without limit —
tracing a paper-scale run at full sampling stays memory-bounded.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

#: Event types in lifecycle order (used by well-formedness checks).
EVENT_TYPES = ("inject", "route", "vc_alloc", "sa", "link", "eject")


@dataclass(frozen=True)
class TraceOptions:
    """Configuration for :class:`~repro.obs.tracer.Tracer` (picklable).

    ``sample_every`` keeps one packet in every N injected (1 = all).
    ``start``/``end`` bound the cycle window in which events are recorded
    (half-open ``[start, end)``; ``end=None`` means no upper bound).
    ``capacity`` bounds the ring buffer.  ``window`` > 0 additionally
    attaches a :class:`~repro.obs.timeseries.TimeSeriesSampler` with that
    window size when threaded through ``measure_point``/``PointSpec``.
    ``out_dir``/``chrome`` control export when threaded through the
    sweep/experiment drivers: traces are written as JSONL (and optionally
    Chrome trace-event JSON) under ``out_dir`` with deterministic names.
    """

    sample_every: int = 1
    start: int = 0
    end: int | None = None
    capacity: int = 1 << 16
    window: int = 0
    out_dir: str | None = None
    chrome: bool = False

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.end is not None and self.end <= self.start:
            raise ValueError("end must be > start")
        if self.window < 0:
            raise ValueError("window must be >= 0")


class TraceEvent:
    """One lifecycle event.  Lightweight: recorded on the simulator hot path."""

    __slots__ = ("cycle", "type", "pkt", "where", "data")

    def __init__(self, cycle: int, type: str, pkt: int, where: int, data: dict):
        self.cycle = cycle
        self.type = type
        self.pkt = pkt  # trace-local packet id (injection order)
        self.where = where  # router id, or terminal id for inject/eject
        self.data = data

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "data": self.data,
            "pkt": self.pkt,
            "type": self.type,
            "where": self.where,
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent(cycle={self.cycle}, type={self.type!r}, "
            f"pkt={self.pkt}, where={self.where}, data={self.data!r})"
        )


class EventRing:
    """Bounded event store: drops the *oldest* event when full."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buf: deque[TraceEvent] = deque(maxlen=capacity)
        self.recorded = 0  # events ever appended
        self.dropped = 0  # events evicted by capacity pressure

    def append(self, event: TraceEvent) -> None:
        if len(self._buf) == self.capacity:
            self.dropped += 1
        self._buf.append(event)
        self.recorded += 1

    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._buf)

    def counts(self) -> dict[str, int]:
        """Retained event count per type (always includes every type)."""
        c = Counter(ev.type for ev in self._buf)
        return {t: c.get(t, 0) for t in EVENT_TYPES}

    def by_packet(self) -> dict[int, list[TraceEvent]]:
        """Retained events grouped by trace-local packet id, in order."""
        out: dict[int, list[TraceEvent]] = {}
        for ev in self._buf:
            out.setdefault(ev.pkt, []).append(ev)
        return out

    def clear(self) -> None:
        self._buf.clear()

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self):
        return iter(self._buf)
