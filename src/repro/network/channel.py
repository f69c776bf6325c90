"""Pipelined data channels.

A :class:`Channel` carries at most one flit per cycle with a fixed pipeline
latency, modelling a cable (or on-board trace) between a router output and
the downstream input: a flit pushed at cycle ``t`` reaches the sink in the
delivery phase of cycle ``t + latency``, so it never crosses two channels
in one cycle.  Credits travel in the network's credit calendar instead.  A
wired channel registers in the network's active-channel set on its
empty->busy push and the simulator visits only registered channels, so idle
channels cost nothing per cycle (see DESIGN.md, performance notes).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from .buffers import NEVER_USED


class Channel:
    """A fixed-latency pipeline that carries at most one flit per cycle."""

    __slots__ = ("latency", "_name", "min_gap", "_pipe", "_sink", "_last_push_cycle", "utilization_count", "_active_set", "_next_ready")

    def __init__(
        self,
        latency: int,
        sink: Callable[[Any], None],
        name: "str | tuple" = "",
    ):
        if latency < 1:
            raise ValueError("channel latency must be >= 1 cycle")
        self.latency = latency
        #: a label, or the ``(template, *ids)`` parts of one: the network
        #: builder passes parts and :attr:`name` formats them when read.
        self._name = name
        self._sink = sink
        #: activity registry (dict used as an ordered set) shared with the
        #: owning network; None for standalone channels driven directly.
        self._active_set: dict["Channel", None] | None = None
        self.reset()

    def reset(self) -> None:
        """The run state, wiring kept (the sink and the activity set):
        ``__init__`` calls it, and a reused network's channels start empty
        through it."""
        #: minimum cycles between pushes; > 1 models a degraded-bandwidth
        #: link (set by the fault injector).  The router's output stage
        #: checks it before arbitrating for the port.
        self.min_gap = 1
        #: ``(ready_cycle, item)`` pairs, oldest first; :data:`NEVER_USED`
        #: until the first push (most channels of a large network are never
        #: pushed), a ``deque`` from then on.
        self._pipe: "deque[tuple[int, Any]] | tuple" = NEVER_USED
        self._last_push_cycle = -1
        self.utilization_count = 0  # items ever pushed (for link-utilization stats)
        #: lower bound on the head item's delivery cycle — the simulator's
        #: delivery loop skips the channel without touching the pipe while
        #: ``cycle < _next_ready``.  Set exactly on the empty->busy push
        #: transition and refreshed after each delivery pass.
        #: Cycle skip-ahead (:mod:`repro.network.skip`) also feeds this into
        #: its global next-event bound: a stale-low value merely vetoes one
        #: jump (the engine executes the next cycle), never skips a delivery.
        self._next_ready = 0

    @property
    def name(self) -> str:
        """The channel's label (read by error messages and tests only)."""
        name = self._name
        return name if isinstance(name, str) else name[0] % name[1:]

    def push(self, cycle: int, item: Any) -> None:
        """Send ``item`` down the channel at ``cycle``: every router and
        terminal push comes through here."""
        if cycle <= self._last_push_cycle:
            raise RuntimeError(
                f"channel {self.name!r} pushed twice in cycle {cycle}"
            )
        self._last_push_cycle = cycle
        self.utilization_count += 1
        ready = cycle + self.latency
        pipe = self._pipe
        if not pipe:
            if pipe is NEVER_USED:
                pipe = self._pipe = deque()
            self._next_ready = ready
            if self._active_set is not None:
                self._active_set[self] = None
        pipe.append((ready, item))

    @property
    def in_flight(self) -> int:
        return len(self._pipe)

    def pending_payloads(self):
        """The payloads currently in the pipeline, oldest first.

        Inspection hook for the runtime sanitizer (repro.check): ``(vc,
        flit)`` tuples.  The returned iterator must not outlive the current
        cycle.
        """
        return (item for _, item in self._pipe)

    @property
    def busy(self) -> bool:
        return bool(self._pipe)
