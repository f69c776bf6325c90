"""Network terminals (endpoints).

A terminal injects packets over a terminal channel into its router (credit
flow-controlled, one flit per cycle) and consumes flits arriving from the
router, reassembling packets and recording delivery telemetry.

The injection side models an open-loop source: a traffic generator (or the
application engine) appends packets to an unbounded source queue; the queue's
growth under overload is what the saturation detector watches.  Packets are
injected one at a time (the NIC serializes onto the terminal channel), on a
virtual channel drawn from the routing algorithm's injection classes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from .buffers import NEVER_USED, CreditTracker
from .channel import Channel
from .types import Flit, Packet

if TYPE_CHECKING:  # pragma: no cover
    from ..core.base import RoutingAlgorithm
    from ..core.vcmap import VcMap


class Terminal:
    """One endpoint of the network."""

    def __init__(
        self,
        terminal_id: int,
        algorithm: "RoutingAlgorithm",
        vc_map: "VcMap",
    ):
        self.terminal_id = terminal_id
        self.vc_map = vc_map
        self.inject_channel: Channel | None = None
        self.inject_credits: CreditTracker | None = None
        self.eject_credits: CreditTracker | None = None
        # Simulator activity registry and credit calendar.  The owning
        # Network replaces both with its shared ones before wiring;
        # standalone terminals (unit tests) keep private throwaway ones.
        self._wake_registry: dict["Terminal", None] = {}
        self._calendar: list[list] = [[]]
        self.reset(algorithm)

    def reset(self, algorithm: "RoutingAlgorithm") -> None:
        """The run state, wiring kept, serving ``algorithm``: ``__init__``
        calls it, and so does
        :meth:`~repro.network.network.Network.reset` for a reused network."""
        self.algorithm = algorithm

        # Injection side.
        # NEVER_USED until the first offer(), like every other queue.
        self.source_queue: "deque[Packet] | tuple" = NEVER_USED
        self._active_packet: Packet | None = None
        # Index of the active packet's next flit.  Flit facade objects are
        # materialized one at a time at push (memory-lean at-rest state: a
        # parked packet is one object, never a deque of size+1 flits).
        self._next_flit_index = 0
        self._active_vc: int | None = None
        if self.inject_credits is not None:
            self.inject_credits.reset()

        # Ejection side: the one flit the ejection channel delivered this
        # cycle.  The channel carries at most one flit per cycle and a
        # terminal with an arrival steps in the same cycle's compute phase,
        # which consumes it, so a single slot is the whole receive buffer
        # and there is never a choice to arbitrate.
        self._arrived: tuple[int, Flit] | None = None

        # Telemetry / hooks.
        self.flits_injected = 0
        self.flits_ejected = 0
        self.packets_delivered = 0
        self.delivery_listeners: list[Callable[[Packet, int], None]] = []
        # Called as listener(packet, cycle) when a packet starts injecting
        # (its head flit enters the terminal channel this same cycle).
        self.inject_listeners: list[Callable[[Packet, int], None]] = []
        # Reassembly integrity: per-packet next expected flit index.  VC flow
        # control guarantees in-order per-packet delivery; this check turns a
        # violation (a simulator bug) into an immediate error.
        self._expected_index: dict[int, int] = {}

    def accept(self, item: tuple[int, Flit]) -> None:
        """Flit sink of the ejection channel: hold ``(vc, flit)`` for this
        cycle's step (the injection hop's credits return to
        ``inject_credits``)."""
        if self._arrived is not None:
            raise RuntimeError(
                f"terminal {self.terminal_id} received a flit before "
                f"consuming the last one: ejection protocol violated"
            )
        self._arrived = item
        self._wake_registry[self] = None

    def occupancy(self, vc: int | None = None) -> int:
        """Flits held (0 or 1), on ``vc`` only if given: the downstream
        count of the ejection hop's credit loop."""
        item = self._arrived
        return int(item is not None and (vc is None or item[0] == vc))

    # ------------------------------------------------------------------
    # API for traffic generators / the application engine
    # ------------------------------------------------------------------

    def offer(self, packet: Packet) -> None:
        """Append a packet to the source queue."""
        if packet.src_terminal != self.terminal_id:
            raise ValueError("packet offered to the wrong terminal")
        if self.inject_channel is None:
            raise RuntimeError(
                f"terminal {self.terminal_id} is detached (its router failed "
                f"statically); exclude it from traffic generation"
            )
        if self.source_queue is NEVER_USED:
            self.source_queue = deque()
        self.source_queue.append(packet)
        self._wake_registry[self] = None

    @property
    def backlog_flits(self) -> int:
        """Flits waiting in the source queue (saturation signal)."""
        n = sum(p.size for p in self.source_queue)
        if self._active_packet is not None:
            n += self._active_packet.size - self._next_flit_index
        return n

    @property
    def idle(self) -> bool:
        return (
            self._arrived is None
            and not self.source_queue
            and self._active_packet is None
        )

    # ------------------------------------------------------------------
    # Per-cycle behaviour
    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        if self._active_packet is not None or self.source_queue:
            self._step_injection(cycle)
        if self._arrived is not None:
            self._eject(cycle)

    def _step_injection(self, cycle: int) -> None:
        if self._active_packet is None:
            packet = self.source_queue[0]
            vc = self._pick_injection_vc(packet)
            if vc is None:
                return  # no credited VC this cycle
            self.source_queue.popleft()
            self._active_packet = packet
            self._next_flit_index = 0
            self._active_vc = vc
            packet.inject_cycle = cycle
            if self.inject_listeners:
                for listener in self.inject_listeners:
                    listener(packet, cycle)
        vc = self._active_vc
        credits = self.inject_credits
        if credits.credits[vc] <= 0:
            return
        packet = self._active_packet
        idx = self._next_flit_index
        flit = Flit(packet, idx)
        # CreditTracker.consume inlined (per-flit hot path); the underflow
        # check is the credit test above.
        credits.credits[vc] -= 1
        credits.occupied_total += 1
        self.inject_channel.push(cycle, (vc, flit))
        self.flits_injected += 1
        idx += 1
        if idx >= packet.size:
            self._active_packet = None
            self._active_vc = None
        else:
            self._next_flit_index = idx

    def _pick_injection_vc(self, packet: Packet) -> int | None:
        best_vc, best_credits = None, 0
        for klass in self.algorithm.injection_classes(packet):
            for v in self.vc_map.vcs_of(klass):
                c = self.inject_credits.available(v)
                if c > best_credits:
                    best_credits, best_vc = c, v
        return best_vc

    def _eject(self, cycle: int) -> None:
        vc, flit = self._arrived
        self._arrived = None
        pid = flit.packet.pid
        expected = self._expected_index.get(pid, 0)
        if flit.index != expected:
            raise RuntimeError(
                f"flit reordering within packet {pid}: got flit "
                f"{flit.index}, expected {expected}"
            )
        if flit.is_tail:
            self._expected_index.pop(pid, None)
        else:
            self._expected_index[pid] = expected + 1
        self.flits_ejected += 1
        up = self.eject_credits
        if up is not None:
            calendar = self._calendar
            calendar[(cycle + up.latency) & (len(calendar) - 1)].append((up, vc))
        if flit.is_tail:
            self._complete_packet(flit.packet, cycle)

    def _complete_packet(self, packet: Packet, cycle: int) -> None:
        packet.eject_cycle = cycle
        self.packets_delivered += 1
        if packet.message is not None:
            msg = packet.message
            msg.packets_delivered += 1
            if msg.complete:
                msg.deliver_cycle = cycle
        for listener in self.delivery_listeners:
            listener(packet, cycle)
