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

from bisect import insort
from collections import deque
from typing import TYPE_CHECKING, Callable

from .buffers import NEVER_USED, CreditTracker, InputUnit
from .channel import Channel
from .types import Flit, Packet

if TYPE_CHECKING:  # pragma: no cover
    from ..config import SimConfig
    from ..core.base import RoutingAlgorithm
    from ..core.vcmap import VcMap


class Terminal:
    """One endpoint of the network."""

    def __init__(
        self,
        terminal_id: int,
        algorithm: "RoutingAlgorithm",
        vc_map: "VcMap",
        cfg: "SimConfig",
    ):
        self.terminal_id = terminal_id
        self.algorithm = algorithm
        self.vc_map = vc_map
        self.cfg = cfg
        self.num_vcs = cfg.router.num_vcs

        # Injection side.
        # NEVER_USED until the first offer(), like every other queue.
        self.source_queue: "deque[Packet] | tuple" = NEVER_USED
        self._active_packet: Packet | None = None
        # Index of the active packet's next flit.  Flit facade objects are
        # materialized one at a time at push (memory-lean at-rest state: a
        # parked packet is one object, never a deque of size+1 flits).
        self._next_flit_index = 0
        self._active_vc: int | None = None
        self.inject_channel: Channel | None = None
        self.inject_credits: CreditTracker | None = None

        # Ejection side.
        self.receive = InputUnit(self.num_vcs, cfg.router.buffer_depth)
        self.eject_credit_channel: Channel | None = None
        self._age = cfg.router.arbiter == "age"
        self._rr_next = 0  # rotating VC priority (round-robin ejection)
        self._eject_rate = cfg.network.ejection_rate

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
        # Buffered receive-flit count: makes the hot idle check O(1) instead
        # of scanning every VC FIFO (profiled; see guide_00's measure-first).
        self._rx_count = 0
        # VCs with buffered flits, kept sorted: the age-based pick scans
        # only these instead of every VC (usually one or two are non-empty).
        self._rx_live: list[int] = []
        # Simulator activity registry.  The owning Network replaces this with
        # its shared registry before wiring; standalone terminals (unit
        # tests) keep the private throwaway dict.
        self._wake_registry: dict["Terminal", None] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_injection(self, channel: Channel, credits: CreditTracker) -> None:
        self.inject_channel = channel
        self.inject_credits = credits

    def attach_ejection_credit(self, channel: Channel) -> None:
        self.eject_credit_channel = channel

    def accept(self, item: tuple[int, Flit]) -> None:
        """Flit sink of the ejection channel: buffer ``(vc, flit)`` in the
        receive unit's table (the injection channel's credit sink is
        ``inject_credits.restore``)."""
        vc, flit = item
        unit = self.receive
        fifos = unit.fifos
        fifo = fifos[vc]
        n = len(fifo)
        if n >= unit.depth:
            raise RuntimeError(
                f"buffer overflow on VC {vc}: credit protocol violated"
            )
        if n == 0:
            # Empty->busy transition; a non-empty FIFO implies rx_count
            # was already positive, so the terminal is already awake.
            if fifo is NEVER_USED:  # the VC's first flit: create its queue
                fifo = fifos[vc] = deque()
            insort(self._rx_live, vc)
            self._wake_registry[self] = None
        fifo.append(flit)
        self._rx_count += 1

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
            self._rx_count == 0
            and not self.source_queue
            and self._active_packet is None
        )

    # ------------------------------------------------------------------
    # Per-cycle behaviour
    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        if self._active_packet is not None or self.source_queue:
            self._step_injection(cycle)
        if self._rx_count:
            self._step_ejection(cycle)

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

    def _step_ejection(self, cycle: int) -> None:
        budget = self._eject_rate
        fifos = self.receive.fifos
        while budget > 0 and self._rx_count > 0:
            best_vc = -1
            if self._age:
                # Age-based pick over the live VCs only.  One live VC — the
                # common case — needs no arbitration at all; the multi-VC
                # scan compares the (create_cycle, pid) age key as two ints
                # (pids are unique, so the order is total).
                live = self._rx_live
                if len(live) == 1:
                    best_vc = live[0]
                else:
                    bc = bp = 0
                    for v in live:
                        p = fifos[v][0].packet
                        c = p.create_cycle
                        if best_vc < 0 or c < bc or (c == bc and p.pid < bp):
                            bc = c
                            bp = p.pid
                            best_vc = v
            else:
                # Round-robin: the router's output rotation — the first
                # non-empty VC at or past the priority pointer, which then
                # moves just past the grant.
                nv = self.num_vcs
                base = self._rr_next
                for off in range(nv):
                    v = (base + off) % nv
                    if fifos[v]:
                        best_vc = v
                        self._rr_next = (v + 1) % nv
                        break
            if best_vc < 0:
                return
            fifo = fifos[best_vc]
            flit = fifo.popleft()
            if not fifo:
                self._rx_live.remove(best_vc)
            self._rx_count -= 1
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
            budget -= 1
            cr = self.eject_credit_channel
            if cr is not None:
                cr.push(cycle, best_vc)  # credit channels carry the bare VC id
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
