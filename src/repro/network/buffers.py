"""Buffering primitives: per-VC input buffers and credit counters.

An :class:`InputUnit` models the buffered input side of one router (or
terminal) port: one FIFO per virtual channel, with per-VC routing state for
the packet currently at the head of each VC.  A :class:`CreditTracker` counts
the free slots the upstream side believes exist in a downstream
:class:`InputUnit` — the essence of credit-based flow control.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .types import Flit


@dataclass
class VcRoute:
    """Route assignment for the packet at the head of an input VC.

    ``deroute`` records whether the chosen candidate was a deroute, so a
    revoked-before-started route (fault injection) can un-count the packet's
    ``hops``/``deroutes`` telemetry exactly.
    """

    out_port: int
    out_vc: int
    packet_id: int
    deroute: bool = False


#: What every queue of a built network (:attr:`VcState.fifo`,
#: ``Router.staged[port][vc]``, ``Channel._pipe``, ``Terminal.source_queue``)
#: holds until its first item.  An empty ``deque`` pre-allocates a 64-slot
#: block (760 B) and most queues of a large network never carry a flit, so
#: the real queue is created where an item first needs one (the existing
#: empty->busy branch of each push site, :meth:`InputUnit.receive`).  One
#: shared immutable tuple reads like an empty deque (``len``, truthiness,
#: iteration) and a stray ``.append`` raises instead of corrupting a shared
#: object.
NEVER_USED: tuple = ()


class VcState:
    """One virtual channel of an input unit.

    ``fifo`` is :data:`NEVER_USED` until the VC's first flit arrives and a
    ``deque`` from then on; read it freely, write it only through a flit
    sink or :meth:`InputUnit.receive`.
    """

    __slots__ = ("fifo", "route")

    def __init__(self) -> None:
        self.fifo: "deque[Flit] | tuple" = NEVER_USED
        self.route: VcRoute | None = None

    @property
    def occupancy(self) -> int:
        return len(self.fifo)

    @property
    def head(self) -> Flit | None:
        return self.fifo[0] if self.fifo else None


class InputUnit:
    """Per-VC buffered input of a port."""

    __slots__ = ("num_vcs", "depth", "vcs")

    def __init__(self, num_vcs: int, depth: int):
        if num_vcs < 1 or depth < 1:
            raise ValueError("need >= 1 VC and >= 1 buffer slot")
        self.num_vcs = num_vcs
        self.depth = depth
        self.vcs = [VcState() for _ in range(num_vcs)]

    def receive(self, vc: int, flit: Flit) -> None:
        """Buffer one flit (standalone units and white-box tests; a wired
        port's channel sink inlines this and keeps its own reference to each
        queue, so do not mix the two on one VC)."""
        state = self.vcs[vc]
        if len(state.fifo) >= self.depth:
            raise RuntimeError(
                f"buffer overflow on VC {vc}: credit protocol violated"
            )
        if state.fifo is NEVER_USED:
            state.fifo = deque()
        state.fifo.append(flit)

    def occupancy(self, vc: int | None = None) -> int:
        if vc is not None:
            return self.vcs[vc].occupancy
        return sum(v.occupancy for v in self.vcs)

    @property
    def empty(self) -> bool:
        return all(not v.fifo for v in self.vcs)


class CreditTracker:
    """Upstream view of free space in a downstream input unit.

    ``occupied_total`` is maintained incrementally so that the congestion
    estimators on the routing hot path read total occupancy in O(1) instead
    of summing the per-VC credit counters every candidate evaluation.
    """

    __slots__ = ("depth", "credits", "occupied_total")

    def __init__(self, num_vcs: int, depth: int):
        self.depth = depth
        self.credits = [depth] * num_vcs
        self.occupied_total = 0

    def available(self, vc: int) -> int:
        return self.credits[vc]

    def consume(self, vc: int) -> None:
        if self.credits[vc] <= 0:
            raise RuntimeError(f"credit underflow on VC {vc}")
        self.credits[vc] -= 1
        self.occupied_total += 1

    def restore(self, vc: int) -> None:
        if self.credits[vc] >= self.depth:
            raise RuntimeError(f"credit overflow on VC {vc}")
        self.credits[vc] += 1
        self.occupied_total -= 1

    def occupied(self, vc: int) -> int:
        """Downstream slots believed to be occupied (incl. flits in flight)."""
        return self.depth - self.credits[vc]

    def total_occupied(self) -> int:
        return self.occupied_total

    def consistent(self) -> bool:
        """True when the incremental total matches the per-VC counters and
        every counter is within ``[0, depth]``.

        Inspection hook for the runtime sanitizer (repro.check): the
        incremental ``occupied_total`` is the quantity the routing hot path
        trusts, so drift between it and the per-VC counters silently skews
        every congestion estimate.
        """
        return (
            all(0 <= c <= self.depth for c in self.credits)
            and self.occupied_total == sum(self.depth - c for c in self.credits)
        )
