"""Buffering primitives: per-VC input buffers and credit counters.

An :class:`InputUnit` is the flit sink of one router input port: it
buffers into its router's per-VC FIFOs, which sit beside the per-VC routing
state of the packet at the head of each VC.  A :class:`CreditTracker` counts
the free slots the upstream side believes exist in a downstream input port
— the essence of credit-based flow control.  Each owns
the method that writes it (:meth:`InputUnit.accept`, a channel's sink;
:meth:`CreditTracker.restore`, the credit calendar's): never a closure.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .types import Flit

if TYPE_CHECKING:  # pragma: no cover
    from .router import Router


@dataclass
class VcRoute:
    """Route assignment for the packet at the head of an input VC.

    ``deroute`` records whether the chosen candidate was a deroute, so a
    revoked-before-started route (fault injection) can un-count the packet's
    ``hops``/``deroutes`` telemetry exactly.
    """

    out_port: int
    out_vc: int
    deroute: bool = False


#: What every queue of a built network (``Router.fifos[key]``,
#: ``Router.staged[port][vc]``, ``Channel._pipe``, ``Terminal.source_queue``)
#: holds until its first item.  An empty ``deque`` pre-allocates a 64-slot
#: block (760 B) and most queues of a large network never carry a flit, so
#: the real queue is created where an item first needs one (the existing
#: empty->busy branch of each push site, :meth:`InputUnit.receive`).  One
#: shared immutable tuple reads like an empty deque (``len``, truthiness,
#: iteration) and a stray ``.append`` raises instead of corrupting a shared
#: object.
NEVER_USED: tuple = ()


class InputUnit:
    """The flit sink of one router input port.

    The port's per-VC state lives in its router's two flat tables at
    ``base + vc`` (``base = port * num_vcs``): ``Router.fifos[key]`` is
    :data:`NEVER_USED` until the VC's first flit arrives and a ``deque``
    from then on, and ``Router.routes[key]`` is the :class:`VcRoute`
    committed for the packet at that VC's head (``None`` while unrouted).
    The unit keeps no table of its own: :meth:`accept` (the channel's
    sink), :meth:`receive` and :meth:`occupancy` read and write the
    router's.
    """

    __slots__ = ("router", "port", "base", "depth")

    def __init__(self, router: "Router", port: int, depth: int):
        self.router = router
        self.port = port
        self.base = port * router.num_vcs
        self.depth = depth

    def accept(self, item: tuple[int, Flit]) -> None:
        """Flit sink of a router input port: buffer ``(vc, flit)``; on the
        VC's empty->busy transition make its flat key live (a non-empty FIFO
        implies it already is)."""
        vc, flit = item
        router = self.router
        fifos = router.fifos
        key = self.base + vc
        fifo = fifos[key]
        n = len(fifo)
        if n >= self.depth:
            raise RuntimeError(
                f"buffer overflow on VC {vc}: credit protocol violated"
            )
        if n == 0:
            if fifo is NEVER_USED:
                fifo = fifos[key] = deque()
            insort(router._active_in, key)
            router._wake_registry[router] = None
        fifo.append(flit)

    def receive(self, vc: int, flit: Flit) -> None:
        """Buffer one flit without waking anyone (white-box tests).  It
        writes the same table as the port's sink."""
        fifos = self.router.fifos
        key = self.base + vc
        if len(fifos[key]) >= self.depth:
            raise RuntimeError(
                f"buffer overflow on VC {vc}: credit protocol violated"
            )
        if fifos[key] is NEVER_USED:
            fifos[key] = deque()
        fifos[key].append(flit)

    def occupancy(self, vc: int | None = None) -> int:
        fifos = self.router.fifos
        if vc is not None:
            return len(fifos[self.base + vc])
        return sum(map(len, fifos[self.base:self.base + self.router.num_vcs]))


class CreditTracker:
    """Upstream view of free space in a downstream input unit.

    ``occupied_total`` is maintained incrementally so that the congestion
    estimators on the routing hot path read total occupancy in O(1) instead
    of summing the per-VC credit counters every candidate evaluation.
    A router output port's tracker also holds two references set by
    ``Router.attach_output``: ``owner``, the port's ``Router.out_vc_owner``
    list (the flat input key holding each VC), and ``asleep``, the router's
    sleeping input keys.  ``latency`` is the hop's credit-return delay.
    """

    __slots__ = ("num_vcs", "depth", "credits", "occupied_total", "owner", "asleep", "latency")

    def __init__(self, num_vcs: int, depth: int, latency: int = 1):
        self.num_vcs = num_vcs
        self.depth = depth
        self.latency = latency
        self.owner: list[int | None] | None = None
        self.asleep: set[int] | None = None
        self.reset()

    def reset(self) -> None:
        """Every credit home; ``owner`` / ``asleep`` (wiring) are kept."""
        self.credits = [self.depth] * self.num_vcs
        self.occupied_total = 0

    def available(self, vc: int) -> int:
        return self.credits[vc]

    def consume(self, vc: int) -> None:
        if self.credits[vc] <= 0:
            raise RuntimeError(f"credit underflow on VC {vc}")
        self.credits[vc] -= 1
        self.occupied_total += 1

    def restore(self, vc: int) -> None:
        """Return one credit: the one credit sink.  It wakes the VC's owner
        (wormhole: the only input VC that can sleep on this credit) the
        cycle a polling router would have succeeded, since credits are
        delivered before routers step; it writes no wake registry."""
        credits = self.credits
        if credits[vc] >= self.depth:
            raise RuntimeError(f"credit overflow on VC {vc}")
        credits[vc] += 1
        self.occupied_total -= 1
        owner = self.owner
        if owner is not None:
            self.asleep.discard(owner[vc])

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
