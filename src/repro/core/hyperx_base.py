"""Shared machinery for HyperX routing algorithms.

All HyperX algorithms need the same geometric primitives: the coordinates of
the current and destination routers, the set of unaligned dimensions, the
minimal port in a dimension, and the deroute ports (lateral moves within an
unaligned dimension that neither approach nor leave the destination —
Section 4.2's definition of a deroute).

Fault support: algorithms may be constructed on a
:class:`~repro.faults.degraded.DegradedTopology` wrapping a HyperX.  The base
class unwraps it, keeps a handle on the shared
:class:`~repro.faults.model.FaultState` (``self.faults``, ``None`` on a
pristine topology), and provides the port-liveness helpers fault-aware
subclasses use to mask failed output ports in ``candidates()``:
:meth:`port_alive`, :meth:`viable_deroute_ports`, :meth:`escape_ports`, and
:meth:`dor_path_alive`.  See docs/FAULTS.md for the per-algorithm behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..topology.hyperx import HyperX
from .base import RouteContext, RoutingAlgorithm

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.degraded import DegradedTopology
    from ..faults.model import FaultState
    from ..network.types import Packet


class HyperXRouting(RoutingAlgorithm):
    """Base class for routing algorithms on HyperX topologies."""

    def __init__(self, topology: "HyperX | DegradedTopology"):
        # A DegradedTopology is recognised by its fault state and pristine
        # base (as Network reads it), so a pristine point never imports
        # repro.faults.
        self.faults: "FaultState | None" = getattr(topology, "faults", None)
        base = topology if self.faults is None else topology.base
        if not isinstance(base, HyperX):
            raise TypeError(f"{type(self).__name__} requires a HyperX topology")
        super().__init__(topology)
        self.hx: HyperX = base
        self._tpr = base.terminals_per_router
        # Pre-tabulated geometry (the candidate-construction hot path).
        # ``dim_port(router, d, c)`` depends on the router only through its
        # own coordinate in ``d``, so each dimension gets two O(w^2) tables:
        #   _min_port_tab[d][own][dest]  -> the aligning port (own != dest)
        #   _deroute_tab[d][own][dest]   -> tuple of lateral (deroute) ports,
        #                                   excluding own and dest
        # and every router-facing port maps to its dimension via
        # _port_dim_tab[port].  The tables are tiny (sum of w_d^2 entries)
        # and make candidates() table lookups instead of arithmetic + calls.
        self._min_port_tab: list[list[list[int]]] = []
        self._deroute_tab: list[list[list[tuple[int, ...]]]] = []
        for d, w in enumerate(base.widths):
            off = base._dim_offset[d]
            min_t = [[0] * w for _ in range(w)]
            der_t: list[list[tuple[int, ...]]] = [[()] * w for _ in range(w)]
            for own in range(w):
                for dest in range(w):
                    if dest != own:
                        min_t[own][dest] = off + (dest if dest < own else dest - 1)
                    der_t[own][dest] = tuple(
                        off + (c if c < own else c - 1)
                        for c in range(w)
                        if c != own and c != dest
                    )
            self._min_port_tab.append(min_t)
            self._deroute_tab.append(der_t)
        self._port_dim_tab: list[int] = [
            d
            for d, w in enumerate(base.widths)
            for _ in range(w - 1)
        ]

    # -- geometry ------------------------------------------------------

    def here(self, ctx: RouteContext) -> tuple[int, ...]:
        return self.hx.coords(ctx.router.router_id)

    def dest_router(self, packet: "Packet") -> int:
        return packet.dst_terminal // self.hx.terminals_per_router

    def dest_coords(self, packet: "Packet") -> tuple[int, ...]:
        return self.hx.coords(self.dest_router(packet))

    def unaligned(self, here: tuple[int, ...], dest: tuple[int, ...]) -> list[int]:
        return [d for d in range(self.hx.num_dims) if here[d] != dest[d]]

    def min_port(self, router_id: int, dim: int, dest_coord: int) -> int:
        """Port taking the single aligning hop in ``dim``."""
        return self._min_port_tab[dim][self.hx.coords(router_id)[dim]][dest_coord]

    def deroute_ports(
        self, router_id: int, dim: int, here_coord: int, dest_coord: int
    ) -> tuple[int, ...]:
        """Ports for lateral (deroute) moves within an unaligned ``dim``.

        Excludes the current coordinate (no self loop) and the destination
        coordinate (that hop would be minimal, not a deroute).
        """
        return self._deroute_tab[dim][here_coord][dest_coord]

    # -- DOR helpers ----------------------------------------------------

    def first_unaligned_dim(
        self, here: tuple[int, ...], dest: tuple[int, ...]
    ) -> int | None:
        for d in range(self.hx.num_dims):
            if here[d] != dest[d]:
                return d
        return None

    def dor_port(
        self, router_id: int, here: tuple[int, ...], dest: tuple[int, ...]
    ) -> tuple[int, int] | None:
        """(port, dim) of the next dimension-order hop toward ``dest``."""
        d = self.first_unaligned_dim(here, dest)
        if d is None:
            return None
        return self.hx.dim_port(router_id, d, dest[d]), d

    # -- fault helpers --------------------------------------------------
    #
    # All of these are pure functions of the current FaultState epoch: they
    # read self.faults.failed_ports only.  Candidate lists computed through
    # them stay valid until the next fault event, which is exactly when the
    # FaultInjector invalidates every router's candidate cache.

    def port_alive(self, router_id: int, port: int) -> bool:
        """True when the output ``port`` of ``router_id`` is not failed."""
        f = self.faults
        return f is None or (router_id, port) not in f.failed_ports

    def routing_faults(self, router_id: int) -> "FaultState | None":
        """The FaultState if candidate masking applies at ``router_id``.

        Returns ``None`` on a pristine topology, when no link has failed
        yet, and — deliberately — when ``router_id`` itself is a failed
        router.  A dead router stops *admitting* traffic (surviving routers
        mask every link toward it), but packets already buffered inside it
        when it died must still drain: they are routed with the pristine
        rule over its physically-present channels.  Masking the dead
        router's own output ports instead would leave those packets with an
        empty candidate list and a spurious ``NoRouteError``.
        """
        f = self.faults
        if f is None or not f.failed_ports or router_id in f.failed_routers:
            return None
        return f

    def viable_deroute_ports(
        self, router_id: int, dim: int, here_coord: int, dest_coord: int
    ) -> list[int]:
        """Deroute ports whose lateral hop AND the detour router's onward
        aligning hop both survive.

        Filtering on the onward hop matters: a deroute whose detour router
        has a dead aligning link would strand a class-1 packet with nothing
        but escape hops; checking one hop ahead keeps the common single-fault
        case loss-free.  Each filtered port counts toward the
        ``masked_candidates`` telemetry.
        """
        f = self.faults
        if f is None or not f.failed_ports:
            return self.deroute_ports(router_id, dim, here_coord, dest_coord)
        out = []
        for c in range(self.hx.widths[dim]):
            if c == here_coord or c == dest_coord:
                continue
            port = self.hx.dim_port(router_id, dim, c)
            if (router_id, port) in f.failed_ports:
                f.masked_candidates += 1
                continue
            nbr = self.hx.neighbor(router_id, dim, c)
            onward = self.hx.dim_port(nbr, dim, dest_coord)
            if (nbr, onward) in f.failed_ports:
                f.masked_candidates += 1
                continue
            out.append(port)
        return out

    def escape_ports(
        self, router_id: int, dim: int, here_coord: int, dest_coord: int
    ) -> list[int]:
        """Monotone escape hops for a class-1 packet whose forced minimal
        hop is dead: surviving lateral moves to a *strictly higher*
        coordinate in ``dim`` (destination coordinate excluded).

        The monotonicity is the deadlock argument: escape hops within
        ``(dim, class 1)`` strictly increase the source coordinate, so the
        dependencies among those channels form a total order and cannot
        cycle (mechanically verified by the checker in the fault tests).
        """
        f = self.faults
        out = []
        for c in range(here_coord + 1, self.hx.widths[dim]):
            if c == dest_coord:
                continue
            port = self.hx.dim_port(router_id, dim, c)
            if f is not None and (router_id, port) in f.failed_ports:
                f.masked_candidates += 1
                continue
            out.append(port)
        return out

    def dor_path_alive(
        self, router_id: int, here: tuple[int, ...], dest: tuple[int, ...]
    ) -> bool:
        """True when every hop of the DOR path ``here -> dest`` survives."""
        f = self.faults
        if f is None or not f.failed_ports:
            return True
        rid = list(here)
        r = router_id
        for d in range(self.hx.num_dims):
            if rid[d] == dest[d]:
                continue
            port = self.hx.dim_port(r, d, dest[d])
            if (r, port) in f.failed_ports:
                return False
            r = self.hx.neighbor(r, d, dest[d])
            rid[d] = dest[d]
        return True
