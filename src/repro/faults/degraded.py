"""DegradedTopology: a fault-masking view over any concrete topology.

Rather than teaching the five topology classes about faults, the fault layer
wraps a base :class:`~repro.topology.base.Topology` so the *interface*
reflects the surviving graph:

* :meth:`DegradedTopology.peer` returns an empty
  :class:`~repro.topology.base.PortPeer` (``is_missing``) for failed ports,
  so the network builder skips the channel and ``router_channels()``
  enumerates only surviving links;
* :meth:`DegradedTopology.min_hops` is computed by BFS over the surviving
  graph (cached per source, invalidated on every
  :attr:`~repro.faults.model.FaultState.epoch` bump) and returns
  ``math.inf`` for partitioned pairs;
* :meth:`DegradedTopology.validate` checks the surviving graph's invariants
  — fault symmetry included — instead of the pristine ones;
* every other attribute (coordinate helpers, widths, port arithmetic …)
  delegates to the base topology, so HyperX-aware routing algorithms keep
  working against the wrapper.

Example::

    >>> from repro.topology.hyperx import HyperX
    >>> from repro.faults import FaultSet, DegradedTopology
    >>> base = HyperX((3, 3), 1)
    >>> topo = DegradedTopology(base, FaultSet().fail_link(0, 0))
    >>> topo.peer(0, 0).is_missing       # masked on the wrapper ...
    True
    >>> base.peer(0, 0).is_router        # ... while the base is untouched
    True
    >>> topo.min_hops(0, 1)              # reroute via a surviving path
    2
    >>> topo.validate()                  # surviving-graph invariants hold
"""

from __future__ import annotations

import math
from typing import Iterator

from ..topology.base import PortPeer, RouterPort, Topology
from .model import FaultSet, FaultState

_MISSING = PortPeer()


class DegradedTopology(Topology):
    """A :class:`Topology` view with faulted ports masked out.

    Parameters
    ----------
    base:
        The pristine topology (any of the five concrete classes).
    faults:
        A :class:`FaultSet` (resolved here) or an already-resolved
        :class:`FaultState`; ``None`` starts with an empty, mutable fault
        state that a :class:`~repro.faults.inject.FaultInjector` can grow
        mid-run.
    """

    def __init__(self, base: Topology, faults: FaultSet | FaultState | None = None):
        if isinstance(base, DegradedTopology):
            raise TypeError("DegradedTopology cannot wrap another DegradedTopology")
        self.base = base
        #: the declarative FaultSet this wrapper was built from (an empty one
        #: when ``faults`` is None), or None when built directly on a live
        #: FaultState.  The parallel sweep engine reconstructs the topology
        #: in worker processes from this, so it is retained verbatim.
        self.faultset: FaultSet | None
        if faults is None:
            self.faultset = FaultSet()
            self.faults = FaultState(base)
        elif isinstance(faults, FaultSet):
            self.faultset = faults
            self.faults = faults.resolve(base)
        elif isinstance(faults, FaultState):
            self.faultset = None
            self.faults = faults
        else:
            raise TypeError(f"faults must be FaultSet/FaultState/None, got {faults!r}")
        #: epoch right after resolution; if the live state's epoch moves past
        #: this (mid-run injector mutations), ``faultset`` no longer
        #: describes the current graph.
        self.resolved_epoch = self.faults.epoch
        self.name = f"degraded-{base.name}"
        # min_hops BFS cache: source router -> distance list, valid for one epoch.
        self._hops_cache: dict[int, list[float]] = {}
        self._hops_epoch = -1

    # ------------------------------------------------------------------
    # Topology interface (explicit overrides: the base class's property
    # descriptors would otherwise shadow __getattr__ delegation).
    # ------------------------------------------------------------------

    @property
    def num_routers(self) -> int:
        return self.base.num_routers

    @property
    def num_terminals(self) -> int:
        return self.base.num_terminals

    def radix(self, router: int) -> int:
        return self.base.radix(router)

    def peer(self, router: int, port: int) -> PortPeer:
        if (router, port) in self.faults.failed_ports:
            return _MISSING
        return self.base.peer(router, port)

    def router_ports(self, router: int) -> Iterator[tuple[int, PortPeer]]:
        """The base topology's own port walk with failed ports masked, so a
        wrapped HyperX keeps its template walk."""
        failed = self.faults.failed_ports
        for port, peer in self.base.router_ports(router):
            yield port, _MISSING if (router, port) in failed else peer

    def terminal_attachment(self, terminal: int) -> RouterPort:
        return self.base.terminal_attachment(terminal)

    def terminal_alive(self, terminal: int) -> bool:
        """False when the terminal's attachment port (or router) is failed."""
        att = self.base.terminal_attachment(terminal)
        return (att.router, att.port) not in self.faults.failed_ports

    def min_hops(self, src_router: int, dst_router: int) -> float:
        """Minimal hops over the *surviving* graph; ``math.inf`` when
        ``dst_router`` is unreachable from ``src_router``."""
        f = self.faults
        if not f.failed_ports:
            return self.base.min_hops(src_router, dst_router)
        if self._hops_epoch != f.epoch:
            self._hops_cache.clear()
            self._hops_epoch = f.epoch
        dist = self._hops_cache.get(src_router)
        if dist is None:
            dist = self._bfs(src_router)
            self._hops_cache[src_router] = dist
        return dist[dst_router]

    def _bfs(self, src: int) -> list[float]:
        dist: list[float] = [math.inf] * self.base.num_routers
        if src in self.faults.failed_routers:
            return dist
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt: list[int] = []
            for r in frontier:
                d = dist[r] + 1
                for port, peer in self.router_ports(r):
                    if peer.is_router:
                        nbr = peer.router_port.router
                        if d < dist[nbr]:
                            dist[nbr] = d
                            nxt.append(nbr)
            frontier = nxt
        return dist

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check surviving-graph invariants; raises ``AssertionError``.

        * fault symmetry: a failed port's reverse direction is failed too;
        * every *surviving* router channel peers back symmetrically;
        * every *alive* terminal round-trips through its attachment.
        """
        base = self.base
        for r, p in self.faults.failed_ports:
            assert 0 <= r < base.num_routers and 0 <= p < base.radix(r), (
                f"failed port ({r}, {p}) out of range"
            )
            peer = base.peer(r, p)
            if peer.is_router:
                rp = peer.router_port
                assert (rp.router, rp.port) in self.faults.failed_ports, (
                    f"asymmetric fault: ({r}, {p}) failed but its peer "
                    f"({rp.router}, {rp.port}) is not"
                )
        for r in range(self.num_routers):
            for port, peer in self.router_ports(r):
                if peer.is_missing:
                    continue
                if peer.is_router:
                    rp = peer.router_port
                    back = self.peer(rp.router, rp.port)
                    assert back.is_router and back.router_port == RouterPort(r, port), (
                        f"surviving channel asymmetric at router {r} port {port}"
                    )
                else:
                    t = peer.terminal
                    assert base.terminal_attachment(t) == RouterPort(r, port), (
                        f"terminal {t} attachment mismatch"
                    )
        for t in range(self.num_terminals):
            if not self.terminal_alive(t):
                continue
            att = base.terminal_attachment(t)
            peer = self.peer(att.router, att.port)
            assert peer.is_terminal and peer.terminal == t, (
                f"alive terminal {t} not found at its attachment"
            )

    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        # Only called when normal lookup fails: delegate topology-specific
        # helpers (coords, dim_port, widths, ...) to the base topology.
        if name == "base":  # guard against recursion before __init__ ran
            raise AttributeError(name)
        return getattr(self.base, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DegradedTopology({self.base!r}, {self.faults.describe()})"
