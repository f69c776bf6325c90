"""Network construction: topology -> routers + terminals + channels.

:class:`Network` instantiates one :class:`~repro.network.router.Router` per
topology router and one :class:`~repro.network.terminal.Terminal` per
endpoint, then wires every directed data channel with the configured
latencies: ``channel_latency_rr`` between routers, ``channel_latency_rt``
between a router and its terminals.  A credit goes back upstream on no
channel: it is a ``(tracker, vc)`` entry in the credit calendar.

Partial builds (``owned_routers=``) construct only a subset of the routers —
one *shard* of the network — leaving ``None`` holes everywhere else and
terminating cross-shard links in boundary ends the sharded engine
(:mod:`repro.network.shard`) drains and fills at chunk boundaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..core.vcmap import VcMap
from .buffers import CreditTracker, InputUnit
from .channel import Channel
from .router import Router
from .terminal import Terminal

if TYPE_CHECKING:  # pragma: no cover
    from ..config import SimConfig
    from ..core.base import RoutingAlgorithm
    from ..topology.base import Topology


@dataclass(frozen=True)
class LinkRecord:
    """One credit-flow-controlled hop, read off the wiring by
    :attr:`Network.links`.

    The record pairs everything a per-link audit needs: the upstream credit
    tracker, the upstream staging queues that hold flits which have already
    consumed a credit (``None`` for terminal injection, which has no
    crossbar), the data channel, and the downstream end the credits account
    for: a router's input unit, or the terminal itself for an ejection hop
    (both answer ``occupancy(vc)``).  ``repro.check``'s
    credit-reconciliation sanitizer walks :attr:`Network.links` and
    asserts, per VC,

        ``tracker.occupied(vc) == staged + data-in-flight +
        downstream occupancy + credits-in-flight``

    which is the exact statement of credit-based flow control.
    """

    kind: str  # "rr" (router->router), "inj" (terminal->router), "ej" (router->terminal)
    src: tuple[int, int] | int  # (router, port), or terminal id for "inj"
    dst: tuple[int, int] | int  # (router, port), or terminal id for "ej"
    tracker: CreditTracker
    staged: list | None  # upstream per-VC staging deques ("rr"/"ej" only)
    data: Channel
    downstream: "InputUnit | Terminal"

    @property
    def label(self) -> str:
        return f"{self.kind} {self.src}->{self.dst}"


class BoundaryExport:
    """Where a shard edge's outbound half ends: an export data channel's
    sink, or the calendar target of credits returned across the edge.  The
    shard engine lifts both out before they fall due, so a delivery here is
    a protocol bug."""

    __slots__ = ("key", "latency")

    def __init__(self, key: tuple, latency: int):
        self.key = key
        self.latency = latency

    def restore(self, item) -> None:
        raise RuntimeError(
            f"boundary export {self.key!r} delivered in-chunk: "
            f"shard chunk protocol violated"
        )

    accept = restore


class Network:
    """A fully wired simulated network (or one shard of it)."""

    def __init__(
        self,
        topology: "Topology",
        algorithm: "RoutingAlgorithm",
        cfg: "SimConfig",
        owned_routers: "set[int] | frozenset[int] | None" = None,
    ):
        cfg.validated()
        if algorithm.num_classes > cfg.router.num_vcs:
            raise ValueError(
                f"{algorithm.name} needs {algorithm.num_classes} resource "
                f"classes but the router only has {cfg.router.num_vcs} VCs"
            )
        self.topology = topology
        self.algorithm = algorithm
        self.cfg = cfg
        self.vc_map = VcMap(
            algorithm.num_classes,
            cfg.router.num_vcs,
            weights=getattr(algorithm, "class_weights", None),
        )
        #: shared FaultState when built on a repro.faults.DegradedTopology
        #: (None on a pristine topology); the FaultInjector requires it.
        self.fault_state = getattr(topology, "faults", None)
        #: router ids this build owns; None for a full (unsharded) build.
        #: Unowned routers and their terminals are ``None`` holes in
        #: :attr:`routers` / :attr:`terminals`.
        self.owned_routers = (
            None if owned_routers is None else frozenset(owned_routers)
        )

        # Shared activity registries (insertion-ordered dicts used as sets).
        # Channels register on the empty->busy push transition; routers and
        # terminals are woken by flit delivery / packet offers.  The
        # simulator visits only registered entries, so idle components cost
        # nothing per cycle (see DESIGN.md, performance notes).  Cycle
        # skip-ahead (repro.network.skip) goes one further: it only jumps
        # the clock while _active_terminals is empty, and derives its
        # global next-event bound from the members of the other two sets —
        # so membership here is also the skip engine's eligibility signal.
        self._active_channels: dict[Channel, None] = {}
        self._active_routers: dict[Router, None] = {}
        self._active_terminals: dict[Terminal, None] = {}
        # The credit calendar (docs/SIMULATOR.md, credit protocol): W
        # buckets, W the smallest power of two above the longest latency; a
        # credit due at cycle d is (tracker, vc) in bucket d % W.
        longest = max(cfg.network.channel_latency_rr, cfg.network.channel_latency_rt)
        self._calendar: list[list] = [[] for _ in range(1 << longest.bit_length())]

        seeds = np.random.SeedSequence(cfg.seed).spawn(topology.num_routers)
        # One shared terminal -> destination-router table for every router
        # (tabulating it per router made construction O(routers x terminals)).
        dest_router = [
            topology.router_of_terminal(t) for t in range(topology.num_terminals)
        ]
        owned = self.owned_routers
        # One port walk per router, shared between Router construction and
        # wiring: topology.peer() does coordinate math per port, and walking
        # router_ports twice per router was a measurable slice of large-
        # network construction time.
        self._ports_of: list[list | None] = [
            list(topology.router_ports(r))
            if owned is None or r in owned
            else None
            for r in range(topology.num_routers)
        ]
        self.routers: list[Router | None] = [
            Router(r, topology, algorithm, self.vc_map, cfg,
                   np.random.default_rng(seeds[r]), dest_router=dest_router,
                   ports=self._ports_of[r])
            if owned is None or r in owned
            else None
            for r in range(topology.num_routers)
        ]
        self.terminals: list[Terminal | None] = [
            Terminal(t, algorithm, self.vc_map)
            if owned is None or dest_router[t] in owned
            else None
            for t in range(topology.num_terminals)
        ]
        # Replace the components' private registries with the shared ones.
        for router in self.routers:
            if router is not None:
                router._wake_registry = self._active_routers
                router._calendar = self._calendar
        for terminal in self.terminals:
            if terminal is not None:
                terminal._wake_registry = self._active_terminals
                terminal._calendar = self._calendar
        self.channels: list[Channel] = []
        #: boundary ends of a partial build, keyed by
        #: ``(kind, pushing_router, pushing_port)`` with kind ``"d"`` (data)
        #: or ``"c"`` (credits).  ``boundary_out`` holds the data channels
        #: and credit :class:`BoundaryExport` s the shard engine drains at
        #: chunk boundaries; ``boundary_in`` the data channels and trackers
        #: it fills with the peer shard's exports.  A shard's export key
        #: equals the consuming shard's import key by construction.  Empty
        #: on a full build.
        self.boundary_out: dict[tuple, "Channel | BoundaryExport"] = {}
        self.boundary_in: dict[tuple, "Channel | CreditTracker"] = {}
        self._wire()
        self._ports_of = []  # construction scratch; drop the peer objects

    def reset(self, topology: "Topology", algorithm: "RoutingAlgorithm",
              cfg: "SimConfig") -> "Network":
        """Return a finished full build to the state ``__init__`` leaves,
        rebound to ``topology``, ``algorithm`` and ``cfg``, and return it.

        The wiring is kept: routers, terminals, channels, trackers, the
        activity sets and the calendar stay the same objects, emptied.  The
        caller's arguments must be what this network was built from, by
        value: a pristine topology of the same widths and terminals per
        router, an equal ``cfg``, and an algorithm with the same VcMap
        inputs (classes, class weights).
        :class:`~repro.analysis.sweep.PointRun` holds one finished network
        per process to that rule (docs/PERFORMANCE.md, "A plain point
        reuses the last point's wiring").  Route caches are cleared, since
        the algorithm may differ.
        """
        self.topology = topology
        self.algorithm = algorithm
        self.cfg = cfg
        self._active_channels.clear()
        self._active_routers.clear()
        self._active_terminals.clear()
        for bucket in self._calendar:
            bucket.clear()
        for router in self.routers:
            router.reset(algorithm, cfg)
        for terminal in self.terminals:
            terminal.reset(algorithm)
        for ch in self.channels:
            ch.reset()
        return self

    # ------------------------------------------------------------------

    def _channel(self, latency: int, sink, name: tuple) -> Channel:
        # ``name`` is the (template, *ids) parts of the label: nobody reads
        # a channel's name on a healthy run, so Channel.name formats it.
        ch = Channel(latency, sink, name=name)
        ch._active_set = self._active_channels
        self.channels.append(ch)
        return ch

    def _wire(self) -> None:
        topo, cfg = self.topology, self.cfg
        num_vcs = cfg.router.num_vcs
        depth = cfg.router.buffer_depth
        lat_rr = cfg.network.channel_latency_rr
        lat_rt = cfg.network.channel_latency_rt
        routers = self.routers
        terminals = self.terminals
        channel = self._channel
        ports_of = self._ports_of

        # Every sink is a bound method of the state it writes: a router
        # input port's InputUnit or a terminal; credits return to the
        # upstream CreditTracker.
        for r in range(topo.num_routers):
            a = routers[r]
            if a is None:
                continue
            for port, peer in ports_of[r]:
                # Missing peers (statically-failed ports of a degraded
                # topology) are simply left unwired.
                if peer.is_router:
                    rp = peer.router_port
                    b = routers[rp.router]
                    if b is None:
                        self._wire_boundary(
                            a, r, port, rp.router, rp.port,
                            lat_rr, num_vcs, depth,
                        )
                        continue
                    data = channel(
                        lat_rr, b.inputs[rp.port].accept,
                        ("r%dp%d->r%d", r, port, rp.router),
                    )
                    tracker = CreditTracker(num_vcs, depth, lat_rr)
                    a.attach_output(port, data, tracker)
                    b._credit_return[rp.port] = tracker
                elif peer.is_terminal:
                    t = terminals[peer.terminal]
                    # Terminal -> router (injection).
                    inj = channel(
                        lat_rt, a.inputs[port].accept, ("t%d->r%d", t.terminal_id, r)
                    )
                    inj_tracker = CreditTracker(num_vcs, depth, lat_rt)
                    t.inject_channel, t.inject_credits = inj, inj_tracker
                    a._credit_return[port] = inj_tracker
                    # Router -> terminal (ejection).
                    ej = channel(
                        lat_rt, t.accept, ("r%d->t%d", r, t.terminal_id)
                    )
                    ej_tracker = CreditTracker(num_vcs, depth, lat_rt)
                    a.attach_output(port, ej, ej_tracker)
                    t.eject_credits = ej_tracker

    def _wire_boundary(self, a: Router, r: int, port: int, q: int, q_port: int,
                       lat_rr: int, num_vcs: int, depth: int) -> None:
        """Wire one cross-shard port of a partial build.

        The unowned peer ``q``'s half of the link lives in another shard;
        the four ends built here are this shard's halves of the two
        directed data paths and their credit returns:

        * export data ``("d", r, port)`` — flits this shard's router pushes
          toward ``q``; drained by the shard engine, poison sink.
        * import data ``("d", q, q_port)`` — flits ``q`` pushed toward us;
          filled by the shard engine, terminates in the normal flit sink.
        * export credits ``("c", r, port)`` — credits this router returns
          upstream for the ``q -> r`` data path; drained, poison target.
        * import credits ``("c", q, q_port)`` — credits ``q`` returns for
          the ``r -> q`` data path; filled, restored into its tracker.
        """
        key = ("d", r, port)
        data_out = self._channel(
            lat_rr, BoundaryExport(key, lat_rr).accept, ("r%dp%d->shard", r, port)
        )
        tracker = CreditTracker(num_vcs, depth, lat_rr)
        a.attach_output(port, data_out, tracker)
        self.boundary_out[key] = data_out

        data_in = self._channel(
            lat_rr, a.inputs[port].accept, ("shard->r%dp%d", r, port)
        )
        self.boundary_in[("d", q, q_port)] = data_in

        key = ("c", r, port)
        cred_out = BoundaryExport(key, lat_rr)
        a._credit_return[port] = cred_out
        self.boundary_out[key] = cred_out
        self.boundary_in[("c", q, q_port)] = tracker

    def close(self) -> None:
        """Drop the wiring's back-references, so that a finished network is
        freed by reference count rather than by the cyclic collector.

        The wiring is cyclic by design: router -> channel -> bound sink ->
        peer input unit -> peer router; a component and the activity set it
        registers in; a tracer's wrapped sink and the tracer it closes over.
        This empties every router and terminal and nulls every channel's
        sink and activity set, which breaks each of those cycles.  The
        network's own attributes (``topology``, ``cfg``, ``vc_map``,
        ``fault_state``) stay, but a late read of router or terminal state
        raises ``AttributeError`` instead of answering a default.
        :class:`~repro.analysis.sweep.frozen_build` calls it on every exit
        path.
        """
        for component in (*self.routers, *self.terminals):
            if component is not None:
                vars(component).clear()
        for ch in self.channels:
            ch._sink = ch._active_set = None

    # ------------------------------------------------------------------
    # Introspection used by tests and the measurement harness
    # ------------------------------------------------------------------

    @cached_property
    def links(self) -> list[LinkRecord]:
        """The wiring map: one :class:`LinkRecord` per credit-flow-controlled
        hop, in the order ``_wire`` made them (per router, per port; a
        terminal port's injection hop before its ejection hop).

        Only the repro.check sanitizer and the repro.obs tracer read it, so
        it is derived from the wiring on first read and kept.  A
        router-to-router hop's downstream end is the owner of its data
        channel's sink (an :class:`InputUnit`); the tracer reads this map
        before it wraps any sink.  Boundary half-links of a partial build
        are *not* recorded — the sanitizer audits complete credit loops,
        which a shard does not have at its edges (the sharded engine falls
        back to unsharded execution whenever the sanitizer is requested).
        """
        links = []
        for a in self.routers:
            if a is None:
                continue
            r = a.router_id
            for port, data in enumerate(a.out_channels):
                if data is None or ("d", r, port) in self.boundary_out:
                    continue  # unwired (failed) port, or a shard edge
                tracker, staged = a.credit_trackers[port], a.staged[port]
                tid = a.terminal_of_port.get(port)
                if tid is None:
                    unit = data._sink.__self__
                    b = unit.router
                    links.append(LinkRecord(
                        "rr", (r, port), (b.router_id, unit.port), tracker,
                        staged, data, unit,
                    ))
                    continue
                t = self.terminals[tid]
                links.append(LinkRecord(
                    "inj", tid, (r, port), t.inject_credits,
                    None, t.inject_channel, a.inputs[port],
                ))
                links.append(LinkRecord(
                    "ej", (r, port), tid, tracker, staged, data, t,
                ))
        return links

    def credits_returning(self) -> Counter:
        """Credits in flight back upstream, per ``(tracker, vc)``."""
        return Counter(ent for bucket in self._calendar for ent in bucket)

    def flits_in_flight(self) -> int:
        """Flits anywhere between source-queue exit and terminal consumption."""
        n = sum(ch.in_flight for ch in self.channels)
        for r in self.routers:
            if r is None:
                continue
            n += sum(map(len, r.fifos)) + sum(r._staged_count)
        for t in self.terminals:
            if t is not None:
                n += t.occupancy()
        return n

    def total_injected_flits(self) -> int:
        return sum(t.flits_injected for t in self.terminals if t is not None)

    def total_ejected_flits(self) -> int:
        return sum(t.flits_ejected for t in self.terminals if t is not None)

    def total_backlog_flits(self) -> int:
        return sum(t.backlog_flits for t in self.terminals if t is not None)

    def quiescent(self) -> bool:
        """True when no traffic remains anywhere in the system."""
        return (
            all(t.idle for t in self.terminals if t is not None)
            and all(r.idle for r in self.routers if r is not None)
            and all(not ch.busy for ch in self.channels)
            and not any(self._calendar)
        )

    def invalidate_route_caches(self) -> None:
        """Drop every router's memoised candidate skeletons.

        Called by the fault injector when the fault state's epoch changes:
        cached candidate lists may reference ports that just failed.  The
        output-stage ready bounds and the output-pass wake derived from them
        are reset too — a fault event may rewrite a channel's ``min_gap``,
        invalidating bounds derived from the old value.
        """
        for r in self.routers:
            if r is None:
                continue
            r._route_cache.clear()
            ready = r._stage_ready
            for p in range(len(ready)):
                ready[p] = 0
            r._out_wake = 0

    def validate_wiring(self) -> None:
        """Check construction invariants; raises ``AssertionError``.

        * every *wired* router-facing port has a data channel and credit
          tracker (ports with missing peers — statically-failed, on a
          degraded topology — are unwired on every attachment),
        * every alive terminal is attached on both directions; terminals of
          statically-failed routers are fully detached,
        * channel counts match the surviving structure (partial builds count
          two data channels per boundary port, one each direction).
        """
        topo = self.topology
        owned = self.owned_routers
        expected_channels = 0
        for r in range(topo.num_routers):
            router = self.routers[r]
            if router is None:
                continue
            for port, peer in topo.router_ports(r):
                if peer.is_missing:
                    assert router.out_channels[port] is None, (
                        f"router {r} failed port {port} has an output channel"
                    )
                    continue
                assert router.out_channels[port] is not None, (
                    f"router {r} port {port} has no output channel"
                )
                assert router.credit_trackers[port] is not None, (
                    f"router {r} port {port} has no credit tracker"
                )
                assert router._credit_return[port] is not None, (
                    f"router {r} port {port} has no credit return path"
                )
                if (
                    owned is not None
                    and peer.is_router
                    and peer.router_port.router not in owned
                ):
                    expected_channels += 2  # boundary: data, both ways
                else:
                    expected_channels += 1  # data out
        for t in self.terminals:
            if t is None:
                continue
            if t.inject_channel is None:
                # Terminal of a statically-failed router: fully detached.
                assert t.inject_credits is None and t.eject_credits is None
                continue
            assert t.inject_credits is not None
            assert t.eject_credits is not None
            expected_channels += 1  # injection data
        assert len(self.channels) == expected_channels, (
            f"channel count {len(self.channels)} != expected {expected_channels}"
        )
