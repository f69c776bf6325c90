"""Channel-dependency-graph deadlock analysis.

Dally & Seitz: a routing algorithm is deadlock free on a network with
credit-based flow control iff the channel dependency graph — nodes are
(channel, resource class) pairs, edges connect resources a packet may hold
simultaneously while waiting — is acyclic.

The paper argues acyclicity for DimWAR (2 resource classes reused across
ordered dimensions) and OmniWAR (distance classes) on paper; here we *check*
it mechanically, which both validates our implementations and demonstrates
the claimed property.

Two builders are provided:

* :func:`dependency_graph_incremental` walks every reachable packet state of
  a *stateless* incremental algorithm (DOR, MIN-AD, DimWAR, OmniWAR — their
  candidate sets depend only on position, input port, and input class) with a
  breadth-first search from all injection states, collecting the channel-class
  dependencies actually reachable.
* :func:`dependency_graph_two_phase` enumerates the deterministic two-phase
  DOR paths of VAL/UGAL/Clos-AD over all (source, intermediate, destination)
  triples.

Dependencies are tracked at *resource class* granularity: the VC map assigns
each physical VC to exactly one class, so acyclicity over classes implies
acyclicity over VCs.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..network.types import Packet
from ..topology.base import Topology
from ..topology.hyperx import HyperX
from .base import RouteContext, RoutingAlgorithm


@dataclass
class _MockRouterView:
    router_id: int


def _channel_node(router: int, port: int, klass: int) -> tuple[int, int, int]:
    """Node id for (outgoing channel of router.port, resource class)."""
    return (router, port, klass)


def dependency_graph_incremental(
    topology: Topology, algorithm: RoutingAlgorithm
) -> nx.DiGraph:
    """Reachable channel-class dependency graph of a stateless algorithm."""
    g = nx.DiGraph()
    tpr = topology.terminals_per_router
    # State: (router, input_port or None for injection, input class, dest router)
    seen: set[tuple[int, int | None, int, int]] = set()
    frontier: list[tuple[int, int | None, int, int]] = []
    for src in range(topology.num_routers):
        for dst in range(topology.num_routers):
            if src == dst:
                continue
            frontier.append((src, None, 0, dst))
    while frontier:
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        router, in_port, in_class, dst = state
        packet = Packet(
            src_terminal=0, dst_terminal=dst * tpr, size=1, create_cycle=0
        )
        if in_port is None:
            # injection: the port the router's first terminal attaches to
            in_port = topology.terminal_attachment(router * tpr).port
            from_terminal = True
        else:
            from_terminal = False
        ctx = RouteContext(
            router=_MockRouterView(router),
            packet=packet,
            input_port=in_port,
            input_vc_class=in_class,
            from_terminal=from_terminal,
        )
        for cand in algorithm.candidates(ctx):
            if not from_terminal:
                # The packet holds a slot on the channel it arrived on while
                # waiting for the channel it wants: record the dependency.
                peer = topology.peer(router, in_port).router_port
                g.add_edge(
                    _channel_node(peer.router, peer.port, in_class),
                    _channel_node(router, cand.out_port, cand.vc_class),
                )
            else:
                g.add_node(_channel_node(router, cand.out_port, cand.vc_class))
            nbr = topology.peer(router, cand.out_port).router_port
            if nbr.router != dst:
                frontier.append((nbr.router, nbr.port, cand.vc_class, dst))
            # Arriving at the destination router ends the chain: the ejection
            # channel sinks unconditionally and is never part of a cycle.
    return g


def _dor_path(topology: HyperX, src: int, dst: int) -> list[tuple[int, int]]:
    """The (router, out_port) hops of the DOR path src -> dst."""
    path = []
    here = list(topology.coords(src))
    dest = topology.coords(dst)
    rid = src
    for d in range(topology.num_dims):
        if here[d] != dest[d]:
            port = topology.dim_port(rid, d, dest[d])
            path.append((rid, port))
            here[d] = dest[d]
            rid = topology.router_id(here)
    return path


def dependency_graph_two_phase(topology: HyperX) -> nx.DiGraph:
    """Dependency graph of two-phase DOR routing (VAL / UGAL / Clos-AD).

    Phase 1 (source -> intermediate) runs on class 0, phase 2 (intermediate ->
    destination) on class 1; minimal-mode packets use class 1 only.
    """
    g = nx.DiGraph()
    n = topology.num_routers
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            for inter in range(n):
                hops = [
                    (r, p, 0) for r, p in _dor_path(topology, src, inter)
                ] + [(r, p, 1) for r, p in _dor_path(topology, inter, dst)]
                for (r1, p1, k1), (r2, p2, k2) in zip(hops, hops[1:]):
                    g.add_edge(
                        _channel_node(r1, p1, k1), _channel_node(r2, p2, k2)
                    )
    return g


def verify_rank_certificate(
    topology: Topology, algorithm: RoutingAlgorithm
) -> int:
    """Constructive deadlock-freedom proof: check a channel-rank certificate.

    Cycle search (:func:`find_cycle`) proves acyclicity by exhaustion; a
    *rank certificate* proves it by construction — the algorithm states a
    total pre-order over its channels
    (:attr:`~repro.core.base.RoutingAlgorithm.channel_rank`) and this
    function checks, edge by edge over the reachable dependency graph,
    that every legal dependency **strictly increases** the rank.  A strict
    increase along every edge makes a cycle impossible, and a violated
    edge names exactly which ordering claim of the algorithm's proof is
    wrong — far more actionable than a raw cycle.

    FTHX (adaptive distance classes below a dimension-major escape order)
    and VCFree (the up*/down* channel order) both ship certificates;
    returns the number of edges verified, raises ``AssertionError`` on the
    first ordering violation and ``ValueError`` when the algorithm
    declares no certificate.
    """
    rank = getattr(algorithm, "channel_rank", None)
    if rank is None:
        raise ValueError(
            f"{algorithm.name} declares no channel_rank certificate; "
            f"use assert_deadlock_free for the cycle-search proof"
        )
    g = dependency_graph_incremental(topology, algorithm)
    checked = 0
    for (r1, p1, k1), (r2, p2, k2) in g.edges():
        ra = rank(r1, p1, k1)
        rb = rank(r2, p2, k2)
        assert ra < rb, (
            f"{algorithm.name} rank certificate violated on {topology!r}: "
            f"channel (router {r1}, port {p1}, class {k1}) rank {ra} must "
            f"be strictly below its dependency (router {r2}, port {p2}, "
            f"class {k2}) rank {rb}"
        )
        checked += 1
    return checked


def find_cycle(graph: nx.DiGraph) -> list | None:
    """Return one dependency cycle, or None when the graph is acyclic."""
    try:
        return nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return None


def assert_deadlock_free(topology: Topology, algorithm: RoutingAlgorithm) -> None:
    """Raise AssertionError with the offending cycle if one exists."""
    g = dependency_graph_incremental(topology, algorithm)
    cycle = find_cycle(g)
    assert cycle is None, (
        f"{algorithm.name} has a channel-dependency cycle on "
        f"{topology!r}: {cycle}"
    )
