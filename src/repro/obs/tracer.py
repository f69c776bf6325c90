"""The lifecycle tracer: attaches to a live simulator, records events.

The tracer observes through the simulator's existing hook seams and never
drives the simulation itself:

* ``Terminal.inject_listeners`` / ``delivery_listeners`` for packet
  inject/eject;
* ``Router.add_route_hook`` for route decisions — the router hands over
  the already-scored candidate list, so the tracer never re-runs
  ``candidates()`` or the weight computation (which would perturb fault
  counters and the tie-break jitter stream);
* ``Router.add_forward_hook`` for switch allocation;
* router-to-router data-channel ``_sink`` wrapping for link traversal
  (the wrapper delegates to the original sink first, then records).

Attach/detach is fully reversible: every callback is bound once in
``__init__`` and registered/unregistered by that identity, and wrapped
channel sinks are restored from the saved originals — attach → detach →
attach leaves zero residual hooks (the PR 3 bound-method pitfall).

Determinism: with the tracer attached the simulation is byte-identical to
an untraced run — ``repro.check.oracle.diff_trace_on_off`` replays sweeps
both ways and asserts identical JSON.

Example::

    >>> from repro.config import SimConfig
    >>> from repro.core.registry import make_algorithm
    >>> from repro.network.network import Network
    >>> from repro.network.simulator import Simulator
    >>> from repro.obs import Tracer, TraceOptions
    >>> from repro.topology.hyperx import HyperX
    >>> from repro.traffic.injection import SyntheticTraffic
    >>> from repro.traffic.patterns import pattern_by_name
    >>> topo = HyperX((2, 2), 1)
    >>> net = Network(topo, make_algorithm("DOR", topo), SimConfig())
    >>> sim = Simulator(net)
    >>> sim.processes.append(SyntheticTraffic(net, pattern_by_name("UR", topo), 0.2, seed=3))
    >>> tracer = Tracer(sim, TraceOptions(sample_every=2)).attach()
    >>> sim.run(200)
    >>> tracer.detach()
    >>> events = tracer.events()
    >>> events[0].type
    'inject'
    >>> sorted(set(e.type for e in events)) == sorted(
    ...     ["inject", "route", "vc_alloc", "sa", "link", "eject"])
    True
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .events import EventRing, TraceEvent, TraceOptions

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network
    from ..network.simulator import Simulator


def record_hops(network: "Network") -> dict[int, list[tuple[int, int, int]]]:
    """Log every packet's router-to-router hops through the route hooks.

    Returns ``hops``, filled as the run goes: ``hops[pid]`` is the packet's
    committed routes in path order, one ``(router, out_port, out_vc)`` per
    hop (ejection is not a hop).  A route the fault injector revokes is
    decided again at the same router, and that decision replaces it —
    consecutive hops are otherwise never at one router.  The hook stays
    registered for the network's lifetime.
    """
    hops: dict[int, list[tuple[int, int, int]]] = {}

    def hook(cycle, router, port, vc, ctx, cand, out_vc, scored):
        path = hops.setdefault(ctx.packet.pid, [])
        rid = router.router_id
        if path and path[-1][0] == rid:
            path.pop()
        path.append((rid, cand.out_port, out_vc))

    for r in network.routers:
        if r is not None:
            r.add_route_hook(hook)
    return hops


class Tracer:
    """Records lifecycle events for sampled packets of a live simulation."""

    def __init__(self, sim: "Simulator", options: TraceOptions | None = None):
        self.sim = sim
        self.network = sim.network
        self.options = options or TraceOptions()
        self.ring = EventRing(self.options.capacity)
        self._attached = False
        self._seq = 0  # packets seen at injection (sampling counter)
        self._next_tid = 0  # next trace-local id (doubles as sampled count)
        self._tids: dict[int, int] = {}  # live sampled packets: pid -> tid
        self._wrapped: list[tuple[object, object]] = []  # (channel, orig sink)

    @property
    def attached(self) -> bool:
        return self._attached

    @property
    def packets_sampled(self) -> int:
        """Packets assigned a trace-local id so far."""
        return self._next_tid

    def events(self) -> list[TraceEvent]:
        return self.ring.events()

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self) -> "Tracer":
        """Register every observation hook; chainable."""
        if self._attached:
            raise RuntimeError("tracer already attached")
        net = self.network
        for t in net.terminals:
            t.inject_listeners.append(self._on_inject)
            t.delivery_listeners.append(self._on_eject)
        for r in net.routers:
            r.add_route_hook(self._on_route)
            r.add_forward_hook(self._on_forward)
        for rec in net.links:
            if rec.kind != "rr":
                continue
            ch = rec.data
            orig = ch._sink
            ch._sink = self._make_link_sink(rec, orig)
            self._wrapped.append((ch, orig))
        self._attached = True
        return self

    def detach(self) -> None:
        """Unregister every hook and restore wrapped channel sinks."""
        if not self._attached:
            return
        net = self.network
        for t in net.terminals:
            if self._on_inject in t.inject_listeners:
                t.inject_listeners.remove(self._on_inject)
            if self._on_eject in t.delivery_listeners:
                t.delivery_listeners.remove(self._on_eject)
        for r in net.routers:
            if self._on_route in r._route_hooks:
                r.remove_route_hook(self._on_route)
            if self._on_forward in r._forward_hooks:
                r.remove_forward_hook(self._on_forward)
        for ch, orig in self._wrapped:
            ch._sink = orig
        self._wrapped.clear()
        self._attached = False

    # ------------------------------------------------------------------
    # Callbacks (hot path when attached)
    # ------------------------------------------------------------------

    def _in_window(self, cycle: int) -> bool:
        o = self.options
        return cycle >= o.start and (o.end is None or cycle < o.end)

    def _on_inject(self, packet, cycle: int) -> None:
        seq = self._seq
        self._seq = seq + 1
        if seq % self.options.sample_every:
            return
        tid = self._next_tid
        self._next_tid = tid + 1
        # Assign the id even outside the cycle window so ids stay stable no
        # matter where the window lies.
        self._tids[packet.pid] = tid
        if not self._in_window(cycle):
            return
        self.ring.append(TraceEvent(cycle, "inject", tid, packet.src_terminal, {
            "create": packet.create_cycle,
            "dst": packet.dst_terminal,
            "size": packet.size,
            "src": packet.src_terminal,
        }))

    def _on_route(self, cycle, router, port, vc, ctx, cand, out_vc, scored) -> None:
        tid = self._tids.get(ctx.packet.pid)
        if tid is None or not self._in_window(cycle):
            return
        weight = None
        cands = []
        for c, v, w in scored:
            cands.append([c.out_port, c.vc_class, c.hops, 1 if c.deroute else 0, w])
            if c is cand and v == out_vc:
                weight = w
        self.ring.append(TraceEvent(cycle, "route", tid, router.router_id, {
            "cands": cands,
            "deroute": 1 if cand.deroute else 0,
            "hops": cand.hops,
            "in_port": port,
            "in_vc": vc,
            "out_port": cand.out_port,
            "weight": weight,
        }))
        self.ring.append(TraceEvent(cycle, "vc_alloc", tid, router.router_id, {
            "out_port": cand.out_port,
            "out_vc": out_vc,
            "vc_class": cand.vc_class,
        }))

    def _on_forward(self, cycle, router, port, vc, out_port, out_vc, flit) -> None:
        tid = self._tids.get(flit.packet.pid)
        if tid is None or not self._in_window(cycle):
            return
        self.ring.append(TraceEvent(cycle, "sa", tid, router.router_id, {
            "flit": flit.index,
            "in_port": port,
            "in_vc": vc,
            "out_port": out_port,
            "out_vc": out_vc,
        }))

    def _make_link_sink(self, rec, orig):
        tid_of = self._tids.get
        ring = self.ring
        sim = self.sim
        src_router, src_port = rec.src
        dst_router, dst_port = rec.dst
        in_window = self._in_window

        def sink(item):
            orig(item)
            vc, flit = item
            tid = tid_of(flit.packet.pid)
            if tid is not None:
                cycle = sim.cycle
                if in_window(cycle):
                    ring.append(TraceEvent(cycle, "link", tid, src_router, {
                        "dst": dst_router,
                        "dst_port": dst_port,
                        "flit": flit.index,
                        "src_port": src_port,
                        "vc": vc,
                    }))

        return sink

    def _on_eject(self, packet, cycle: int) -> None:
        tid = self._tids.pop(packet.pid, None)  # prune: bounded live set
        if tid is None or not self._in_window(cycle):
            return
        self.ring.append(TraceEvent(cycle, "eject", tid, packet.dst_terminal, {
            "create": packet.create_cycle,
            "deroutes": packet.deroutes,
            "hops": packet.hops,
            "latency": cycle - packet.create_cycle,
            "size": packet.size,
        }))
