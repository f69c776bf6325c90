"""Network telemetry: link utilization, VC occupancy, and congestion maps.

The evaluation narrative of the paper leans on *where* load lands: DOR
funnelling an X-line's traffic through one Y-channel on DCR, S2 leaving
most in-dimension links idle, deroutes spreading load across a dimension's
lateral channels.  This module turns a simulated network into those
numbers: per-channel utilization, per-dimension aggregates for HyperX, and
buffer-occupancy snapshots.

Utilization is flits pushed over cycles elapsed — i.e. the fraction of the
channel's capacity actually used in [window_start, now).

Fault telemetry: networks built on a :class:`~repro.faults.DegradedTopology`
carry a shared fault state whose counters
(:meth:`TelemetryProbe.fault_counters`) record how routing reacted —
candidates masked, committed routes revoked, fault events applied.

Example::

    >>> from repro.config import SimConfig
    >>> from repro.core.registry import make_algorithm
    >>> from repro.network.network import Network
    >>> from repro.network.telemetry import TelemetryProbe
    >>> from repro.topology.hyperx import HyperX
    >>> topo = HyperX((2, 2), 1)
    >>> net = Network(topo, make_algorithm("DOR", topo), SimConfig())
    >>> probe = TelemetryProbe(net)
    >>> probe.fault_counters()["failed_links"]  # pristine topology: all zero
    0
    >>> probe.utilization_summary(cycle=100)["max"]
    0.0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..topology.hyperx import HyperX
from .stats import nearest_rank

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network


@dataclass(frozen=True)
class LinkStat:
    src_router: int
    src_port: int
    flits: int
    utilization: float


class TelemetryProbe:
    """Samples link and buffer state of a network over a window."""

    def __init__(self, network: "Network"):
        self.network = network
        self._window_start_cycle = 0
        self._baseline: dict[int, int] = {}
        # Map each data channel back to (router, port) for attribution.
        self._channel_of: list[tuple[int, int, object]] = []
        for r in network.routers:
            for port, ch in enumerate(r.out_channels):
                if ch is not None and network.topology.peer(r.router_id, port).is_router:
                    self._channel_of.append((r.router_id, port, ch))

    # ------------------------------------------------------------------

    def start_window(self, cycle: int) -> None:
        """Begin a measurement window at ``cycle``."""
        self._window_start_cycle = cycle
        self._baseline = {
            id(ch): ch.utilization_count for _, _, ch in self._channel_of
        }

    def link_stats(self, cycle: int) -> list[LinkStat]:
        """Per-router-channel utilization over the current window."""
        span = max(1, cycle - self._window_start_cycle)
        out = []
        for router, port, ch in self._channel_of:
            flits = ch.utilization_count - self._baseline.get(id(ch), 0)
            out.append(
                LinkStat(router, port, flits, min(1.0, flits / span))
            )
        return out

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def utilization_summary(self, cycle: int) -> dict[str, float]:
        """min / mean / max / p95 (nearest rank) utilization across router
        channels."""
        stats = sorted(s.utilization for s in self.link_stats(cycle))
        if not stats:
            return {"min": 0.0, "mean": 0.0, "max": 0.0, "p95": 0.0}
        return {
            "min": stats[0],
            "mean": sum(stats) / len(stats),
            "max": stats[-1],
            "p95": nearest_rank(stats, 0.95),
        }

    def dimension_utilization(self, cycle: int) -> dict[int, float]:
        """Mean utilization per HyperX dimension (HyperX networks only)."""
        topo = self.network.topology
        # A DegradedTopology wrapper delegates port_dim etc.; unwrap for the
        # type check so fault experiments get dimension aggregates too.
        hx = getattr(topo, "base", topo)
        if not isinstance(hx, HyperX):
            raise TypeError("dimension_utilization requires a HyperX network")
        sums: dict[int, float] = {d: 0.0 for d in range(hx.num_dims)}
        counts: dict[int, int] = {d: 0 for d in range(hx.num_dims)}
        for s in self.link_stats(cycle):
            d = hx.port_dim(s.src_router, s.src_port)
            sums[d] += s.utilization
            counts[d] += 1
        return {d: (sums[d] / counts[d] if counts[d] else 0.0) for d in sums}

    def hottest_links(self, cycle: int, n: int = 5) -> list[LinkStat]:
        """The ``n`` most utilized router channels."""
        return sorted(
            self.link_stats(cycle), key=lambda s: s.flits, reverse=True
        )[:n]

    def oversubscription_ratio(self, cycle: int) -> float:
        """max/mean link load: ~1 for balanced traffic, large for funnels."""
        stats = self.link_stats(cycle)
        loads = [s.flits for s in stats]
        mean = sum(loads) / len(loads) if loads else 0.0
        if mean == 0:
            return 1.0
        return max(loads) / mean

    # ------------------------------------------------------------------
    # Route-cache telemetry
    # ------------------------------------------------------------------

    def route_cache_stats(self) -> dict[str, float]:
        """Aggregate route-cache counters across every router.

        ``hits``/``misses`` count candidate-skeleton lookups by cacheable
        algorithms (stateful algorithms bypass the cache entirely and count
        in neither); ``evictions`` counts capacity evictions — nonzero means
        the working set of ``(destination, input-class)`` keys exceeded the
        per-router cap and the oldest entries were recycled.  ``hit_rate``
        is hits over lookups (0.0 before any lookup happens).
        """
        hits = misses = evictions = 0
        for r in self.network.routers:
            hits += r.route_cache_hits
            misses += r.route_cache_misses
            evictions += r.route_cache_evictions
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }

    # ------------------------------------------------------------------
    # Fault telemetry
    # ------------------------------------------------------------------

    def fault_counters(self) -> dict[str, int]:
        """Per-fault counters from the network's shared fault state.

        All zeros when the network was built on a pristine topology.
        ``masked_candidates`` counts ports filtered at candidate-computation
        time (cached candidate lists do not recount), ``revoked_routes``
        counts committed-but-unstarted routes undone by mid-run fault
        events, ``events_applied`` counts schedule events fired.
        """
        state = getattr(self.network, "fault_state", None)
        if state is None:
            return {
                "failed_links": 0,
                "failed_routers": 0,
                "degraded_links": 0,
                "masked_candidates": 0,
                "revoked_routes": 0,
                "events_applied": 0,
            }
        return {
            "failed_links": state.num_failed_links,
            "failed_routers": len(state.failed_routers),
            "degraded_links": len(state.degraded) // 2,
            "masked_candidates": state.masked_candidates,
            "revoked_routes": state.revoked_routes,
            "events_applied": state.events_applied,
        }

    # ------------------------------------------------------------------
    # Instantaneous state
    # ------------------------------------------------------------------

    def buffer_occupancy(self) -> dict[str, float]:
        """Mean and max input-VC occupancy across the network, in flits."""
        occ = []
        for r in self.network.routers:
            occ.extend(map(len, r.fifos))
        if not occ:
            return {"mean": 0.0, "max": 0.0}
        return {"mean": sum(occ) / len(occ), "max": float(max(occ))}

    def vc_occupancy_by_class(self) -> dict[int, int]:
        """Total buffered flits per resource class (VC-map aware)."""
        vc_map = self.network.vc_map
        out = {k: 0 for k in range(vc_map.num_classes)}
        for r in self.network.routers:
            nv = r.num_vcs
            for key, fifo in enumerate(r.fifos):
                out[vc_map.class_of(key % nv)] += len(fifo)
        return out
