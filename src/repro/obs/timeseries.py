"""Windowed time-series sampling of a live simulation.

The :class:`TimeSeriesSampler` registers as a simulator process and closes
a :class:`WindowSample` every ``window`` cycles: offered/accepted
throughput (flit deltas over the window), latency mean/p50/p99 of the
packets *delivered* in the window, per-dimension link utilization (HyperX
networks, via :class:`~repro.network.telemetry.TelemetryProbe`), and the
per-(router, VC) buffer-occupancy matrix snapshotted at the window edge —
the Fig 5-style signal that shows which VC classes adaptive routing
actually exercises over time.

Windows are half-open ``[start, end)`` and aligned to the attach cycle, so
attaching after warmup gives warmup-free windows.  :meth:`finalize` closes
the final partial window (its ``end - start`` may be shorter than
``window``); an empty window (no deliveries) reports ``nan`` latency.

Example::

    >>> import math
    >>> from repro.config import SimConfig
    >>> from repro.core.registry import make_algorithm
    >>> from repro.network.network import Network
    >>> from repro.network.simulator import Simulator
    >>> from repro.obs import TimeSeriesSampler
    >>> from repro.topology.hyperx import HyperX
    >>> topo = HyperX((2, 2), 1)
    >>> net = Network(topo, make_algorithm("DimWAR", topo), SimConfig())
    >>> sim = Simulator(net)
    >>> sampler = TimeSeriesSampler(sim, window=50).attach()
    >>> sim.run(100)
    >>> sampler.finalize(sim.cycle)
    >>> sampler.detach()
    >>> [s.end - s.start for s in sampler.samples]  # idle net, exact windows
    [50, 50]
    >>> math.isnan(sampler.samples[0].latency_mean)  # nothing delivered
    True
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..network.stats import nearest_rank
from ..network.telemetry import TelemetryProbe
from ..topology.hyperx import HyperX

if TYPE_CHECKING:  # pragma: no cover
    from ..network.simulator import Simulator


@dataclass(frozen=True)
class WindowSample:
    """Aggregates of one measurement window ``[start, end)``."""

    start: int
    end: int
    offered_flits: int  # generated this window: injected + backlog growth
    injected_flits: int  # flits that entered terminal channels
    accepted_flits: int  # flits consumed at destination terminals
    packets_delivered: int
    latency_mean: float  # over packets delivered in the window (nan if none)
    latency_p50: float
    latency_p99: float
    #: occupancy[router][vc]: buffered input flits at the window edge
    occupancy: tuple[tuple[int, ...], ...]
    #: mean utilization per HyperX dimension over the window (None otherwise)
    dim_utilization: tuple[float, ...] | None

    @property
    def span(self) -> int:
        return self.end - self.start

    @property
    def router_occupancy(self) -> tuple[int, ...]:
        """Total buffered flits per router at the window edge."""
        return tuple(sum(row) for row in self.occupancy)

    @property
    def vc_occupancy(self) -> tuple[int, ...]:
        """Total buffered flits per VC id, summed over routers."""
        if not self.occupancy:
            return ()
        return tuple(
            sum(row[v] for row in self.occupancy)
            for v in range(len(self.occupancy[0]))
        )

    @property
    def accepted_rate(self) -> float:
        """Accepted flits per cycle (network-wide) over the window."""
        return self.accepted_flits / self.span if self.span else 0.0


class TimeSeriesSampler:
    """Simulator process producing a :class:`WindowSample` per window."""

    def __init__(self, sim: "Simulator", window: int = 100):
        if window < 1:
            raise ValueError("window must be >= 1 cycle")
        self.sim = sim
        self.network = sim.network
        self.window = window
        self.samples: list[WindowSample] = []
        self._attached = False
        self._latencies: list[int] = []
        self._packets = 0
        self._probe = TelemetryProbe(self.network)
        hx = getattr(self.network.topology, "base", self.network.topology)
        self._has_dims = isinstance(hx, HyperX)
        self._window_start = 0
        self._base_injected = 0
        self._base_ejected = 0
        self._base_offered = 0

    @property
    def attached(self) -> bool:
        return self._attached

    # ------------------------------------------------------------------

    def attach(self) -> "TimeSeriesSampler":
        if self._attached:
            raise RuntimeError("sampler already attached")
        self.sim.add_process(self)
        for t in self.network.terminals:
            t.delivery_listeners.append(self._on_delivery)
        self._reset_window(self.sim.cycle)
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        self.sim.remove_process(self)
        for t in self.network.terminals:
            if self._on_delivery in t.delivery_listeners:
                t.delivery_listeners.remove(self._on_delivery)
        self._attached = False

    def finalize(self, cycle: int) -> None:
        """Close the final (possibly partial) window ending at ``cycle``."""
        if cycle > self._window_start:
            self._close(cycle)

    # ------------------------------------------------------------------

    def _reset_window(self, cycle: int) -> None:
        net = self.network
        self._window_start = cycle
        self._base_injected = net.total_injected_flits()
        self._base_ejected = net.total_ejected_flits()
        self._base_offered = self._base_injected + net.total_backlog_flits()
        self._latencies.clear()
        self._packets = 0
        self._probe.start_window(cycle)

    def __call__(self, cycle: int) -> None:
        # Boundaries are hit exactly under both stepping modes: per-cycle
        # runs call this every cycle, and the skip engine lands on (never
        # past) next_wakeup's boundary bound.
        if cycle - self._window_start >= self.window:
            self._close(cycle)

    def next_wakeup(self, cycle: int) -> int | None:
        """The next window boundary (start + window), always scheduled."""
        return self._window_start + self.window

    def _on_delivery(self, packet, cycle: int) -> None:
        self._latencies.append(cycle - packet.create_cycle)
        self._packets += 1

    def _close(self, end: int) -> None:
        net = self.network
        injected_now = net.total_injected_flits()
        injected = injected_now - self._base_injected
        accepted = net.total_ejected_flits() - self._base_ejected
        offered = injected_now + net.total_backlog_flits() - self._base_offered
        lat = self._latencies
        occupancy = tuple(
            tuple(
                sum(map(len, r.fifos[v::r.num_vcs]))
                for v in range(r.num_vcs)
            )
            for r in net.routers
        )
        dims = None
        if self._has_dims:
            du = self._probe.dimension_utilization(end)
            dims = tuple(du[d] for d in sorted(du))
        self.samples.append(WindowSample(
            start=self._window_start,
            end=end,
            offered_flits=offered,
            injected_flits=injected,
            accepted_flits=accepted,
            packets_delivered=self._packets,
            latency_mean=(sum(lat) / len(lat)) if lat else math.nan,
            latency_p50=nearest_rank(lat, 0.50),
            latency_p99=nearest_rank(lat, 0.99),
            occupancy=occupancy,
            dim_utilization=dims,
        ))
        self._reset_window(end)

    # ------------------------------------------------------------------

    def format_table(self) -> str:
        """The series as an aligned text table (one line per window)."""
        lines = [
            f"{'window':>13}  {'offered':>8} {'accepted':>8} "
            f"{'pkts':>6} {'lat.mean':>9} {'lat.p99':>8} {'occ.max':>8}"
        ]
        for s in self.samples:
            occ_max = max(s.router_occupancy, default=0)
            lines.append(
                f"[{s.start:>5},{s.end:>5})  {s.offered_flits:>8} "
                f"{s.accepted_flits:>8} {s.packets_delivered:>6} "
                f"{s.latency_mean:>9.1f} {s.latency_p99:>8.1f} {occ_max:>8}"
            )
        return "\n".join(lines)
