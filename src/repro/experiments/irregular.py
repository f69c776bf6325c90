"""Irregular multi-job workloads (Section 3.2).

The paper's motivation scenario: "a small job might only consume a few 10s
of nodes but have very high bandwidth requirements between its nodes.  A
very large job might be running at the same time and some of its traffic
will need to cross the area in which the small job resides."  Source-
adaptive routing either rams minimally into the localized congestion or
load-balances globally (2x bandwidth); fine-grained incremental routing
slips around it with ~one extra hop.

The experiment: a *small job* occupies all terminals of a line of routers
and runs hot uniform traffic among itself, congesting that line's channels;
a *large job* (every other terminal) offers light uniform traffic across
the whole machine.  We measure the large job's latency and path stretch per
routing algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.report import format_table
from ..analysis.sweep import frozen_build
from ..network.network import Network
from ..network.simulator import Simulator
from ..network.stats import PacketStats, nearest_rank
from ..network.types import Packet
from ..core.registry import make_algorithm
from ..traffic.sizes import UniformSize
from .common import Scale, get_scale


@dataclass
class JobResult:
    algorithm: str
    large_job_latency: float
    large_job_p99: float
    large_job_hops: float
    large_job_deroutes: float
    small_job_latency: float
    packets: int


@dataclass
class IrregularResult:
    scale: str
    results: dict[str, JobResult] = field(default_factory=dict)


class _TwoJobTraffic:
    """Small hot job inside one router column + a large job crossing it.

    The *small job* owns every terminal of the Y-column of routers at
    ``x = 0, z = 0`` and runs hot uniform traffic among itself, saturating
    that column's Y-channels.  The *large job* sends from terminals at
    ``x != 0, z = 0`` to terminals at ``x = 0, z != 0``: its dimension-order
    minimal path is an (uncongested) X hop into the hot column, the hot
    column's Y-channels, then a Z hop out — exactly the paper's scenario of
    distant localized congestion that a source router cannot see.
    """

    def __init__(self, network, small_rate, large_rate, seed):
        self.network = network
        topo = network.topology
        if topo.num_dims != 3:
            raise ValueError("the Section 3.2 scenario needs a 3-D HyperX")
        tpr = topo.terminals_per_router
        wx, wy, wz = topo.widths
        self.small = [
            topo.router_id((0, y, 0)) * tpr + i
            for y in range(wy)
            for i in range(tpr)
        ]
        self.large_src = [
            topo.router_id((x, y, 0)) * tpr + i
            for x in range(1, wx)
            for y in range(wy)
            for i in range(tpr)
        ]
        self.large_dst = [
            topo.router_id((0, y, z)) * tpr + i
            for y in range(wy)
            for z in range(1, wz)
            for i in range(tpr)
        ]
        self.small_rate = small_rate
        self.large_rate = large_rate
        self.rng = np.random.default_rng(seed)
        self.sizes = UniformSize(1, 16)
        self.enabled = True

    def _emit(self, cycle, sources, rate, dest_group):
        p = rate / self.sizes.mean
        draws = self.rng.random(len(sources))
        for i in np.nonzero(draws < p)[0]:
            src = sources[int(i)]
            while True:
                dst = dest_group[int(self.rng.integers(len(dest_group)))]
                if dst != src:
                    break
            pkt = Packet(src, dst, self.sizes.sample(self.rng), create_cycle=cycle)
            self.network.terminals[src].offer(pkt)

    def __call__(self, cycle: int) -> None:
        if not self.enabled:
            return
        self._emit(cycle, self.small, self.small_rate, self.small)
        self._emit(cycle, self.large_src, self.large_rate, self.large_dst)

    def stop(self):
        self.enabled = False


def run_one(
    algorithm: str,
    scale: str | Scale = "smoke",
    small_rate: float = 0.85,
    large_rate: float = 0.08,
    cycles: int = 4000,
    seed: int = 6,
) -> JobResult:
    sc = get_scale(scale)
    topo = sc.topology()
    algo = make_algorithm(algorithm, topo)
    large_samples, small_samples = [], []
    with frozen_build(lambda: Network(topo, algo, sc.sim_config())) as net:
        sim = Simulator(net)
        traffic = _TwoJobTraffic(net, small_rate, large_rate, seed)
        sim.processes.append(traffic)
        stats = PacketStats()
        small_set = set(traffic.small)

        def listener(p, c):
            sample = (p.latency, p.hops, p.deroutes)
            if p.src_terminal in small_set:
                small_samples.append(sample)
            else:
                large_samples.append(sample)

        for t in net.terminals:
            t.delivery_listeners.append(stats.on_delivery)
            t.delivery_listeners.append(listener)
        sim.run(cycles)
        traffic.stop()
        sim.drain(max_cycles=2_000_000)
    if not large_samples:
        raise RuntimeError("no large-job packets delivered")
    lat = sorted(s[0] for s in large_samples)
    return JobResult(
        algorithm=algorithm,
        large_job_latency=float(np.mean(lat)),
        large_job_p99=nearest_rank(lat, 0.99),
        large_job_hops=float(np.mean([s[1] for s in large_samples])),
        large_job_deroutes=float(np.mean([s[2] for s in large_samples])),
        small_job_latency=float(np.mean([s[0] for s in small_samples]))
        if small_samples
        else float("nan"),
        packets=len(large_samples),
    )


def run(
    algorithms: tuple[str, ...] = ("DOR", "UGAL", "UGAL+", "DimWAR", "OmniWAR"),
    scale: str | Scale = "smoke",
    **kwargs,
) -> IrregularResult:
    sc = get_scale(scale)
    result = IrregularResult(scale=sc.name)
    for name in algorithms:
        result.results[name] = run_one(name, sc, **kwargs)
    return result


def render(result: IrregularResult) -> str:
    rows = [
        [
            r.algorithm,
            f"{r.large_job_latency:.1f}",
            f"{r.large_job_p99:.0f}",
            f"{r.large_job_hops:.2f}",
            f"{r.large_job_deroutes:.2f}",
            f"{r.small_job_latency:.1f}",
        ]
        for r in result.results.values()
    ]
    return format_table(
        ["algorithm", "large-job latency", "p99", "hops", "deroutes",
         "small-job latency"],
        rows,
        title="Section 3.2: localized congestion — large job crossing a hot "
        f"small job [{result.scale} scale]",
    )
