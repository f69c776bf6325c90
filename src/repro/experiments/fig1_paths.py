"""Figure 1: paths of source vs incremental adaptive routing around a
congested channel at the source router.

The figure's scenario: the minimal path's first channel out of the source
router is congested.  Source-adaptive routing (UGAL) decides *once* at the
source — it either ignores the congestion (minimal) or commits to a full
Valiant detour (~2x path).  Incremental routing (DimWAR/OmniWAR) slides
around the congested channel with a single +1-hop deroute and goes minimal
afterwards.

We reproduce the scenario on a 2-D HyperX: saturate the direct channel
between the source and destination routers with background flows, then send
traced probe packets under each algorithm and report the paths taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import format_table
from ..analysis.sweep import frozen_build
from ..config import default_config
from ..core.registry import make_algorithm
from ..network.network import Network
from ..network.simulator import Simulator
from ..network.types import Packet
from ..topology.hyperx import HyperX


@dataclass
class ProbeTrace:
    algorithm: str
    path: list[tuple[int, ...]]  # router coordinates visited
    hops: int
    deroutes: int
    min_hops: int


@dataclass
class Fig1Result:
    traces: dict[str, list[ProbeTrace]] = field(default_factory=dict)


def _congest_and_probe(
    algo_name: str,
    width: int = 4,
    tpr: int = 4,
    probes: int = 12,
    seed: int = 2,
) -> list[ProbeTrace]:
    from ..obs import record_hops  # on use: repro.cli imports this module

    topo = HyperX((width, width), tpr)
    algo = make_algorithm(algo_name, topo)
    cfg = default_config(seed=seed)
    probe_packets = []
    with frozen_build(lambda: Network(topo, algo, cfg)) as net:
        hops = record_hops(net)
        sim = Simulator(net)

        src_router = topo.router_id((0, 0))
        dst_router = topo.router_id((width - 1, 0))  # one X hop away

        def hot(cycle: int) -> None:
            # every terminal of the source router floods the destination router,
            # saturating the single minimal channel between them
            if cycle % 2 == 0:
                for lt in range(1, tpr):
                    src_t = src_router * tpr + lt
                    dst_t = dst_router * tpr + lt
                    net.terminals[src_t].offer(
                        Packet(src_t, dst_t, 8, create_cycle=cycle)
                    )

        sim.processes.append(hot)
        sim.run(400)  # build the congestion tree

        def probe(cycle: int) -> None:
            if cycle % 40 == 0 and len(probe_packets) < probes:
                src_t = src_router * tpr  # terminal 0 of the source router
                dst_t = dst_router * tpr
                p = Packet(src_t, dst_t, 1, create_cycle=cycle)
                probe_packets.append(p)
                net.terminals[src_t].offer(p)

        sim.processes.append(probe)
        sim.run(40 * probes + 400)
        sim.processes.clear()
        sim.drain(max_cycles=500_000)

    traces = []
    for p in probe_packets:
        if p.eject_cycle is None:
            continue
        path = [topo.coords(r) for r, _, _ in hops.get(p.pid, ())]
        path.append(topo.coords(dst_router))
        traces.append(
            ProbeTrace(
                algorithm=algo_name,
                path=path,
                hops=p.hops,
                deroutes=p.deroutes,
                min_hops=topo.min_hops(src_router, dst_router),
            )
        )
    return traces


def run(algorithms: tuple[str, ...] = ("UGAL", "DimWAR", "OmniWAR"),
        probes: int = 12) -> Fig1Result:
    result = Fig1Result()
    for name in algorithms:
        result.traces[name] = _congest_and_probe(name, probes=probes)
    return result


def render(result: Fig1Result) -> str:
    rows = []
    for name, traces in result.traces.items():
        if not traces:
            rows.append([name, "-", "-", "no probes delivered"])
            continue
        diverted = [t for t in traces if t.hops > t.min_hops]
        mean_hops = sum(t.hops for t in traces) / len(traces)
        example = max(traces, key=lambda t: t.hops)
        rows.append(
            [
                name,
                f"{mean_hops:.2f}",
                f"{len(diverted)}/{len(traces)}",
                " -> ".join(str(c) for c in example.path),
            ]
        )
    return format_table(
        ["algorithm", "mean hops", "diverted", "longest path taken"],
        rows,
        title="Figure 1: routing around a congested source channel "
        "(minimal distance = 1 hop)",
    )
