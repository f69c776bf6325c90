"""Figure 5: virtual-channel usage of DimWAR and OmniWAR.

The paper's figure shows, on an example path with deroutes, which resource
class each hop uses: DimWAR alternates between its two classes (deroute on
class 1, minimal on class 0, reused across ordered dimensions) while OmniWAR
walks up its distance classes (VC = hop index).

We regenerate it from real traced packets: load a 2-D HyperX until deroutes
happen, pick delivered packets with at least one deroute, and print the
hop-by-hop (dimension, move type, resource class) sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import format_table
from ..analysis.sweep import frozen_build
from ..config import default_config
from ..core.registry import make_algorithm
from ..network.network import Network
from ..network.simulator import Simulator
from ..topology.hyperx import HyperX
from ..traffic.injection import SyntheticTraffic
from ..traffic.patterns import BitComplement


@dataclass
class HopRecord:
    hop: int
    from_coords: tuple[int, ...]
    to_coords: tuple[int, ...]
    dim: int
    move: str  # "minimal" | "deroute"
    vc: int
    vc_class: int


@dataclass
class Fig5Result:
    #: algorithm -> hop records of one example derouted packet
    examples: dict[str, list[HopRecord]] = field(default_factory=dict)


def trace_example(algo_name: str, widths=(4, 4), tpr=4, seed=3,
                  cycles=2500, rate=0.5) -> list[HopRecord]:
    from ..obs import record_hops  # on use: repro.cli imports this module

    topo = HyperX(widths, tpr)
    algo = make_algorithm(algo_name, topo)
    cfg = default_config(seed=seed)
    delivered = []
    with frozen_build(lambda: Network(topo, algo, cfg)) as net:
        hops = record_hops(net)
        sim = Simulator(net)
        for t in net.terminals:
            t.delivery_listeners.append(lambda p, c: delivered.append(p))
        traffic = SyntheticTraffic(
            net, BitComplement(topo.num_terminals), rate, seed=seed
        )
        sim.processes.append(traffic)
        sim.run(cycles)
        traffic.stop()
        sim.drain(max_cycles=500_000)

    best = None
    for p in delivered:
        if p.deroutes >= 1 and (best is None or p.deroutes > best.deroutes):
            best = p
    if best is None:
        raise RuntimeError(f"no derouted packet observed for {algo_name}")

    records = []
    dest = topo.coords(topo.router_of_terminal(best.dst_terminal))
    for i, (router, port, vc) in enumerate(hops[best.pid]):
        d, coord = topo.port_target(router, port)
        frm = topo.coords(router)
        c = list(frm)
        c[d] = coord
        records.append(
            HopRecord(
                hop=i,
                from_coords=frm,
                to_coords=tuple(c),
                dim=d,
                move="minimal" if coord == dest[d] else "deroute",
                vc=vc,
                vc_class=net.vc_map.class_of(vc),
            )
        )
    return records


def run(algorithms: tuple[str, ...] = ("DimWAR", "OmniWAR")) -> Fig5Result:
    result = Fig5Result()
    for name in algorithms:
        result.examples[name] = trace_example(name)
    return result


def render(result: Fig5Result) -> str:
    out = []
    for name, records in result.examples.items():
        rows = [
            [
                r.hop,
                f"{r.from_coords} -> {r.to_coords}",
                f"dim {r.dim}",
                r.move,
                r.vc,
                r.vc_class,
            ]
            for r in records
        ]
        out.append(
            format_table(
                ["hop", "move", "dimension", "type", "VC", "resource class"],
                rows,
                title=f"Figure 5 ({name}): VC usage along a derouted path",
            )
        )
    return "\n\n".join(out)
