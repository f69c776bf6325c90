"""Figure 4: 27-point stencil execution time across topologies.

The paper's head-to-head of Fat Tree, Dragonfly, and HyperX running the
stencil application (full mode), each with its natural adaptive routing
(adaptive up/down for the fat tree, UGAL for the Dragonfly, OmniWAR for the
HyperX).  The paper reports the HyperX 25-38% faster in communication time.

Topology configurations are chosen with comparable endpoint counts and
router radix; the stencil grid is sized to the smallest terminal count so
the same ranks run everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import format_table
from ..analysis.sweep import frozen_build
from ..application.engine import StencilApplication
from ..application.placement import RandomPlacement
from ..application.stencil import StencilDecomposition
from ..core.dragonfly_routing import DragonflyUgal
from ..core.fattree_routing import FatTreeAdaptive
from ..core.registry import make_algorithm
from ..network.network import Network
from ..network.simulator import Simulator
from ..topology.dragonfly import Dragonfly
from ..topology.fattree import FatTree
from ..topology.hyperx import HyperX
from .common import Scale, get_scale


@dataclass(frozen=True)
class TopologyCase:
    name: str
    topology: object
    algorithm: object

    @property
    def num_terminals(self) -> int:
        return self.topology.num_terminals


def paper_cases(scale: str | Scale = "smoke") -> list[TopologyCase]:
    """Comparable FatTree / Dragonfly / HyperX configurations per scale."""
    sc = get_scale(scale)
    # Fat trees are 2:1 edge-oversubscribed (leaf_factor=2) so that all
    # three networks have ~50% bisection and comparable per-node cost —
    # a full-bisection fat tree would cost far more than the HyperX and
    # Dragonfly it is compared against (see EXPERIMENTS.md).
    if sc.name == "smoke":
        ft = FatTree(3, 3, leaf_factor=2)  # 54 terminals, 27 switches
        df = Dragonfly(p=2, a=4, h=2)  # 72 terminals, 36 routers
        hx = HyperX((4, 4), 4)  # 64 terminals, 16 routers
    elif sc.name == "small":
        ft = FatTree(5, 3, leaf_factor=2)  # 250 terminals
        df = Dragonfly(p=3, a=6, h=3)  # 342 terminals
        hx = HyperX((4, 4, 4), 4)  # 256 terminals
    else:  # paper scale
        ft = FatTree(13, 3, leaf_factor=2)  # 4,394 terminals
        df = Dragonfly(p=6, a=12, h=6)  # 5,256 terminals
        hx = HyperX((8, 8, 8), 8)  # 4,096 terminals
    return [
        TopologyCase("FatTree", ft, FatTreeAdaptive(ft)),
        TopologyCase("Dragonfly", df, DragonflyUgal(df)),
        TopologyCase("HyperX", hx, make_algorithm("OmniWAR", hx)),
    ]


@dataclass
class Fig4Result:
    scale: str
    #: (topology, iterations) -> execution time in cycles
    times: dict[tuple[str, int], int] = field(default_factory=dict)

    def hyperx_speedup(self, versus: str, iterations: int) -> float:
        """Relative communication-time reduction of HyperX vs a baseline."""
        base = self.times[(versus, iterations)]
        hx = self.times[("HyperX", iterations)]
        return 1.0 - hx / base


def run(
    scale: str | Scale = "smoke",
    iteration_counts: tuple[int, ...] = (1,),
    seed: int = 5,
    max_cycles: int = 5_000_000,
) -> Fig4Result:
    sc = get_scale(scale)
    cases = paper_cases(sc)
    # one stencil grid fits every topology: size to the smallest network
    min_terminals = min(c.num_terminals for c in cases)
    side = 2
    while (side + 1) ** 3 <= min_terminals:
        side += 1
    grid = (side, side, side)
    result = Fig4Result(scale=sc.name)
    for case in cases:
        for iters in iteration_counts:
            decomp = StencilDecomposition(
                grid, aggregate_flits=sc.stencil_aggregate_flits
            )
            placement = RandomPlacement(
                decomp.num_ranks, case.topology.num_terminals, seed=seed
            )
            with frozen_build(
                lambda: Network(case.topology, case.algorithm, sc.sim_config())
            ) as net:
                app = StencilApplication(net, decomp, placement, iterations=iters)
                result.times[(case.name, iters)] = app.run(
                    Simulator(net), max_cycles=max_cycles
                )
    return result


def render(result: Fig4Result) -> str:
    rows = []
    for (name, iters), t in sorted(result.times.items()):
        rows.append([name, str(iters), str(t)])
    for iters in sorted({i for _, i in result.times}):
        for base in ("FatTree", "Dragonfly"):
            if (base, iters) in result.times:
                rows.append(
                    [
                        f"HyperX vs {base}",
                        str(iters),
                        f"{result.hyperx_speedup(base, iters) * 100:+.1f}% comm time",
                    ]
                )
    return format_table(
        ["topology", "iterations", "execution time (cycles)"],
        rows,
        title=f"Figure 4: stencil execution time per topology "
        f"[{result.scale} scale]",
    )
