"""Figure 8: 27-point stencil execution time per routing algorithm.

Three sub-figures, each for 1 and 16 iterations with zero compute time and
random placement (Section 6.2):

* **8a** collectives only — latency bound; every algorithm but VAL is good;
* **8b** halo exchanges only — bandwidth bound; DOR worst, VAL second worst,
  DimWAR/OmniWAR best;
* **8c** the full application — DimWAR/OmniWAR best, OmniWAR slightly ahead.

Execution time is the cycle at which the last rank completes (smaller is
better, as in the paper's bar charts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import format_table
from ..analysis.sweep import frozen_build
from ..application.engine import StencilApplication
from ..application.placement import RandomPlacement
from ..application.stencil import StencilDecomposition
from ..core.registry import PAPER_ALGORITHMS, make_algorithm
from ..network.network import Network
from ..network.simulator import Simulator
from .common import Scale, get_scale

MODES = ("collective", "halo", "full")


@dataclass
class Fig8Result:
    scale: str
    #: (mode, iterations, algorithm) -> execution time in cycles
    times: dict[tuple[str, int, str], int] = field(default_factory=dict)


def run_stencil_once(
    algorithm: str,
    mode: str = "full",
    iterations: int = 1,
    scale: str | Scale = "smoke",
    seed: int = 5,
    max_cycles: int = 5_000_000,
) -> int:
    """One bar of Figure 8: execution time for one algorithm/mode/iters."""
    sc = get_scale(scale)
    topo = sc.topology()
    algo = make_algorithm(algorithm, topo)
    with frozen_build(lambda: Network(topo, algo, sc.sim_config())) as net:
        sim = Simulator(net)
        decomp = StencilDecomposition(
            sc.stencil_ranks, aggregate_flits=sc.stencil_aggregate_flits
        )
        placement = RandomPlacement(decomp.num_ranks, topo.num_terminals, seed=seed)
        app = StencilApplication(
            net, decomp, placement, iterations=iterations, mode=mode
        )
        return app.run(sim, max_cycles=max_cycles)


def run(
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
    modes: tuple[str, ...] = MODES,
    iteration_counts: tuple[int, ...] = (1, 16),
    scale: str | Scale = "smoke",
    seed: int = 5,
    repeats: int = 1,
) -> Fig8Result:
    """Run the Figure 8 grid; with ``repeats`` > 1 each bar is the mean over
    that many random placements (reduces small-scale placement noise)."""
    sc = get_scale(scale)
    result = Fig8Result(scale=sc.name)
    for mode in modes:
        for iters in iteration_counts:
            for algo in algorithms:
                times = [
                    run_stencil_once(algo, mode, iters, sc, seed=seed + rep)
                    for rep in range(repeats)
                ]
                result.times[(mode, iters, algo)] = round(sum(times) / len(times))
    return result


def render(result: Fig8Result, algorithms: tuple[str, ...] = PAPER_ALGORITHMS) -> str:
    rows = []
    keys = sorted({(m, i) for m, i, _ in result.times})
    for mode, iters in keys:
        row = [mode, str(iters)]
        for algo in algorithms:
            t = result.times.get((mode, iters, algo))
            row.append(str(t) if t is not None else "-")
        rows.append(row)
    return format_table(
        ["phase", "iterations", *algorithms],
        rows,
        title=f"Figure 8: stencil execution time in cycles, lower is better "
        f"[{result.scale} scale]",
    )
