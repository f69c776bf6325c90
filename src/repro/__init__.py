"""repro — reproduction of *Practical and Efficient Incremental Adaptive
Routing for HyperX Networks* (McDonald et al., SC '19).

The package provides:

* :mod:`repro.core` — the paper's routing algorithms (DimWAR, OmniWAR) and
  the DOR/VAL/UGAL/Clos-AD baselines, plus deadlock analysis;
* :mod:`repro.network` — a flit-level, cycle-driven interconnect simulator
  (credit-based VC flow control, CIOQ routers, age-based arbitration);
* :mod:`repro.topology` — HyperX, Dragonfly, and fat-tree topologies and the
  scalability models of the paper's Figure 2;
* :mod:`repro.traffic` — the synthetic patterns of Table 3;
* :mod:`repro.application` — the 27-point stencil application model;
* :mod:`repro.analysis` — load-latency sweeps and throughput measurement;
* :mod:`repro.cost` — the cabling-cost model of Figure 3;
* :mod:`repro.faults` — link/router fault injection and degraded-topology
  adaptive routing (see ``docs/FAULTS.md``);
* :mod:`repro.obs` — flit-level lifecycle tracing, windowed time-series
  sampling, trace exporters, and phase profiling (see
  ``docs/OBSERVABILITY.md``);
* :mod:`repro.experiments` — one driver per paper figure/table.

Quickstart::

    from repro import quick_simulation
    result = quick_simulation(algorithm="DimWAR", pattern="UR", rate=0.3)
    print(result.mean_latency)
"""

from .config import SimConfig, default_config, paper_scale
from .core.registry import PAPER_ALGORITHMS, algorithm_names, make_algorithm
from .faults import DegradedTopology, FaultSet, random_link_faults
from .topology.hyperx import HyperX, paper_hyperx, regular_hyperx

__version__ = "1.0.0"

__all__ = [
    "SimConfig",
    "default_config",
    "paper_scale",
    "HyperX",
    "regular_hyperx",
    "paper_hyperx",
    "make_algorithm",
    "algorithm_names",
    "PAPER_ALGORITHMS",
    "FaultSet",
    "DegradedTopology",
    "random_link_faults",
    "quick_simulation",
]


def quick_simulation(
    algorithm: str = "DimWAR",
    pattern: str = "UR",
    rate: float = 0.3,
    widths: tuple[int, ...] = (4, 4),
    terminals_per_router: int = 4,
    cycles: int = 3000,
    seed: int = 1,
):
    """Run one synthetic-traffic simulation and return its measurement.

    A convenience wrapper over the full API (topology -> algorithm ->
    network -> traffic -> measurement); see ``examples/quickstart.py`` for
    the expanded form.
    """
    from .analysis.parallel import PointSpec, run_point

    return run_point(PointSpec(
        tuple(widths), terminals_per_router, algorithm, pattern, rate,
        total_cycles=cycles, seed=seed,
    ))
