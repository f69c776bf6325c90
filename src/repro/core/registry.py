"""Algorithm registry: name -> factory, plus the paper's Table 1 / Table 2.

The registry is what the sweep driver, the benchmarks, and the examples use
to instantiate routing algorithms by name.  It also carries the metadata
needed to regenerate Table 1 (implementation comparison) — including DAL,
which is analysed but, as in the paper, never simulated.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..topology.hyperx import HyperX
    from .base import RoutingAlgorithm

#: name -> ``"module:attr"`` of its factory under ``repro.core``; only the
#: module a name resolves to is imported, when the name is first built
_FACTORIES: dict[str, str] = {
    "DOR": "dor:DimensionOrderRouting",
    "VAL": "valiant:Valiant",
    "UGAL": "ugal:Ugal",
    "UGAL+": "closad:ClosAD",
    "MIN-AD": "minad:MinAdaptive",
    "ROMM": "minimal_oblivious:Romm",
    "O1Turn": "minimal_oblivious:RandomDimOrder",
    "DimWAR": "dimwar:DimWAR",
    "OmniWAR": "omniwar:OmniWAR",
    "OmniWAR-b2b": "omniwar:OmniWAR",
    "FTHX": "fthx:FTHX",
    "VCFree": "vcfree:VCFreeRouting",
}

#: keyword arguments a registered variant is built with when the caller
#: passes none (caller keywords replace them)
_PRESETS: dict[str, dict[str, object]] = {
    "OmniWAR-b2b": {"restrict_back_to_back": True},
}

#: names whose factory accepts caller keyword arguments
_TAKES_KWARGS = ("OmniWAR", "OmniWAR-b2b", "UGAL", "FTHX")

#: the paper's Figure 6 / Figure 8 line-up (Table 2)
PAPER_ALGORITHMS = ("DOR", "VAL", "UGAL", "UGAL+", "DimWAR", "OmniWAR")

#: Table 2 descriptions
ALGORITHM_DESCRIPTIONS: dict[str, str] = {
    "DOR": "Dimension Order Routing",
    "VAL": "Valiant's Randomized Routing",
    "UGAL": "Universal Global Adaptive Load-balancing",
    "UGAL+": "UGAL optimized for HyperX (Clos-AD without seq. allocation)",
    "MIN-AD": "Minimal Adaptive Routing",
    "ROMM": "Randomized Oblivious Minimal (two-phase, minimal quadrant)",
    "O1Turn": "Per-packet random dimension order, minimal oblivious",
    "DimWAR": "Dimensionally-ordered Weighted Adaptive Routing (Sec 5.1)",
    "OmniWAR": "Omni-dimensional Weighted Adaptive Routing (Sec 5.2)",
    "OmniWAR-b2b": "OmniWAR with back-to-back same-dimension deroutes restricted",
    "FTHX": "Fault-tolerant adaptive + escape subnetwork (arXiv 2404.04315)",
    "VCFree": "VC-free deadlock-free full-mesh routing (HOTI'25)",
}


def algorithm_names() -> list[str]:
    return sorted(_FACTORIES)


def make_algorithm(name: str, topology: "HyperX", **kwargs) -> "RoutingAlgorithm":
    try:
        path = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {algorithm_names()}"
        ) from None
    if kwargs and name not in _TAKES_KWARGS:
        raise ValueError(f"{name} takes no extra arguments")
    module, attr = path.split(":")
    factory = getattr(importlib.import_module(f"{__package__}.{module}"), attr)
    return factory(topology, **(kwargs or _PRESETS.get(name, {})))


def fault_capable_names() -> list[str]:
    """Registered algorithms the fault experiments accept.

    Fault-capable means the algorithm masks failed ports in
    ``candidates()`` (``fault_aware``) when constructed on a
    ``DegradedTopology`` — the precondition of every ``repro faults``
    run.  Probed on a tiny throwaway topology so the list can never
    drift from the registry.
    """
    from ..faults.degraded import DegradedTopology
    from ..topology.hyperx import HyperX

    probe = DegradedTopology(HyperX((2, 2), 1))
    return [
        name for name in algorithm_names()
        if make_algorithm(name, probe).fault_aware
    ]


def table1_rows(num_dims: int = 3) -> list[dict[str, object]]:
    """Regenerate the paper's Table 1 (implementation comparison).

    ``N`` in the OmniWAR row is the number of network dimensions; ``M`` its
    deroute budget.  DAL is included from its published description — it is
    analysed (:mod:`repro.core.dal_analysis`) but not simulatable without
    escape paths.
    """
    from ..topology.hyperx import HyperX

    hx = HyperX((2,) * num_dims, 1)
    rows = []
    for name in ("UGAL", "UGAL+", "DimWAR", "OmniWAR"):
        algo = make_algorithm(name, hx)
        row = algo.describe()
        if name == "UGAL+":
            row["name"] = "Clos-AD"
            row["architecture_requirements"] = "seq. alloc."
        rows.append(row)
    rows.insert(
        2,
        {
            "name": "DAL",
            "dimension_ordered": False,
            "routing_style": "incremental",
            "vcs_required": "1+1e",
            "deadlock_handling": "escape paths",
            "architecture_requirements": "escape paths",
            "packet_contents": "N-bit field",
        },
    )
    return rows
