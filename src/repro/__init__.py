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

Importing a package imports none of its modules: each package names its
exports once, in a table handed to :func:`lazy_exports`, and a name's
module is imported when the name is first read.

Quickstart::

    from repro import quick_simulation
    result = quick_simulation(algorithm="DimWAR", pattern="UR", rate=0.3)
    print(result.mean_latency)
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any


def lazy_exports(namespace: dict[str, Any], table: dict[str, str | None]) -> None:
    """Give the package whose globals are ``namespace`` the exports of ``table``.

    ``table`` maps each public name to its defining module, relative to the
    package (``".sweep"``, ``"..network.stats"``); ``None`` marks a name that
    is the package's own submodule of that name.  Installs ``__all__`` (the
    table's names, in order), the module-level ``__getattr__`` and
    ``__dir__``, and ``_EXPORTS`` (the table itself).
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if module is None:
            value = importlib.import_module(f".{name}", package)
        else:
            value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    namespace.update(
        __all__=list(table), __getattr__=__getattr__, __dir__=__dir__,
        _EXPORTS=table,
    )
    if any(module == f".{name}" for name, module in table.items()):
        sys.modules[package].__class__ = _ShadowingPackage


class _ShadowingPackage(ModuleType):
    """A package with an export named after the submodule that defines it
    (``repro.analysis.ascii_plot``).  The import system binds a freshly
    loaded submodule onto its package; here that binding stores the export
    instead, so the name means the same object whichever import came first.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if (
            isinstance(value, ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and self._EXPORTS.get(name) == f".{name}"
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


__version__ = "1.0.0"

lazy_exports(globals(), {
    "SimConfig": ".config",
    "default_config": ".config",
    "paper_scale": ".config",
    "HyperX": ".topology.hyperx",
    "regular_hyperx": ".topology.hyperx",
    "paper_hyperx": ".topology.hyperx",
    "make_algorithm": ".core.registry",
    "algorithm_names": ".core.registry",
    "PAPER_ALGORITHMS": ".core.registry",
    "FaultSet": ".faults.model",
    "DegradedTopology": ".faults.degraded",
    "random_link_faults": ".faults.model",
    "quick_simulation": ".analysis.parallel",
})
