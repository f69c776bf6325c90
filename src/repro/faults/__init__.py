"""Fault injection for degraded-topology routing experiments.

This package layers link/router failures and bandwidth degradation on top of
any :class:`~repro.topology.base.Topology` without modifying the topology
classes themselves:

* :mod:`repro.faults.model` — the declarative :class:`FaultSet`, the resolved
  runtime :class:`FaultState`, timestamped :class:`FaultSchedule` /
  :class:`FaultEvent`, and :func:`random_link_faults` /
  :func:`random_faults` samplers (connectivity-preserving by default);
* :mod:`repro.faults.degraded` — the :class:`DegradedTopology` wrapper whose
  ``peer`` / ``min_hops`` / ``validate`` reflect the surviving graph;
* :mod:`repro.faults.inject` — the :class:`FaultInjector` simulator process
  that applies scheduled faults mid-run (route-cache invalidation, unstarted-
  route revocation, channel throttling).

Routing algorithms see faults through their ``candidates()`` hook: the
HyperX algorithms mask failed output ports and fall back to deroutes or
monotone escape paths (see ``docs/FAULTS.md`` and docs/ALGORITHMS.md,
"Behaviour under faults").

Example::

    >>> from repro.topology.hyperx import HyperX
    >>> from repro.faults import DegradedTopology, random_link_faults
    >>> base = HyperX((4, 4), 2)
    >>> fset = random_link_faults(base, k=3, seed=7)
    >>> topo = DegradedTopology(base, fset)
    >>> topo.faults.describe()["failed_links"]
    3
    >>> topo.validate()
"""

from .. import lazy_exports

lazy_exports(globals(), {
    "DegradedLink": ".model",
    "DegradedTopology": ".degraded",
    "FaultEvent": ".model",
    "FaultInjector": ".inject",
    "FaultSchedule": ".model",
    "FaultSet": ".model",
    "FaultState": ".model",
    "LinkFault": ".model",
    "RouterFault": ".model",
    "random_faults": ".model",
    "random_link_faults": ".model",
})
