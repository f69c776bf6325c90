"""FaultInjector: apply a fault schedule to a live network mid-run.

The injector is a simulator *process* (registered via
``Simulator.add_process``) that walks a :class:`~repro.faults.model.FaultSchedule`
and, when an event's cycle arrives, mutates the network's shared
:class:`~repro.faults.model.FaultState`:

* **link** / **router** events add the affected directed ports to
  ``failed_ports`` (bumping the epoch), then make the change take effect
  *now* rather than at the next cold route computation:

  - every router's memoized candidate cache is dropped
    (``Network.invalidate_route_caches``) so stale routes through the dead
    link cannot be replayed;
  - committed-but-unstarted routes through a failed port are revoked
    (``Router.revoke_unstarted_routes``) and recomputed next cycle.  Routes
    whose wormhole already started are *not* revoked — the flits drain over
    the physically-present channel (fail-stop at routing granularity,
    lossless drain);
  - routers that themselves failed are skipped by the revocation pass:
    packets already routed inside a dead router are allowed to drain.

* **degrade** events set ``Channel.min_gap`` on the affected output
  channels, throttling them to one flit per ``factor`` cycles; connectivity
  and routing are unchanged.

Example::

    >>> from repro.topology.hyperx import HyperX
    >>> from repro.faults import FaultSet, FaultSchedule, DegradedTopology
    >>> topo = DegradedTopology(HyperX((3, 3), 1))
    >>> sched = FaultSchedule.from_faultset(FaultSet().fail_link(0, 0), cycle=10)
    >>> [e.cycle for e in sched.sorted_events()]
    [10]
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .model import FaultSchedule

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network


class FaultInjector:
    """Applies a :class:`FaultSchedule` to ``network`` as a simulator process.

    The network must have been built on a
    :class:`~repro.faults.degraded.DegradedTopology` (so it carries a
    ``fault_state``); construction raises otherwise.
    """

    def __init__(self, network: "Network", schedule: FaultSchedule):
        state = getattr(network, "fault_state", None)
        if state is None:
            raise ValueError(
                "FaultInjector needs a network built on a DegradedTopology "
                "(Network.fault_state is missing)"
            )
        self.network = network
        self.state = state
        self.events = schedule.sorted_events()
        self._next = 0

    @property
    def done(self) -> bool:
        """True once every scheduled event has been applied."""
        return self._next >= len(self.events)

    def next_wakeup(self, cycle: int) -> int | None:
        """Cycle of the next unapplied event; None once the schedule is done.

        May return a cycle below ``cycle`` if an event is overdue (the
        engine never skips an executed cycle's call, so this only happens
        when the injector is registered after its first event's cycle);
        the skip engine treats a stale bound as "run the next cycle", at
        which point :meth:`__call__` catches up exactly as per-cycle
        stepping would.
        """
        if self._next >= len(self.events):
            return None
        return self.events[self._next].cycle

    def __call__(self, cycle: int) -> None:
        if self._next >= len(self.events) or self.events[self._next].cycle > cycle:
            return
        state = self.state
        touched: set[tuple[int, int]] = set()
        while self._next < len(self.events) and self.events[self._next].cycle <= cycle:
            ev = self.events[self._next]
            self._next += 1
            if ev.kind == "link":
                touched |= state.fail_link(ev.router, ev.port)
            elif ev.kind == "router":
                touched |= state.fail_router(ev.router)
            elif ev.kind == "degrade":
                for (r, p), gap in state.degrade_link(
                    ev.router, ev.port, ev.factor
                ).items():
                    # None holes are the unowned routers of a partial
                    # (sharded) build: the shard owning r throttles its own
                    # half; a boundary export's min_gap binds push-side, so
                    # the local write alone is exact.
                    router = self.network.routers[r]
                    if router is not None:
                        router.out_channels[p].min_gap = gap
            state.events_applied += 1
        if touched:
            self.network.invalidate_route_caches()
            by_router: dict[int, set[int]] = {}
            for r, p in touched:
                # Don't revoke routes inside a freshly-dead router: packets
                # already inside it are allowed to drain to their outputs.
                if r not in state.failed_routers:
                    by_router.setdefault(r, set()).add(p)
            for r, ports in by_router.items():
                router = self.network.routers[r]
                if router is None:
                    continue  # unowned router of a partial (sharded) build
                state.revoked_routes += router.revoke_unstarted_routes(ports)
