"""Wall-clock phase profiling: where does `Simulator.run` time go?

:class:`PhaseProfiler` attributes host time to the simulator's phases —
link delivery, registered processes, terminal inject/eject, and within the
router step: route computation, VC allocation, and switch allocation /
output arbitration (the remainder of the router step is reported as
``router_other``: input bookkeeping and crossbar staging).  ``vc_alloc``
times ``Router._allocate_vc``, i.e. ejection-port VC allocation only: the
per-candidate VC scan of a routing decision is inlined in the router's
scoring loop and lands in ``route``, for every algorithm.

It works by (a) running its own copy of the two-phase cycle loop with
``perf_counter`` brackets around each phase, and (b) temporarily shadowing
each router's ``_compute_route`` / ``_allocate_vc`` / ``_step_outputs``
bound methods with timing wrappers.  The instrumentation itself costs real
time, so the absolute numbers are upper bounds — the *fractions* are the
useful output.  Detach restores every method, leaving the simulator
byte-identical in behaviour (timers never change results, only timing).

Example::

    >>> from repro.config import SimConfig
    >>> from repro.core.registry import make_algorithm
    >>> from repro.network.network import Network
    >>> from repro.network.simulator import Simulator
    >>> from repro.obs import PhaseProfiler
    >>> from repro.topology.hyperx import HyperX
    >>> from repro.traffic.injection import SyntheticTraffic
    >>> from repro.traffic.patterns import pattern_by_name
    >>> topo = HyperX((2, 2), 1)
    >>> net = Network(topo, make_algorithm("DimWAR", topo), SimConfig())
    >>> sim = Simulator(net)
    >>> sim.processes.append(SyntheticTraffic(net, pattern_by_name("UR", topo), 0.3, seed=1))
    >>> prof = PhaseProfiler(sim)
    >>> prof.run(300)
    >>> rep = prof.report()
    >>> sorted(rep) == sorted(PhaseProfiler.PHASES)
    True
    >>> rep["route"] >= 0.0 and abs(sum(rep.values()) - prof.total_s) < 1e-6
    True
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..network.simulator import Simulator

PHASES = ("link", "processes", "terminals", "route", "vc_alloc", "sa", "router_other")


class PhaseProfiler:
    """Phase-attributed wall-clock profiling of a simulator."""

    PHASES = PHASES

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.network = sim.network
        self.seconds = {p: 0.0 for p in PHASES}
        self.cycles_profiled = 0
        self._wrapped: list[tuple[object, str, object]] = []

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())

    # ------------------------------------------------------------------

    def _wrap_routers(self) -> None:
        sec = self.seconds
        for r in self.network.routers:
            for name, phase in (
                ("_compute_route", "route"),
                ("_allocate_vc", "vc_alloc"),
                ("_step_outputs", "sa"),
            ):
                # Remember whether the method was already shadowed on the
                # instance: unwrap must remove our shadow entirely (not
                # re-pin a bound method in the instance dict) so repeated
                # profiling leaves the router exactly as found.
                shadowed = name in r.__dict__
                orig = getattr(r, name)
                self._wrapped.append((r, name, orig if shadowed else None))
                setattr(r, name, _timed(orig, sec, phase))

    def _unwrap_routers(self) -> None:
        # Restore in reverse so stacked wraps (route calls vc_alloc) unwind.
        for obj, name, orig in reversed(self._wrapped):
            if orig is None:
                delattr(obj, name)
            else:
                setattr(obj, name, orig)
        self._wrapped.clear()

    # ------------------------------------------------------------------

    def run(self, cycles: int) -> None:
        """Advance the simulation ``cycles`` cycles, attributing host time.

        Behaviour-equivalent to :meth:`Simulator.run` — same two-phase
        order, same activity-set bookkeeping — with timers between phases.
        ``vc_alloc`` time is nested inside ``route`` at call time and
        subtracted out, so the reported phases are disjoint and sum to
        :attr:`total_s`.
        """
        sim = self.sim
        network = self.network
        self._wrap_routers()
        sec = self.seconds
        try:
            active_channels = network._active_channels
            active_terminals = network._active_terminals
            active_routers = network._active_routers
            processes = sim.processes
            cycle = sim.cycle
            end = cycle + cycles
            while cycle < end:
                t0 = perf_counter()
                if active_channels:
                    for ch in list(active_channels):
                        pipe = ch._pipe
                        while pipe and pipe[0][0] <= cycle:
                            ch._sink(pipe.popleft()[1])
                        if not pipe:
                            del active_channels[ch]
                t1 = perf_counter()
                sec["link"] += t1 - t0
                for proc in processes:
                    proc(cycle)
                t2 = perf_counter()
                sec["processes"] += t2 - t1
                if active_terminals:
                    for t in list(active_terminals):
                        t.step(cycle)
                        if t.idle:
                            active_terminals.pop(t, None)
                t3 = perf_counter()
                sec["terminals"] += t3 - t2
                r_route0 = sec["route"] + sec["vc_alloc"]
                r_sa0 = sec["sa"]
                if active_routers:
                    for r in list(active_routers):
                        r.step(cycle)
                        if r.idle:
                            active_routers.pop(r, None)
                t4 = perf_counter()
                inner = (sec["route"] + sec["vc_alloc"] - r_route0) + (sec["sa"] - r_sa0)
                sec["router_other"] += max(0.0, (t4 - t3) - inner)
                cycle += 1
                sim.cycle = cycle
                self.cycles_profiled += 1
        finally:
            self._unwrap_routers()

    # ------------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Seconds per phase (disjoint; sums to :attr:`total_s`)."""
        return dict(self.seconds)

    def format_report(self) -> str:
        total = self.total_s or 1.0
        lines = [
            f"{'phase':<14} {'seconds':>10} {'share':>7}",
        ]
        for p in PHASES:
            s = self.seconds[p]
            lines.append(f"{p:<14} {s:>10.4f} {s / total:>6.1%}")
        lines.append(
            f"{'total':<14} {self.total_s:>10.4f} over "
            f"{self.cycles_profiled} cycles"
        )
        return "\n".join(lines)


def _timed(fn, seconds: dict, phase: str):
    """Wrap ``fn`` so its wall-clock accumulates into ``seconds[phase]``.

    Nested timed calls double-count by construction; the profiler corrects
    the one nesting that exists (``vc_alloc`` inside ``route``) by keying
    both to the same bracket and subtracting at report time.
    """
    if phase == "route":
        # _compute_route calls _allocate_vc (itself timed): record the
        # *exclusive* time by subtracting the nested vc_alloc delta.
        def wrapper(*args, **kwargs):
            nested0 = seconds["vc_alloc"]
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                seconds[phase] += dt - (seconds["vc_alloc"] - nested0)
    else:
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[phase] += perf_counter() - t0
    return wrapper
