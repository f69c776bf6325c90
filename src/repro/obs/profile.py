"""Wall-clock phase profiling: where does `Simulator.run` time go?

:class:`PhaseProfiler` attributes host time to the simulator's phases —
link delivery, registered processes, terminal inject/eject, and within the
router step: route computation, VC allocation, and switch allocation /
output arbitration (the remainder of the router step is reported as
``router_other``: input bookkeeping and crossbar staging).  ``vc_alloc``
times ``Router._allocate_vc``, i.e. ejection-port VC allocation only: the
per-candidate VC scan of a routing decision is inlined in the router's
scoring loop and lands in ``route``, for every algorithm.

It times the production loop: :meth:`PhaseProfiler.run` temporarily shadows
``step`` on every terminal and router, each router's ``_compute_route`` /
``_allocate_vc`` / ``_step_outputs`` and every registered process with
timing wrappers, calls :meth:`Simulator.run` — skip-ahead, ``_next_ready``
fast path and all — and restores everything.  ``router_other`` is the
``Router.step`` time not spent in the three timed stages; ``link`` is the
remainder of the run's wall-clock: the delivery pass, the loop itself and
the skip-ahead bound computation.  The instrumentation itself costs real
time, so the absolute numbers are upper bounds — the *fractions* are the
useful output.  Timers never change results, only timing.

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

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())

    def run(self, cycles: int) -> None:
        """Advance the simulation ``cycles`` cycles through
        :meth:`Simulator.run`, attributing host time.

        The reported phases are disjoint and sum to :attr:`total_s`, the
        wall-clock of the ``Simulator.run`` calls (``vc_alloc`` is nested
        inside ``route`` at call time and subtracted out).
        """
        sim = self.sim
        run_s = dict.fromkeys(PHASES, 0.0)
        run_s["router_step"] = 0.0
        # (object, name, the instance attribute found there or None): the
        # restore must remove our shadow entirely, not re-pin a bound
        # method in the instance dict, so the objects end exactly as found.
        shadowed: list[tuple[object, str, object]] = []

        def shadow(obj, name: str, phase: str) -> None:
            shadowed.append((obj, name, obj.__dict__.get(name)))
            setattr(obj, name, _timed(getattr(obj, name), run_s, phase))

        processes = list(sim.processes)
        try:
            for t in self.network.terminals:
                shadow(t, "step", "terminals")
            for r in self.network.routers:
                shadow(r, "step", "router_step")
                shadow(r, "_compute_route", "route")
                shadow(r, "_allocate_vc", "vc_alloc")
                shadow(r, "_step_outputs", "sa")
            sim.processes[:] = [_timed_process(p, run_s) for p in processes]
            t0 = perf_counter()
            sim.run(cycles)
            wall = perf_counter() - t0
        finally:
            sim.processes[:] = processes
            for obj, name, orig in shadowed:
                if orig is None:
                    delattr(obj, name)
                else:
                    setattr(obj, name, orig)
        self.cycles_profiled += cycles
        staged = run_s["route"] + run_s["vc_alloc"] + run_s["sa"]
        run_s["router_other"] = max(0.0, run_s.pop("router_step") - staged)
        run_s["link"] = max(0.0, wall - sum(run_s.values()))
        for phase, s in run_s.items():
            self.seconds[phase] += s

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


def _timed_process(proc, seconds: dict):
    """A timed stand-in for a registered process that answers
    ``next_wakeup`` exactly when ``proc`` does, so the profiled run takes
    the stepping the plain run would."""
    timed = _timed(proc, seconds, "processes")
    timed.next_wakeup = getattr(proc, "next_wakeup", None)
    return timed


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
