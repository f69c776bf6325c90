"""The cycle engine.

Each simulated cycle has two phases:

1. **deliver** — credits due this cycle are restored into their trackers,
   and every channel hands over flits whose pipeline latency has elapsed;
2. **compute** — every router steps its pipeline and every terminal injects /
   ejects, pushing new items onto channels (which arrive >= 1 cycle later).

The two-phase structure makes the simulation independent of component
iteration order for correctness (order only affects tie-breaking) and
guarantees nothing traverses two channels in one cycle.

Only *active* components are visited each cycle: channels register
themselves in the network's activity set on the empty->busy push transition,
and routers/terminals are woken by flit delivery or packet offers.  Drained
channels and components that step to idle are dropped from the sets, so a
quiet network costs almost nothing per cycle — the activity-tracking trick
that keeps a pure-Python cycle simulator usable (see DESIGN.md, performance
notes).

:meth:`Simulator.run` is the chunked fast path: the per-cycle loop lives in
one frame with the activity sets bound to locals, instead of paying a method
call and attribute re-resolution per cycle.  :meth:`Simulator.step` is just
``run(1)``.

Hook points: anything callable with ``(cycle)`` can be registered as a
*process* via :meth:`Simulator.add_process` — traffic generators, the
application engine, the fault injector, and the runtime sanitizer
(:class:`repro.check.Sanitizer`) all attach this way.  Processes run at the
start of every compute phase, after channel deliveries have settled, which
is a consistency point: every credit consume/restore and buffer push/pop
pair has completed, so cross-component invariants (flit conservation,
credit reconciliation) hold exactly.  An unregistered hook costs nothing —
the run loop touches only the registered list.

On top of the activity sets, the run loop *compresses* runs of inert
cycles: when no terminal is active and every process answers
``next_wakeup`` (the clock contract, :mod:`repro.network.skip`), the clock
jumps straight to the earliest cycle at which anything can happen instead
of iterating the gap.  A process that does not answer is woken every cycle;
nothing else selects the stepping, and ``skip_active`` /
``skip_fallback_reason`` report it.  Results are byte-identical either way
(the skip-on-vs-off oracle in ``repro.check`` proves it), so compression is
invisible except in wall-clock time.  :meth:`Simulator.run` is the only
code that advances the clock: ``run_until``, the shard workers and the
phase profiler all call it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .skip import next_event_bound, skip_fallback_reason

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

#: Bound-search horizon for :meth:`Simulator.next_event_cycle` — far enough
#: that any real schedule beats it; "nothing before the horizon" reads as
#: "no computable event" (None).
_HORIZON = 1 << 62


class Simulator:
    """Drives a :class:`~repro.network.network.Network` cycle by cycle."""

    #: Vestigial constants: the struct-of-arrays twin engine was removed
    #: (no end-to-end win, see docs/PERFORMANCE.md).  Kept only because the
    #: frozen end-to-end harness (benchmarks/e2e) reads them; branch on
    #: neither.
    soa_active = False
    soa_fallback_reason = "engine removed: the object datapath is the only one"

    def __init__(self, network: "Network"):
        self.network = network
        self.cycle = 0
        #: callables invoked at the start of every compute phase with
        #: ``(cycle)``; traffic generators and the application engine hook here
        self.processes: list[Callable[[int], None]] = []

    @property
    def skip_fallback_reason(self) -> str | None:
        """Why ``run()`` executes every cycle with the processes registered
        right now (:func:`repro.network.skip.skip_fallback_reason`), or
        None when it compresses inert ones."""
        return skip_fallback_reason(self.processes)

    @property
    def skip_active(self) -> bool:
        return self.skip_fallback_reason is None

    # ------------------------------------------------------------------

    def add_process(self, proc: Callable[[int], None]) -> Callable[[int], None]:
        """Register ``proc`` to run at the start of every compute phase.

        This is the simulator's generic hook point (see the module
        docstring for the consistency guarantees at the call site).
        Returns ``proc`` so attach-and-keep reads naturally.
        """
        self.processes.append(proc)
        return proc

    def remove_process(self, proc: Callable[[int], None]) -> None:
        """Unregister a process added with :meth:`add_process`."""
        self.processes.remove(proc)

    # ------------------------------------------------------------------

    def step(self) -> None:
        self.run(1)

    def run(self, cycles: int) -> None:
        """Advance the simulation by ``cycles`` cycles.

        Inert cycles are compressed (:mod:`repro.network.skip`) unless a
        registered process has no ``next_wakeup`` — asked once per call, so
        an observer attached mid-stream takes effect on the next ``run()``.
        """
        network = self.network
        calendar = network._calendar
        mask = len(calendar) - 1
        active_channels = network._active_channels
        active_terminals = network._active_terminals
        active_routers = network._active_routers
        processes = self.processes
        skip = skip_fallback_reason(processes) is None
        cycle = self.cycle
        end = cycle + cycles
        drained: list = []  # reusable deferred-deletion scratch
        while cycle < end:
            # Phase 1: deliveries, credits then flits.  Channels pushed
            # during this cycle register for *later* cycles (latency >= 1),
            # and no sink pushes onto another channel, so the set can be
            # iterated directly with drained channels removed after the
            # pass.  This is the one channel delivery loop.
            bucket = calendar[cycle & mask]
            if bucket:
                for tracker, vc in bucket:
                    tracker.restore(vc)
                bucket.clear()
            if active_channels:
                for ch in active_channels:
                    # _next_ready is a conservative lower bound on the head
                    # item's delivery cycle (see Channel): most busy
                    # channels are skipped on one int compare instead of a
                    # pipe peek.
                    if ch._next_ready > cycle:
                        continue
                    pipe = ch._pipe
                    while pipe and pipe[0][0] <= cycle:
                        ch._sink(pipe.popleft()[1])
                    if pipe:
                        ch._next_ready = pipe[0][0]
                    else:
                        drained.append(ch)
                if drained:
                    for ch in drained:
                        del active_channels[ch]
                    drained.clear()
            # Phase 2: compute.
            for proc in processes:
                proc(cycle)
            if active_terminals:
                # Snapshot: a delivery listener may wake another terminal
                # mid-iteration (it then runs from the next cycle on).
                # Idle checks are inlined (the properties showed up in
                # loaded-cycle profiles).
                for t in list(active_terminals):
                    t.step(cycle)
                    if (
                        t._arrived is None
                        and not t.source_queue
                        and t._active_packet is None
                    ):
                        active_terminals.pop(t, None)
            if active_routers:
                # Nothing inserts into the router set during the compute
                # phase (flit sinks run in phase 1), so iterate directly.
                for r in active_routers:
                    r.step(cycle)
                    if not r._active_in and not r._active_out:
                        drained.append(r)
                if drained:
                    for r in drained:
                        del active_routers[r]
                    drained.clear()
            cycle += 1
            self.cycle = cycle
            # Cycle skip-ahead (repro.network.skip): with no terminal
            # active, jump straight to the earliest cycle at which anything
            # can happen.  Loaded cycles pay one falsy test here.
            if skip and not active_terminals and cycle < end:
                bound = next_event_bound(network, processes, cycle, end)
                if bound > cycle:
                    cycle = bound
                    self.cycle = bound

    def next_event_cycle(self) -> int | None:
        """Earliest cycle at (or after) ``self.cycle`` at which the
        simulation can change state, or None when no bound is computable.

        The same bound ``run()`` jumps to, under the same rule: None means
        either "unknown" (a registered process has no ``next_wakeup``, so
        ``run()`` would execute every cycle) or "nothing scheduled" (a
        fully idle simulation); callers must treat both as "assume
        anything may happen".
        """
        cycle = self.cycle
        network = self.network
        if network._active_terminals:
            return cycle
        processes = self.processes
        if skip_fallback_reason(processes) is not None:
            return None
        far = cycle + _HORIZON
        bound = next_event_bound(network, processes, cycle, far)
        return bound if bound < far else None

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int,
        check_every: int = 64,
    ) -> bool:
        """Run until ``predicate()`` is true, returning False on timeout
        without re-evaluating the predicate.

        **Predicate contract.**  The predicate must be a function of
        *simulation state* (queue contents, counters, quiescence …), not of
        the raw cycle number: it is evaluated at every *advanced-to* cycle
        boundary — every ``check_every`` cycles while events are dense, and
        exactly at the next event (per :meth:`next_event_cycle`) when the
        next event lies beyond the grid — never at each integer cycle in
        between.  Skipped boundaries are provably inert, so a state
        predicate cannot change value across one; a predicate on the bare
        cycle number may be observed only on the evaluation grid:

        >>> from repro.config import SimConfig
        >>> from repro.core.registry import make_algorithm
        >>> from repro.network.network import Network
        >>> from repro.topology.hyperx import HyperX
        >>> topo = HyperX((2,), 1)
        >>> net = Network(topo, make_algorithm("DOR", topo), SimConfig())
        >>> sim = Simulator(net)
        >>> sim.run_until(lambda: sim.cycle >= 100, max_cycles=1000)
        True
        >>> sim.cycle  # idle net: seen on the check_every=64 grid, not at 100
        128

        With a process that has no ``next_wakeup`` registered (a sanitized
        run) there is no bound to stretch to, and the predicate is
        evaluated on the ``check_every`` grid alone: the run may *stop* up
        to one grid step later than a compressed one (on the same state
        when nothing happens once the predicate holds, as in a drain).
        """
        deadline = self.cycle + max_cycles
        if max_cycles <= 0:
            return predicate()
        while self.cycle < deadline:
            target = min(self.cycle + check_every, deadline)
            nxt = self.next_event_cycle()
            if nxt is not None and nxt > target:
                # Nothing can happen before nxt: stretch the chunk so the
                # next evaluation lands on a boundary where state moved.
                target = min(nxt, deadline)
            self.run(target - self.cycle)
            if predicate():
                return True
        return False

    def drain(self, max_cycles: int = 1_000_000) -> bool:
        """Run until the network is empty of traffic (no new injections)."""
        return self.run_until(self.network.quiescent, max_cycles)
