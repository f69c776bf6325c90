"""Event-compressing scheduler: cycle skip-ahead.

The activity sets (:mod:`repro.network.network`) make an idle cycle cheap;
this module makes runs of idle cycles *free* by not executing them at all.
After each executed cycle, when no terminal is active, the engine asks
:func:`next_event_bound` for the earliest future cycle at which anything can
happen and advances the clock straight there.  The bound is the min over
lower bounds the simulator already maintains for other reasons:

* ``Channel._next_ready`` — the earliest cycle a busy channel's head item
  can deliver (exact after any delivery pass, conservative after a push);
* the credit calendar's earliest non-empty bucket (exact);
* ``Router._stage_ready[port]`` — the earliest cycle an output port with
  staged payload can emit (earliest staged head still in the crossbar, or
  the end of a degraded link's ``min_gap`` window); staging onto an empty
  port sets it to the flit's crossbar exit, so it is already tight when
  asked (the router's own ``_out_wake`` is the min of these over its
  active ports and arms its output pass the same way);
* process wakeups — the clock contract below.

**The clock contract.**  A process is a callable ``(cycle)`` that *may*
answer ``next_wakeup(cycle) -> int | None``: the earliest cycle at (or
after) ``cycle`` at which calling it could change simulation state, or
``None`` for "never again".  A process that does not answer is woken every
cycle, and so is everything else: one such process (the runtime sanitizer,
a bare function) puts the whole run on per-cycle stepping.
:func:`skip_fallback_reason` is that rule, and the only place it is tested;
``Simulator.run``, ``Simulator.next_event_cycle`` (hence ``run_until`` and
the shard workers) and the ``Simulator.skip_active`` /
``skip_fallback_reason`` properties all ask it.  Traffic generators scan
their Bernoulli draws ahead (in exact per-cycle RNG order — see
:mod:`repro.traffic.injection`), the fault injector and the trace replay
report their next scheduled event, the time-series sampler its next window
boundary, and the stencil application "now" while it has sends to make.

Every bound is *conservative*: a stale-low value (e.g. ``_stage_ready``
zeroed by ``Network.invalidate_route_caches``) merely vetoes the jump for
one cycle, after which the executed pass refreshes it.  Landing early is
always safe — the engine re-checks and re-jumps — so correctness never
depends on a bound being tight.

Two veto rules keep the executed-cycle state in lockstep with per-cycle
stepping:

* a router with any *awake* active input VC may compute routes or forward
  on the very next cycle, so it pins the bound to "now";
* a router holding an ``_active_out`` entry whose staged count is zero is
  one step away from dropping out of the activity sets; it is stepped (not
  skipped over) so ``Network.quiescent`` flips on the same cycle under
  both modes.

Nothing else selects the stepping: there is no marker attribute and no
configuration switch.  The ``skip-on-vs-off`` differential oracle in
``python -m repro check`` replays a sweep plain (compressed) and sanitized
(per-cycle) and demands byte-identical curves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network


def skip_fallback_reason(processes: list[Callable[[int], None]]) -> str | None:
    """Why a run over ``processes`` must execute every cycle — it names the
    first process that does not answer ``next_wakeup`` — or None when every
    process bounds its next wakeup and inert cycles compress.

    One scan over the process list per ``run()`` call, so observers
    attached or detached between runs take effect immediately.
    """
    for proc in processes:
        if not callable(getattr(proc, "next_wakeup", None)):
            # Functions, lambdas and bound methods carry a __qualname__;
            # callable instances are named by their class.
            name = getattr(proc, "__qualname__", type(proc).__name__)
            return f"process {name} has no next_wakeup(): woken every cycle"
    return None


def next_event_bound(
    network: "Network",
    processes: list[Callable[[int], None]],
    cycle: int,
    end: int,
) -> int:
    """Earliest cycle in ``[cycle, end]`` at which anything can happen.

    ``cycle`` is the next cycle the engine would execute; a return value of
    ``cycle`` means "this cycle must run" (no jump), a value ``B > cycle``
    means cycles ``cycle .. B-1`` are provably inert and the clock may move
    straight to ``B``.  The caller guarantees no terminal is active.

    The result is a conservative lower bound built from state the simulator
    maintains anyway (see the module docstring); each contributing bound at
    or below ``cycle`` short-circuits to an immediate veto.
    """
    bound = end
    for ch in network._active_channels:
        nr = ch._next_ready
        if nr < bound:
            if nr <= cycle:
                return cycle
            bound = nr
    calendar = network._calendar
    mask = len(calendar) - 1
    for due in range(cycle, min(bound, cycle + mask + 1)):
        if calendar[due & mask]:
            if due == cycle:
                return cycle
            bound = due
            break
    for r in network._active_routers:
        ai = r._active_in
        # An awake input VC may route or forward next cycle: veto.  (All
        # asleep = the input pass is a no-op until a credit delivery —
        # already bounded by its calendar bucket — wakes one.)
        if ai and len(r._asleep) < len(ai):
            return cycle
        if r._active_out:
            staged_count = r._staged_count
            stage_ready = r._stage_ready
            for port in r._active_out:
                if staged_count[port] == 0:
                    # Cleanup pending: the next output pass drops this
                    # entry (and maybe the router) from the activity sets.
                    # Step it so quiescence flips on the per-cycle schedule.
                    return cycle
                sr = stage_ready[port]
                if sr < bound:
                    if sr <= cycle:
                        return cycle
                    bound = sr
    for proc in processes:
        w = proc.next_wakeup(cycle)
        if w is not None and w < bound:
            if w <= cycle:
                return cycle
            bound = w
    return bound
