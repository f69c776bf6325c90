"""Tests for the event-compressing engine (repro.network.skip).

Cycle skip-ahead is a pure optimisation: the clock jumps over provably
inert cycles, and nothing measurable may move.  These tests pin that
contract:

* the clock contract — compression is on by default, and the one
  fallback trigger (a process that does not answer ``next_wakeup``: a bare
  function, the sanitizer) cleanly reverts to per-cycle stepping with a
  human-readable reason;
* compression — an idle simulation really does execute a handful of
  cycles per ``run()`` chunk (counted via a probe process);
* equivalence — fixed scenarios, Hypothesis-drawn topologies/loads/fault
  schedules, drains, sampler windows, and the golden-trace scenario all
  fingerprint identically compressed vs per-cycle (no switch selects the
  stepping, so the per-cycle arm registers a no-op process without
  ``next_wakeup`` — what the sanitizer is);
* the router's armed output pass under a mid-run ``min_gap`` rewrite —
  held to the per-port reference (``output_pass_audit``) and to the
  sanitized per-cycle run;
* ``next_event_cycle()`` — idempotent, never behind the clock, and exact
  for scheduled fault events;
* ``run_until`` — stretches to the next event when compressing, evaluates
  on the ``check_every`` grid otherwise, and reaches the same drained
  state either way (the documented predicate contract);
* ``PhaseProfiler`` — times ``Simulator.run`` itself and leaves no trace.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.registry import make_algorithm
from repro.faults import DegradedTopology
from repro.faults.inject import FaultInjector
from repro.faults.model import FaultEvent, FaultSchedule
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.skip import skip_fallback_reason
from repro.topology.hyperx import HyperX
from repro.traffic.injection import BurstyTraffic, SyntheticTraffic
from repro.traffic.patterns import UniformRandom
from repro.traffic.sizes import UniformSize


class _EveryCycle:
    """No-op process without ``next_wakeup``: registering it is what puts
    a ``run()`` on per-cycle stepping, exactly as the sanitizer does."""

    def __call__(self, cycle):
        pass


def _build(
    widths=(4, 4),
    tpr=1,
    algo="OmniWAR",
    rate=0.3,
    seed=1,
    skip=True,
    degraded=False,
    bursty=False,
):
    topo = HyperX(widths, tpr)
    if degraded:
        topo = DegradedTopology(topo)
    net = Network(topo, make_algorithm(algo, topo), default_config(seed=0))
    sim = Simulator(net)
    cls = BurstyTraffic if bursty else SyntheticTraffic
    kwargs = {} if bursty else {"size_dist": UniformSize(1, 8)}
    sim.processes.append(
        cls(net, UniformRandom(topo.num_terminals), rate, seed=seed, **kwargs)
    )
    if not skip:
        sim.add_process(_EveryCycle())
    return sim


def _drained(sim):
    """The fingerprint minus the stop cycle: a per-cycle ``run_until``
    evaluates on the ``check_every`` grid and may stop a little later than
    a compressed one, on the same (empty) network."""
    state = _fingerprint(sim)
    del state["cycle"]
    return state


def _fingerprint(sim):
    """Full observable counter state — any compression bug lands here."""
    net = sim.network
    traffic = sim.processes[0] if sim.processes else None
    returning = net.credits_returning()
    return {
        "cycle": sim.cycle,
        "generated": (
            (traffic.packets_generated, traffic.flits_generated)
            if traffic is not None
            else None
        ),
        "injected": net.total_injected_flits(),
        "ejected": net.total_ejected_flits(),
        "in_flight": net.flits_in_flight(),
        "backlog": net.total_backlog_flits(),
        "terminals": [
            (t.flits_injected, t.flits_ejected, t.packets_delivered)
            for t in net.terminals
        ],
        "routers": [
            (
                r.flits_forwarded,
                r.routes_computed,
                r.route_stalls,
                r.route_cache_hits,
                r._jitter_idx,
            )
            for r in net.routers
        ],
        "channels": sorted(
            (rec.label, rec.data.utilization_count) for rec in net.links
        ),
        # The calendar's census: credits returning per (link, VC).
        "returning": sorted(
            (rec.label, vc, returning[rec.tracker, vc])
            for rec in net.links
            for vc in range(net.cfg.router.num_vcs)
            if returning[rec.tracker, vc]
        ),
        "credits": [
            [tuple(tr.credits) for tr in r.credit_trackers if tr is not None]
            for r in net.routers
        ],
    }


class _CycleProbe:
    """Probe counting executed compute phases (no wakeup of its own, so it
    never blocks a jump)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, cycle):
        self.calls += 1

    def next_wakeup(self, cycle):
        return None


# ---------------------------------------------------------------------------
# The clock contract and its one fallback
# ---------------------------------------------------------------------------


def test_skip_active_by_default():
    sim = _build()
    assert skip_fallback_reason(sim.processes) is None
    assert sim.skip_active  # a property of the process list, not of a run
    sim.run(50)
    assert sim.skip_active
    assert sim.skip_fallback_reason is None


def test_unsafe_process_falls_back():
    class Watcher:  # no next_wakeup -> woken every cycle
        def __call__(self, cycle):
            pass

    sim = _build()
    sim.add_process(Watcher())
    sim.run(50)
    assert not sim.skip_active
    assert "Watcher" in sim.skip_fallback_reason
    assert "next_wakeup" in sim.skip_fallback_reason


def test_fallback_reason_names_functions_by_qualname():
    def watch_every_cycle(cycle):
        pass

    sim = _build()
    sim.add_process(watch_every_cycle)
    sim.run(10)
    assert "watch_every_cycle" in sim.skip_fallback_reason
    sim.remove_process(watch_every_cycle)
    sim.add_process(lambda cycle: None)
    sim.run(10)
    assert "<lambda>" in sim.skip_fallback_reason


def test_sanitizer_falls_back():
    from repro.check.sanitizer import Sanitizer

    sim = _build()
    Sanitizer(sim).attach()
    sim.run(50)
    assert not sim.skip_active
    assert "Sanitizer" in sim.skip_fallback_reason


def test_fallback_rechecked_per_run():
    """Attaching/detaching an incompatible process flips the mode between
    run() calls."""
    sim = _build()
    sim.run(10)
    assert sim.skip_active
    watcher = sim.add_process(lambda cycle: None)  # plain function: unsafe
    sim.run(10)
    assert not sim.skip_active
    sim.remove_process(watcher)
    sim.run(10)
    assert sim.skip_active


def test_tracer_hooks_do_not_force_skip_fallback():
    """The tracer attaches router hooks but registers no
    process, so compressed runs keep ticking it — proven byte-identical by
    test_golden_trace_identical_under_skip below."""
    from repro.obs import TraceOptions
    from repro.obs.tracer import Tracer

    sim = _build()
    Tracer(sim, TraceOptions(sample_every=1)).attach()
    sim.run(50)
    assert sim.skip_active  # hooks leave compression eligible


# ---------------------------------------------------------------------------
# Compression actually happens
# ---------------------------------------------------------------------------


def test_idle_network_executes_almost_no_cycles():
    topo = HyperX((4, 4), 2)
    net = Network(topo, make_algorithm("DOR", topo), default_config(seed=0))
    sim = Simulator(net)
    probe = sim.add_process(_CycleProbe())
    sim.run(10_000)
    assert sim.cycle == 10_000  # the clock still lands exactly
    assert probe.calls <= 2  # ... but almost nothing executed


def test_low_load_executes_only_event_cycles():
    sim = _build(widths=(3, 3), algo="DimWAR", rate=0.002)
    probe = sim.add_process(_CycleProbe())
    sim.run(5_000)
    assert sim.cycle == 5_000
    # Executed cycles are bounded by (events x per-event settle work), far
    # below the simulated span at this rate.
    assert probe.calls < 2_500


def test_skip_off_executes_every_cycle():
    sim = _build(skip=False)
    probe = sim.add_process(_CycleProbe())
    sim.run(500)
    assert probe.calls == 500


def test_stencil_collective_skips_quiet_cycles_at_paper_latency():
    """The application engine answers next_wakeup: over the paper's
    50-cycle channels (a Scale named "paper" selects them) a latency-bound
    collective executes far fewer compute phases than cycles elapse.  The
    execution time itself is pinned by tests/golden/stencil_times.json."""
    import dataclasses

    from repro.application.engine import StencilApplication
    from repro.application.placement import RandomPlacement
    from repro.application.stencil import StencilDecomposition
    from repro.experiments.common import SCALES

    sc = dataclasses.replace(SCALES["smoke"], name="paper")
    topo = sc.topology()
    net = Network(topo, make_algorithm("DimWAR", topo), sc.sim_config())
    sim = Simulator(net)
    decomp = StencilDecomposition(sc.stencil_ranks, sc.stencil_aggregate_flits)
    placement = RandomPlacement(decomp.num_ranks, topo.num_terminals, seed=5)
    app = StencilApplication(net, decomp, placement, iterations=2, mode="collective")
    probe = sim.add_process(_CycleProbe())
    t = app.run(sim)
    assert sim.skip_active and sim.skip_fallback_reason is None
    assert probe.calls < t * 0.7
    assert app.next_wakeup(sim.cycle) is None  # done: nothing left to post


# ---------------------------------------------------------------------------
# Bit-exact equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algo", ["DOR", "DimWAR", "OmniWAR", "UGAL"])
@pytest.mark.parametrize("rate", [0.01, 0.3])
def test_skip_matches_per_cycle(algo, rate):
    a = _build(algo=algo, rate=rate, skip=True)
    b = _build(algo=algo, rate=rate, skip=False)
    a.run(400)
    b.run(400)
    assert a.skip_active and not b.skip_active
    assert _fingerprint(a) == _fingerprint(b)


def test_drain_identical_under_skip():
    """stop() + drain must reach the same quiescent state either way."""
    results = []
    for skip in (True, False):
        sim = _build(widths=(3, 3), algo="DimWAR", rate=0.2, skip=skip)
        sim.run(300)
        sim.processes[0].stop()
        assert sim.drain(max_cycles=100_000)
        results.append(_drained(sim))
    assert results[0] == results[1]


def test_mode_alternation_mid_stream():
    """Attaching / detaching a per-cycle observer between run() calls must
    not perturb the stream."""
    alternating = _build(rate=0.05, skip=True)
    reference = _build(rate=0.05, skip=False)
    every_cycle = _EveryCycle()
    for chunk in range(6):
        if chunk % 2:
            alternating.add_process(every_cycle)
        alternating.run(100)
        assert alternating.skip_active == (chunk % 2 == 0)
        if chunk % 2:
            alternating.remove_process(every_cycle)
    reference.run(600)
    assert _fingerprint(alternating) == _fingerprint(reference)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    topo_spec=st.sampled_from(
        [((3,), 2), ((2, 2), 2), ((3, 3), 1), ((2, 3), 2), ((2, 2, 2), 1)]
    ),
    algo=st.sampled_from(["DOR", "VAL", "UGAL+", "DimWAR", "OmniWAR-b2b"]),
    rate=st.sampled_from([0.005, 0.1, 0.4]),
    seed=st.integers(0, 100),
    bursty=st.booleans(),
)
def test_skip_equivalence_property(topo_spec, algo, rate, seed, bursty):
    widths, tpr = topo_spec
    kw = dict(widths=widths, tpr=tpr, algo=algo, rate=rate, seed=seed, bursty=bursty)
    a = _build(skip=True, **kw)
    b = _build(skip=False, **kw)
    a.run(300)
    b.run(300)
    assert a.skip_active and not b.skip_active
    assert _fingerprint(a) == _fingerprint(b)


# ---------------------------------------------------------------------------
# Faults, sampler windows, golden traces under compression
# ---------------------------------------------------------------------------

_FAULTS = [
    FaultEvent(120, "link", 0, port=1),
    FaultEvent(180, "degrade", 2, port=0, factor=6),
    FaultEvent(250, "link", 4, port=2),
]


def _faulted(skip: bool, rate: float = 0.02):
    sim = _build(
        widths=(4, 4), algo="OmniWAR", rate=rate, skip=skip, degraded=True
    )
    sim.processes.append(FaultInjector(sim.network, FaultSchedule(list(_FAULTS))))
    return sim


@pytest.mark.parametrize("rate", [0.02, 0.35])
def test_fault_injection_identical_under_skip(rate):
    a, b = _faulted(True, rate), _faulted(False, rate)
    a.run(500)
    b.run(500)
    assert a.skip_active and not b.skip_active
    state = a.network.fault_state
    assert state.events_applied == len(_FAULTS)
    assert state.revoked_routes == b.network.fault_state.revoked_routes
    assert _fingerprint(a) == _fingerprint(b)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    fault_cycles=st.lists(st.integers(10, 400), min_size=1, max_size=3),
    rate=st.sampled_from([0.01, 0.2]),
    seed=st.integers(0, 50),
)
def test_fault_schedule_equivalence_property(fault_cycles, rate, seed):
    """Drawn fault schedules land on their exact cycles under compression."""
    events = [
        FaultEvent(c, "degrade", (i * 3) % 9, port=0, factor=4)
        for i, c in enumerate(sorted(fault_cycles))
    ]
    prints = []
    for skip in (True, False):
        sim = _build(
            widths=(3, 3), algo="DimWAR", rate=rate, seed=seed,
            skip=skip, degraded=True,
        )
        sim.processes.append(
            FaultInjector(sim.network, FaultSchedule(list(events)))
        )
        sim.run(450)
        assert sim.network.fault_state.events_applied == len(events)
        prints.append(_fingerprint(sim))
    assert prints[0] == prints[1]


@pytest.mark.parametrize("arbiter", ["age", "round_robin"])
def test_min_gap_rewrite_with_flits_staged_strands_nothing(
    arbiter, output_pass_audit
):
    """Degrade, then restore, both links out of the one sending router
    while flits wait on them inside the ``min_gap`` window.  The restore
    shares its cycle with a link failure elsewhere, so
    ``invalidate_route_caches`` must reset the wake bound derived from the
    old ``min_gap``: no output pass sleeps through a flit that could leave,
    nothing is stranded, and the run equals the sanitized per-cycle one."""
    from dataclasses import replace

    from repro.check.sanitizer import Sanitizer

    events = [FaultEvent(20, "degrade", 0, port=p, factor=40) for p in (0, 1)]
    events += [FaultEvent(90, "degrade", 0, port=p, factor=1) for p in (0, 1)]
    events.append(FaultEvent(90, "link", 1, port=1))  # r1 <-> r2: carries nothing
    prints = []
    for sanitized in (False, True):
        topo = DegradedTopology(HyperX((3,), 2))
        cfg = default_config(seed=0)
        cfg = replace(cfg, router=replace(cfg.router, arbiter=arbiter))
        net = Network(topo, make_algorithm("DOR", topo), cfg)
        sim = Simulator(net)
        traffic = SyntheticTraffic(
            net, UniformRandom(topo.num_terminals), 0.5, seed=2,
            size_dist=UniformSize(1, 8), sources=[0],
        )
        sim.processes.append(traffic)
        sim.processes.append(FaultInjector(net, FaultSchedule(list(events))))
        sanitizer = Sanitizer(sim).attach() if sanitized else None
        assert sim.skip_active is not sanitized
        sim.run(90)  # the restore lands on the next executed cycle
        r0 = net.routers[0]
        assert all(r0.out_channels[p].min_gap == 40 for p in (0, 1))
        assert all(r0._staged_count[p] for p in (0, 1))  # waiting in the window
        if arbiter == "age":  # ... with the pass asleep until it would end
            assert r0._out_wake > sim.cycle
        sim.run(1)
        assert all(r0.out_channels[p].min_gap == 1 for p in (0, 1))
        assert net.fault_state.events_applied == len(events)
        sim.run(60)
        traffic.stop()
        assert sim.drain(max_cycles=200_000)
        assert net.total_injected_flits() == net.total_ejected_flits() > 0
        if sanitizer is not None:
            sanitizer.final_check(require_quiescent=True)
        prints.append(_drained(sim))
    assert prints[0] == prints[1]


def test_sampler_windows_exact_under_skip():
    """The time-series sampler is skip-safe: window boundaries are landed
    on exactly, so compressed and per-cycle series are identical."""
    from repro.obs import TimeSeriesSampler

    series = []
    for skip in (True, False):
        sim = _build(widths=(3, 3), algo="DimWAR", rate=0.01, skip=skip)
        sampler = TimeSeriesSampler(sim, window=70).attach()
        sim.run(500)
        sampler.finalize(sim.cycle)
        sampler.detach()
        series.append(sampler.samples)
        assert [s.end - s.start for s in sampler.samples[:-1]] == [70] * 7
    assert series[0] == series[1]


def test_golden_trace_identical_under_skip(monkeypatch):
    """The tracer (router hooks + listeners, no process) must observe a
    compressed run byte-identically: same events, same cycles, same bytes."""
    from repro.obs import golden

    on = golden.golden_jsonl("DimWAR")

    class PerCycleSimulator(Simulator):
        def __init__(self, network):
            super().__init__(network)
            self.add_process(_EveryCycle())

        def run(self, cycles):
            super().run(cycles)
            assert not self.skip_active

    monkeypatch.setattr(golden, "Simulator", PerCycleSimulator)
    off = golden.golden_jsonl("DimWAR")
    assert on == off


# ---------------------------------------------------------------------------
# next_event_cycle
# ---------------------------------------------------------------------------


def test_next_event_cycle_idempotent_and_ahead_of_clock():
    sim = _build(widths=(3, 3), algo="DimWAR", rate=0.05)
    for _ in range(40):
        first = sim.next_event_cycle()
        second = sim.next_event_cycle()
        assert first == second  # scanning buffers, it must not re-draw
        assert first is None or first >= sim.cycle
        sim.run(13)


def test_next_event_cycle_monotone_while_inert():
    """Between executed events the bound never moves backwards."""
    sim = _build(widths=(3, 3), algo="DimWAR", rate=0.001, seed=3)
    last = 0
    for _ in range(60):
        nxt = sim.next_event_cycle()
        if nxt is not None:
            assert nxt >= last
            last = nxt
        sim.run(7)
        last = max(last, sim.cycle)


def test_next_event_cycle_sees_scheduled_faults():
    topo = DegradedTopology(HyperX((3, 3), 1))
    net = Network(topo, make_algorithm("DimWAR", topo), default_config(seed=0))
    sim = Simulator(net)
    sim.add_process(
        FaultInjector(
            net, FaultSchedule([FaultEvent(150, "degrade", 0, port=0, factor=4)])
        )
    )
    assert sim.next_event_cycle() == 150
    sim.run(150)
    # event not yet applied (fires in cycle 150's compute phase): due now
    assert sim.next_event_cycle() == 150
    sim.run(1)
    assert sim.next_event_cycle() is None  # schedule done, network idle


def test_next_event_cycle_unknown_process_returns_none():
    sim = _build()
    sim.add_process(lambda cycle: None)  # no next_wakeup: unknowable
    assert sim.next_event_cycle() is None


# ---------------------------------------------------------------------------
# run_until under compressed time
# ---------------------------------------------------------------------------


def test_run_until_evaluates_on_advanced_boundaries():
    """With the next event beyond the check grid, a compressing run
    stretches the chunk to the event; one holding an every-cycle process
    has no bound to stretch to and evaluates on the grid alone."""
    stops = []
    for skip in (True, False):
        topo = DegradedTopology(HyperX((3, 3), 1))
        net = Network(
            topo, make_algorithm("DimWAR", topo), default_config(seed=0)
        )
        sim = Simulator(net)
        inj = FaultInjector(
            net, FaultSchedule([FaultEvent(150, "degrade", 0, port=0, factor=4)])
        )
        sim.add_process(inj)
        if not skip:
            sim.add_process(_EveryCycle())
        assert sim.run_until(lambda: inj.done, max_cycles=10_000)
        assert net.fault_state.events_applied == 1
        stops.append(sim.cycle)
    # Compressed: one stretched chunk to the event at 150, then one
    # 64-cycle chunk in which it fires.  Per-cycle: the grid, 64/128/192.
    assert stops == [214, 192]


def test_run_until_drain_reaches_same_state_both_modes():
    drained = []
    for skip in (True, False):
        sim = _build(widths=(3, 3), algo="DimWAR", rate=0.1, skip=skip, seed=9)
        sim.run(200)
        sim.processes[0].stop()
        assert sim.drain(max_cycles=100_000)
        drained.append(_drained(sim))
    assert drained[0] == drained[1]


# ---------------------------------------------------------------------------
# The phase profiler times the production loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rate", [0.005, 0.3])  # a run that jumps, a loaded one
def test_phase_profiler_runs_the_production_loop(rate, monkeypatch):
    from repro.obs import PhaseProfiler

    plain = _build(rate=rate)
    plain.run(400)

    profiled = _build(rate=rate)
    probe = profiled.add_process(_CycleProbe())
    calls = []
    run = Simulator.run

    def recording_run(self, cycles):
        calls.append(cycles)
        run(self, cycles)

    monkeypatch.setattr(Simulator, "run", recording_run)
    prof = PhaseProfiler(profiled)
    prof.run(400)
    assert calls == [400]  # Simulator.run is what advanced the clock
    assert prof.cycles_profiled == 400
    assert (probe.calls < 400) == (rate < 0.1)  # ... jumping where it can
    assert profiled.processes[1] is probe
    profiled.remove_process(probe)
    assert _fingerprint(profiled) == _fingerprint(plain)
    # Nothing survives: every shadow is gone from the instance dicts and
    # the process list holds the original objects.
    net = profiled.network
    for obj in (*net.routers, *net.terminals):
        assert not {"step", "_compute_route", "_allocate_vc", "_step_outputs"} & set(
            vars(obj)
        )
    assert type(profiled.processes[0]) is type(plain.processes[0])
