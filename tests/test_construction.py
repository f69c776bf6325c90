"""How a measured point is built: the built graph holds the simulator's state
and nothing else (channel sinks are bound methods of the per-port objects,
``Network.links`` is derived when read), per-VC queues exist only once a
flit has needed them, and ``frozen_build`` (``PointRun``,
``run_stencil_once``) owns the cyclic collector's state around the assembly
and closes the network on exit, so that a finished point is freed by
reference count — except a plain point's, which waits in the process's
one-slot pool until a point on another scenario closes it
(docs/PERFORMANCE.md, "Construction without the collector", "A built
network is its state" and "A plain point reuses the last point's
wiring")."""

import gc
import weakref
from collections import deque

import pytest

import repro.analysis.sweep as sweep
import repro.experiments.fig4_topologies as fig4_topologies
import repro.experiments.fig8_stencil as fig8_stencil
from repro.analysis.bench import tracked_objects
from repro.analysis.sweep import (
    PointRun, _empty_network_slot, measure_point, sweep_load,
)
from repro.config import default_config
from repro.core.base import NoRouteError
from repro.core.registry import algorithm_names, make_algorithm
from repro.experiments.faults import run_fault_transient
from repro.experiments.fig4_topologies import paper_cases
from repro.experiments.fig8_stencil import run_stencil_once
from repro.faults import (
    DegradedTopology, FaultEvent, FaultInjector, FaultSchedule, FaultSet,
)
from repro.network.buffers import NEVER_USED
from repro.network.network import BoundaryExport, Network
from repro.network.simulator import Simulator
from repro.network.types import Flit, Packet
from repro.obs import TraceOptions
from repro.topology.hyperx import HyperX
from repro.traffic.patterns import UniformRandom


def _scenario(widths=(4, 4), tpr=2):
    topo = HyperX(widths, tpr)
    return topo, make_algorithm("DimWAR", topo), UniformRandom(topo.num_terminals)


def _queues(net):
    """Every queue of ``net``: channel pipes, input fifos, staging and
    terminal source queues."""
    for ch in net.channels:
        yield ch._pipe
    for r in net.routers:
        yield from r.fifos
        for per_port in r.staged:
            yield from per_port
    for t in net.terminals:
        yield t.source_queue


@pytest.fixture
def networks_seen(monkeypatch):
    """Watch every ``Network`` that ``PointRun``, ``run_stencil_once`` and
    a Fig 4 point build: at each build's entry, is its predecessor still
    resident?  The probe is a router of the graph the build wired (router
    -> channel -> bound sink -> peer input unit -> peer router).  That graph
    is cyclic while it runs; leaving its ``frozen_build`` block calls
    ``Network.close``, which drops the back-references, and it dies by
    reference count once its last holder lets go.  A plain point's network
    is closed when the next build on another scenario evicts it from the
    slot, which starts (and ends) empty here."""
    _empty_network_slot()
    seen = []

    def recording(*args, **kwargs):
        predecessor_alive = bool(seen) and seen[-1][0]() is not None
        net = Network(*args, **kwargs)
        seen.append((weakref.ref(net.routers[0]), predecessor_alive))
        return net

    for module in (sweep, fig8_stencil, fig4_topologies):
        monkeypatch.setattr(module, "Network", recording)
    yield seen
    _empty_network_slot()


def _live_deques():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is deque)


def test_fresh_network_holds_no_deque():
    topo, algo, _ = _scenario()
    before = _live_deques()
    net = Network(topo, algo, default_config())
    assert _live_deques() == before  # a census, whatever _queues() knows of
    queues = list(_queues(net))
    assert queues and all(q is NEVER_USED for q in queues)
    assert net.flits_in_flight() == 0 and net.quiescent()


def test_channel_names_are_formatted_when_read():
    topo, algo, _ = _scenario()  # 4x4, t=2: router 0 port 0 <-> router 1 port 0
    net = Network(topo, algo, default_config())
    assert all(type(ch._name) is tuple for ch in net.channels)  # parts, no str
    r0, r1, t0 = net.routers[0], net.routers[1], net.terminals[0]
    t_port = topo.terminal_port(0)
    assert r0.out_channels[0].name == "r0p0->r1"
    assert t0.inject_channel.name == "t0->r0"
    assert r0.out_channels[t_port].name == "r0->t0"
    shard = Network(topo, algo, default_config(), owned_routers={0})
    assert shard.boundary_out[("d", 0, 0)].name == "r0p0->shard"
    assert shard.boundary_in[("d", 1, 0)].name == "shard->r0p0"
    # A shard edge's credit ends are calendar targets, not channels: the
    # export its router files credits toward, the tracker imports restore.
    export = shard.boundary_out[("c", 0, 0)]
    assert type(export) is BoundaryExport and export.key == ("c", 0, 0)
    assert shard.routers[0]._credit_return[0] is export
    assert shard.boundary_in[("c", 1, 0)] is shard.routers[0].credit_trackers[0]
    assert export.latency == default_config().network.channel_latency_rr
    with pytest.raises(RuntimeError, match="r0p0->r1.*pushed twice in cycle 3"):
        r0.out_channels[0].push(3, None)
        r0.out_channels[0].push(3, None)


def test_append_on_a_never_used_queue_raises():
    topo, algo, _ = _scenario()
    r = Network(topo, algo, default_config()).routers[0]
    with pytest.raises(AttributeError):
        r.fifos[0].append(None)
    with pytest.raises(AttributeError):
        r.staged[0][0].append(None)


def test_loaded_run_materialises_exactly_the_used_queues():
    topo, algo, pattern = _scenario()
    with PointRun(topo, algo, pattern, 0.5, check=True) as run:
        run.run(400)
        run.close("unused")  # the sanitizer's final audit
        net = run.net
        assert net.total_ejected_flits() > 0
        queues = list(_queues(net))
        assert all(isinstance(q, deque) for q in queues if q)
        used = sum(1 for q in queues if q is not NEVER_USED)
        assert 0 < used < len(queues)
        for r in net.routers:
            for key in r._active_in:
                assert type(r.fifos[key]) is deque
            for fifo, route in zip(r.fifos, r.routes):
                if fifo is NEVER_USED:
                    assert route is None


def test_a_built_8x8x8_holds_its_state_and_nothing_else():
    """The census of a fresh 8x8x8 t=1 build (the paper's 512 routers): under
    115k GC-tracked objects (109,209 that the network reaches; the figures
    below listed the collector's generations instead, which also counted
    the ~680 objects numpy makes on first use, 109,882 here) — 438,553
    when every channel sink was a closure over per-port cells and every
    input VC a ``VcState`` object, 177,677 while every credit path was a
    ``Channel`` with a bound sink, 154,939 while each output port kept a
    credit-waiter list and a preresolved output-pass tuple, 131,899 while
    each input port kept its own fifo and route lists — and no cell or
    function per port (11,264 router ports here)."""
    topo = HyperX((8, 8, 8), 1)
    algo = make_algorithm("DimWAR", topo)
    census = tracked_objects(lambda: Network(topo, algo, default_config()))
    assert census.total() < 115_000, census.most_common(8)
    assert census["cell"] + census["function"] < topo.num_routers


def test_one_queue_per_vc_whichever_way_a_flit_arrives():
    """The wired sink and ``InputUnit.receive`` write the router's one
    table, so a VC fed through both reads one consistent queue."""
    topo = HyperX((2, 2), 1)
    net = Network(topo, make_algorithm("DimWAR", topo), default_config())
    src, dst = net.terminals[0], net.terminals[3]
    port = topo.terminal_port(0)
    r, unit = net.routers[0], net.routers[0].inputs[port]
    pkt = Packet(0, 3, size=2, create_cycle=0)
    head, tail = Flit(pkt, 0), Flit(pkt, 1)
    src.inject_credits.consume(0)  # the two slots the flits occupy
    src.inject_credits.consume(0)
    src.inject_channel._sink((0, head))  # wired sink: wakes router 0
    unit.receive(0, tail)
    assert list(r.fifos[port * r.num_vcs]) == [head, tail]
    assert r._active_in == [port * r.num_vcs]
    Simulator(net).run(200)
    assert dst.flits_ejected == 2 and pkt.eject_cycle is not None
    assert src.inject_credits.occupied_total == 0


def _reference_links(net):
    """(kind, src, dst) per credit loop, walked the way ``_wire`` wires."""
    want = []
    for r, router in enumerate(net.routers):
        if router is None:
            continue
        for port, peer in net.topology.router_ports(r):
            rp = peer.router_port
            if peer.is_router and net.routers[rp.router] is not None:
                want.append(("rr", (r, port), (rp.router, rp.port)))
            elif peer.is_terminal:
                want.append(("inj", peer.terminal, (r, port)))
                want.append(("ej", (r, port), peer.terminal))
    return want


@pytest.mark.parametrize("owned", [None, {0, 1, 5}])
def test_links_are_read_off_the_wiring(owned):
    """Each record is one credit loop: its tracker is the credit target of
    the downstream end, at the hop's latency."""
    topo = DegradedTopology(
        HyperX((4, 4), 2), FaultSet().fail_link(0, 0).fail_router(6)
    )
    cfg = default_config()
    lat_rr, lat_rt = cfg.network.channel_latency_rr, cfg.network.channel_latency_rt
    net = Network(topo, make_algorithm("DimWAR", topo), cfg, owned_routers=owned)
    assert "links" not in vars(net)  # nothing built until read
    want = _reference_links(net)
    links = net.links
    assert links is net.links
    assert [(rec.kind, rec.src, rec.dst) for rec in links] == want
    for rec in links:
        if rec.kind == "inj":
            t, (r, port) = net.terminals[rec.src], rec.dst
            assert rec.tracker is t.inject_credits and rec.staged is None
            assert rec.data is t.inject_channel
            assert net.routers[r]._credit_return[port] is rec.tracker
            assert rec.tracker.latency == lat_rt
            assert rec.downstream is net.routers[r].inputs[port]
            continue
        (r, port), a = rec.src, net.routers[rec.src[0]]
        assert rec.tracker is a.credit_trackers[port]
        assert rec.staged is a.staged[port] and rec.data is a.out_channels[port]
        if rec.kind == "ej":
            t = net.terminals[rec.dst]
            assert t.eject_credits is rec.tracker
            assert rec.tracker.latency == lat_rt
            assert rec.downstream is t
        else:
            b, bp = net.routers[rec.dst[0]], rec.dst[1]
            assert b._credit_return[bp] is rec.tracker
            assert rec.tracker.latency == lat_rr
            assert rec.downstream is b.inputs[bp]


def test_a_link_failed_mid_run_keeps_its_record():
    """The map is the wiring, not the topology's current view: a port that
    fails mid-run is masked by the topology but still wired (its wormholes
    drain over it), so a first read after the fault still records it."""
    topo = DegradedTopology(HyperX((4, 4), 1))
    net = Network(topo, make_algorithm("DimWAR", topo), default_config())
    want = _reference_links(net)
    sim = Simulator(net)
    sim.add_process(FaultInjector(net, FaultSchedule([FaultEvent(5, "link", 0, port=0)])))
    sim.run(10)
    assert topo.faults.events_applied == 1 and "links" not in vars(net)
    assert [(rec.kind, rec.src, rec.dst) for rec in net.links] == want


@pytest.fixture
def collector_paused():
    """Pause the collector for the whole test, so that only reference
    counting frees what a closed point leaves and the test's own
    ``gc.collect()`` counts whatever is left (after a thaw, so that what an
    earlier test's pooled point left frozen is not counted here)."""
    was = gc.isenabled()
    gc.disable()
    _empty_network_slot()
    gc.collect()
    yield
    if was:
        gc.enable()


def _freed_by_refcount(networks_seen):
    """Every network built so far, closed when its block was left, is gone
    before any collection, and the collection then finds no cyclic
    garbage."""
    assert networks_seen
    assert [router() for router, _ in networks_seen] == [None] * len(networks_seen)
    assert gc.collect() == 0


def _no_cyclic_garbage(run):
    """Inside a point's block: collect once, ``run()``, and then the
    collector must find nothing — the precondition for keeping it paused
    for the point's whole life."""
    gc.collect()
    run()
    assert gc.collect() == 0


@pytest.mark.parametrize("name", algorithm_names())
def test_a_loaded_run_makes_no_cyclic_garbage(name, networks_seen, collector_paused):
    """Neither does a reset: the second point reuses the first one's
    network.  A point on another scenario then closes it, and it is freed
    by reference count before that point builds."""
    topo = HyperX((3, 3), 2)
    pattern = UniformRandom(topo.num_terminals)
    for _ in range(2):
        with PointRun(topo, make_algorithm(name, topo), pattern, 0.5) as run:
            _no_cyclic_garbage(lambda: run.run(200))
    del run
    assert len(networks_seen) == 1
    other = HyperX((3, 3), 1)
    measure_point(other, make_algorithm(name, other),
                  UniformRandom(other.num_terminals), 0.2, total_cycles=50)
    assert [alive for _, alive in networks_seen] == [False, False]
    assert _empty_network_slot() == 0
    _freed_by_refcount(networks_seen)


@pytest.mark.parametrize("observer", ["check", "trace", "faults"])
def test_an_observed_or_faulted_run_makes_no_cyclic_garbage(
    observer, networks_seen, collector_paused, tmp_path
):
    topo, algo, pattern = _scenario((3, 3))
    kwargs = {
        "check": {"check": True},
        "trace": {"trace": TraceOptions(window=50, out_dir=str(tmp_path))},
        "faults": {"schedule": FaultSchedule([FaultEvent(60, "link", 0, port=0)])},
    }[observer]
    if observer == "faults":
        topo = DegradedTopology(topo)
        algo = make_algorithm("DimWAR", topo)
    with PointRun(topo, algo, pattern, 0.5, **kwargs) as run:
        _no_cyclic_garbage(lambda: (run.run(200), run.close("garbage")))
    del run
    _freed_by_refcount(networks_seen)
    if observer == "faults":
        assert topo.faults.events_applied == 1


class _ProbedBuild(sweep.frozen_build):
    """A ``frozen_build`` that logs the collector's state on entry to and
    exit from the block it owns."""

    log: list = []

    def __enter__(self):
        self.log.append(("enter", gc.isenabled()))
        return super().__enter__()

    def __exit__(self, *exc):
        self.log.append(("exit", gc.isenabled()))
        super().__exit__(*exc)


class _GarbageProbe(_ProbedBuild):
    """... and holds that block to :func:`_no_cyclic_garbage`: collect on
    entry, log what a collection finds on exit."""

    def __enter__(self):
        gc.collect()
        return super().__enter__()

    def __exit__(self, *exc):
        self.log.append(("garbage", gc.collect()))
        super().__exit__(*exc)


@pytest.fixture
def probed_builds(monkeypatch):
    """Probe every ``frozen_build`` of a stencil bar or a Fig 4 point with
    the class this returns (``probe(cls)``); the log is shared."""
    monkeypatch.setattr(_ProbedBuild, "log", [])

    def probe(cls=_ProbedBuild):
        for module in (fig8_stencil, fig4_topologies):
            monkeypatch.setattr(module, "frozen_build", cls)
        return _ProbedBuild.log

    return probe


def test_a_stencil_bar_and_a_dragonfly_point_make_no_cyclic_garbage(
    probed_builds, networks_seen, collector_paused, monkeypatch
):
    log = probed_builds(_GarbageProbe)
    monkeypatch.setattr(
        fig4_topologies, "paper_cases",
        lambda sc: [c for c in paper_cases(sc) if c.name == "Dragonfly"],
    )
    assert run_stencil_once("DimWAR", "full", 1, "smoke") > 0
    assert fig4_topologies.run("smoke").times[("Dragonfly", 1)] > 0
    assert log == [("enter", False), ("garbage", 0), ("exit", False)] * 2
    _freed_by_refcount(networks_seen)


def test_a_closed_network_fails_loudly():
    """After its block, a network's routers and terminals are empty: a late
    read raises instead of answering zero.  Its own attributes stay, and
    the run holds no network."""
    topo, _, pattern = _scenario((3, 3))
    topo = DegradedTopology(topo)
    with PointRun(topo, make_algorithm("DimWAR", topo), pattern, 0.5) as run:
        run.run(100)
        net, router = run.net, run.net.routers[0]
        assert net.total_ejected_flits() > 0
    with pytest.raises(AttributeError):
        run.net
    with pytest.raises(AttributeError):
        net.total_ejected_flits()
    with pytest.raises(AttributeError):
        router.fifos
    assert net.fault_state is topo.faults and net.topology is topo


@pytest.mark.parametrize("caller_enabled", [True, False])
def test_callers_collector_state_survives(caller_enabled):
    """The collector is paused for a point's whole life, whatever the
    caller's state; every exit path restores that state.  A closing exit
    thaws and ages the run's survivors into the oldest generation; a
    pooling one leaves them frozen with the waiting network until the slot
    is emptied.  Either way the caller's next young-generation pass has
    nothing of the run's to walk."""
    topo, algo, pattern = _scenario((3, 3))
    threshold = gc.get_threshold()[0]
    was = gc.isenabled()
    try:
        gc.enable() if caller_enabled else gc.disable()
        measure_point(topo, algo, pattern, 0.5, total_cycles=300)
        assert gc.isenabled() is caller_enabled
        assert gc.get_freeze_count() > 0  # the waiting network
        assert gc.get_count()[0] < threshold
        _empty_network_slot()
        assert gc.get_freeze_count() == 0
        with pytest.raises(ZeroDivisionError):
            with PointRun(topo, algo, pattern, 0.5) as run:
                assert not gc.isenabled()
                run.run(300)
                assert not gc.isenabled()
                1 / 0
        assert gc.isenabled() is caller_enabled
        assert gc.get_freeze_count() == 0
        assert gc.get_count()[0] < threshold
    finally:
        gc.enable() if was else gc.disable()


def test_plain_points_leave_no_garbage_frozen():
    """A plain point's exit leaves the heap frozen, and the next build
    freezes again: cyclic garbage made between two plain points (here the
    pure-Python JSON encoder's closures) is collected by that build, not
    frozen with the waiting network until a closing exit thaws it."""
    topo, algo, pattern = _scenario((3, 3))
    _empty_network_slot()
    for _ in range(5):
        sweep_load(topo, algo, pattern, [0.1, 0.2], total_cycles=200).to_json()
    gc.collect()
    _empty_network_slot()
    assert gc.collect() == 0


def test_two_points_never_hold_two_networks(networks_seen):
    """A plain point on another scenario closes the waiting network before
    it builds; one on the same scenario builds nothing."""
    for widths in ((4, 4), (3, 3), (3, 3), (4, 4)):
        measure_point(*_scenario(widths), 0.2, total_cycles=100)
    assert [alive for _, alive in networks_seen] == [False, False, False]


def test_a_point_that_raises_leaves_no_frozen_network(
    networks_seen, collector_paused
):
    topo, algo, pattern = _scenario()
    broken = make_algorithm("DimWAR", topo)

    def no_candidates(ctx):
        raise NoRouteError("injected failure")

    broken.candidates = no_candidates
    with pytest.raises(NoRouteError):  # unbound: keeps no traceback alive
        # Traced: the tracer is never detached, so its wrapped sinks stay.
        measure_point(topo, broken, pattern, 0.5, total_cycles=100,
                      trace=TraceOptions())
    assert gc.get_freeze_count() == 0  # thawed on the failing exit path
    _freed_by_refcount(networks_seen)  # closed on the failing exit path
    measure_point(topo, algo, pattern, 0.2, total_cycles=100)
    assert [alive for _, alive in networks_seen] == [False, False]
    _empty_network_slot()
    assert gc.get_freeze_count() == 0


def test_fault_transient_thaws_when_it_closes():
    res = run_fault_transient(
        "DimWAR", scale="smoke", rate=0.1, window=50, pre_windows=1,
        post_windows=1, fail_links=1, fault_seed=7, seed=4,
    )
    assert res.drained
    assert gc.get_freeze_count() == 0


def test_two_stencil_bars_never_hold_two_networks(networks_seen):
    for mode in ("collective", "full"):
        assert run_stencil_once("DimWAR", mode, 1, "smoke") > 0
        assert gc.get_freeze_count() == 0
    measure_point(*_scenario(), 0.2, total_cycles=100)  # and across owners
    # A bar closes the plain point's waiting network before it builds.
    assert run_stencil_once("DimWAR", "collective", 1, "smoke") > 0
    assert gc.get_freeze_count() == 0
    assert [alive for _, alive in networks_seen] == [False] * 4


@pytest.mark.parametrize("caller_enabled", [True, False])
def test_a_stencil_bar_that_times_out_leaves_no_frozen_network(
    networks_seen, probed_builds, caller_enabled
):
    was = gc.isenabled()
    try:
        gc.enable() if caller_enabled else gc.disable()
        log = probed_builds()
        with pytest.raises(RuntimeError, match="did not finish within 10 cycles"):
            run_stencil_once("DimWAR", "full", 1, "smoke", max_cycles=10)
        assert gc.get_freeze_count() == 0  # thawed on the failing exit path
        assert gc.isenabled() is caller_enabled
        assert gc.get_count()[0] < gc.get_threshold()[0]  # and aged
        assert run_stencil_once("DimWAR", "full", 1, "smoke") > 0
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() is caller_enabled
        assert gc.get_count()[0] < gc.get_threshold()[0]
    finally:
        gc.enable() if was else gc.disable()
    assert [alive for _, alive in networks_seen] == [False, False]
    # Paused inside both bars' blocks, whatever the caller's state.
    assert log == [("enter", False), ("exit", False)] * 2
