"""Tests for the fault-injection subsystem (repro.faults).

Covers the fault model (FaultSet resolution, schedules, random sampling),
the DegradedTopology invariants (peer symmetry, min_hops on the surviving
graph, validate()), deadlock freedom of the fault-aware algorithms with
masked ports, mid-run injection mechanics (route revocation, degraded
bandwidth), and the acceptance scenario of docs/FAULTS.md: an 8x8 HyperX
with three failed links still delivers 100% of its traffic.
"""

import json
import math

import pytest

from repro.config import SimConfig
from repro.core.base import NoRouteError
from repro.core.deadlock import assert_deadlock_free
from repro.core.registry import make_algorithm
from repro.experiments.faults import run_fault_transient
from repro.faults import (
    DegradedTopology,
    FaultInjector,
    FaultSchedule,
    FaultSet,
    random_faults,
    random_link_faults,
)
from repro.faults.model import FaultEvent
from repro.network.buffers import VcRoute
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.stats import PacketStats
from repro.network.types import Flit, Packet
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.hyperx import HyperX
from repro.topology.torus import Torus
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import UniformRandom
from repro.traffic.sizes import UniformSize


# ---------------------------------------------------------------------------
# Fault model
# ---------------------------------------------------------------------------


def test_fail_link_is_symmetric():
    topo = HyperX((3, 3), 1)
    state = FaultSet().fail_link(0, 0).resolve(topo)
    assert (0, 0) in state.failed_ports
    peer = topo.peer(0, 0).router_port
    assert (peer.router, peer.port) in state.failed_ports
    assert len(state.failed_ports) == 2
    assert state.num_failed_links == 1
    assert state.active


def test_fail_router_expands_every_port():
    topo = HyperX((3, 3), 1)
    state = FaultSet().fail_router(4).resolve(topo)
    assert state.failed_routers == {4}
    # Every router-facing port of 4 is dead in both directions.
    for port, peer in topo.router_ports(4):
        assert (4, port) in state.failed_ports
        if peer.is_router:
            rp = peer.router_port
            assert (rp.router, rp.port) in state.failed_ports


def test_faultset_is_chainable_and_iterable():
    fset = FaultSet().fail_link(0, 0).fail_router(3).degrade_link(1, 0, 4)
    assert len(fset) == 3
    kinds = {type(f).__name__ for f in fset}
    assert kinds == {"LinkFault", "RouterFault", "DegradedLink"}


def test_degrade_does_not_bump_epoch():
    topo = HyperX((3, 3), 1)
    state = FaultSet().resolve(topo)
    e0 = state.epoch
    state.degrade_link(0, 0, 4)
    assert state.epoch == e0  # connectivity unchanged
    state.fail_link(0, 0)
    assert state.epoch > e0


# ---------------------------------------------------------------------------
# DegradedTopology invariants
# ---------------------------------------------------------------------------


def test_degraded_peer_missing_but_base_untouched():
    base = HyperX((3, 3), 1)
    topo = DegradedTopology(base, FaultSet().fail_link(0, 0))
    assert topo.peer(0, 0).is_missing
    peer = base.peer(0, 0).router_port
    assert topo.peer(peer.router, peer.port).is_missing
    assert not base.peer(0, 0).is_missing  # the base topology is pristine
    topo.validate()


def test_degraded_rejects_nesting():
    base = HyperX((2, 2), 1)
    with pytest.raises(TypeError):
        DegradedTopology(DegradedTopology(base))


def test_min_hops_reflects_surviving_graph():
    base = HyperX((3, 3), 1)
    # Fail the direct 0<->1 link: minimal distance grows from 1 to 2.
    topo = DegradedTopology(base, FaultSet().fail_link(0, 0))
    assert base.min_hops(0, 1) == 1
    assert topo.min_hops(0, 1) == 2
    assert topo.min_hops(0, 0) == 0


def test_min_hops_inf_for_partitioned_pairs():
    base = HyperX((2, 2), 1)
    # Router 0 has exactly two lateral links (one per dimension); failing
    # both isolates it from the rest of the network.
    topo = DegradedTopology(base, FaultSet().fail_link(0, 0).fail_link(0, 1))
    for other in (1, 2, 3):
        assert math.isinf(topo.min_hops(0, other))
        assert math.isinf(topo.min_hops(other, 0))
    assert topo.min_hops(1, 3) < math.inf
    topo.validate()  # symmetric even when partitioned


def test_validate_catches_hand_broken_asymmetry():
    base = HyperX((3, 3), 1)
    topo = DegradedTopology(base)
    # Break the invariant by failing only one direction of a link.
    topo.faults.failed_ports.add((0, 0))
    with pytest.raises(AssertionError):
        topo.validate()


def test_min_hops_cache_invalidated_on_new_faults():
    base = HyperX((3, 3), 1)
    topo = DegradedTopology(base)
    assert topo.min_hops(0, 1) == 1  # populates the BFS cache
    topo.faults.fail_link(0, 0)  # bumps the epoch
    assert topo.min_hops(0, 1) == 2


def test_random_link_faults_preserve_connectivity():
    base = HyperX((4, 4), 2)
    fset = random_link_faults(base, 5, seed=3)
    topo = DegradedTopology(base, fset)
    assert topo.faults.num_failed_links == 5
    for dst in range(base.num_routers):
        assert topo.min_hops(0, dst) < math.inf
    topo.validate()


def test_random_faults_deterministic_per_seed():
    base = HyperX((4, 4), 1)
    a = random_link_faults(base, 3, seed=11).resolve(base)
    b = random_link_faults(base, 3, seed=11).resolve(base)
    assert a.failed_ports == b.failed_ports


# ---------------------------------------------------------------------------
# Topology.validate() peer symmetry — all five topologies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "topo",
    [
        HyperX((3, 3), 2),
        Torus((3, 3), 1, wrap=True),
        Torus((3, 3), 1, wrap=False),  # mesh
        FatTree(4, 2),
        Dragonfly(p=1, a=3, h=2),
    ],
    ids=["hyperx", "torus", "mesh", "fattree", "dragonfly"],
)
def test_validate_bidirectional_peer_symmetry(topo):
    topo.validate()


# ---------------------------------------------------------------------------
# Deadlock freedom with masked ports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["DOR", "DimWAR", "OmniWAR", "FTHX", "VCFree"]
)
def test_fault_aware_routing_deadlock_free(name):
    base = HyperX((3, 3), 1)
    topo = DegradedTopology(base, random_link_faults(base, 2, seed=5))
    assert_deadlock_free(topo, make_algorithm(name, topo))


def test_fthx_keeps_class_budget_under_faults():
    """FTHX never grows VCs on failure — the escape subnetwork is always
    provisioned, unlike DOR's fault-triggered fallback class."""
    base = HyperX((3, 3), 1)
    pristine = make_algorithm("FTHX", base)
    degraded = make_algorithm("FTHX", DegradedTopology(base))
    assert pristine.num_classes == degraded.num_classes == 6


def test_dor_gains_fallback_class_under_faults():
    base = HyperX((3, 3), 1)
    pristine = make_algorithm("DOR", base)
    degraded = make_algorithm("DOR", DegradedTopology(base))
    assert pristine.num_classes == 1
    assert degraded.num_classes == 2


# ---------------------------------------------------------------------------
# Static faults end-to-end (the acceptance scenario)
# ---------------------------------------------------------------------------


def _run_static(topo, algo_name, cycles=400, rate=0.05, seed=2):
    algo = make_algorithm(algo_name, topo)
    net = Network(topo, algo, SimConfig())
    sim = Simulator(net)
    traffic = SyntheticTraffic(
        net, UniformRandom(topo.num_terminals), rate, seed=seed
    )
    sim.processes.append(traffic)
    stats = PacketStats()
    for t in net.terminals:
        t.delivery_listeners.append(stats.on_delivery)
    sim.run(cycles)
    traffic.stop()
    drained = sim.drain(max_cycles=200_000)
    return traffic.packets_generated, stats.packets_delivered, drained


@pytest.mark.parametrize("name", ["DimWAR", "OmniWAR", "FTHX"])
def test_8x8_three_failed_links_full_delivery(name):
    base = HyperX((8, 8), 2)
    topo = DegradedTopology(base, random_link_faults(base, 3, seed=7))
    injected, delivered, drained = _run_static(topo, name)
    assert injected > 0
    assert drained
    assert delivered == injected


@pytest.mark.parametrize("name", ["DOR", "VCFree"])
def test_8x8_delivers_or_reports_unreachable(name):
    """DOR and VCFree have narrower escape envelopes than the adaptive
    schemes: a fault pattern may make some pair unroutable within their
    discipline, in which case the run must *report* NoRouteError — never
    hang."""
    base = HyperX((8, 8), 2)
    topo = DegradedTopology(base, random_link_faults(base, 3, seed=7))
    try:
        injected, delivered, drained = _run_static(topo, name)
    except NoRouteError:
        return  # explicitly reported, never hangs
    assert drained
    assert delivered == injected


def test_vcfree_small_static_faults_deliver_or_report():
    base = HyperX((3, 3), 1)
    topo = DegradedTopology(base, random_link_faults(base, 1, seed=3))
    try:
        injected, delivered, drained = _run_static(topo, "VCFree", cycles=300)
    except NoRouteError:
        return
    assert injected > 0
    assert drained
    assert delivered == injected


def test_static_router_fault_excluding_its_terminals():
    base = HyperX((3, 3), 2)
    topo = DegradedTopology(base, FaultSet().fail_router(4))
    algo = make_algorithm("OmniWAR", topo)
    net = Network(topo, algo, SimConfig())
    sim = Simulator(net)
    alive = [t for t in range(base.num_terminals) if t // 2 != 4]
    from repro.traffic.patterns import UniformRandomSubset

    traffic = SyntheticTraffic(
        net,
        UniformRandomSubset(base.num_terminals, alive),
        0.05,
        seed=2,
        sources=alive,
    )
    sim.processes.append(traffic)
    stats = PacketStats()
    for t in net.terminals:
        t.delivery_listeners.append(stats.on_delivery)
    sim.run(400)
    traffic.stop()
    assert sim.drain(max_cycles=100_000)
    assert stats.packets_delivered == traffic.packets_generated
    # A detached terminal refuses offered traffic loudly.
    with pytest.raises(RuntimeError):
        net.terminals[8].offer(Packet(8, 0, 1, create_cycle=0))


# ---------------------------------------------------------------------------
# Mid-run injection
# ---------------------------------------------------------------------------


def test_injector_requires_degraded_network():
    base = HyperX((2, 2), 1)
    net = Network(base, make_algorithm("DOR", base), SimConfig())
    sched = FaultSchedule([FaultEvent(10, "link", 0, port=0)])
    with pytest.raises(ValueError):
        FaultInjector(net, sched)


def test_mid_run_recovery_transient():
    res = run_fault_transient(
        "DimWAR",
        scale="smoke",
        rate=0.1,
        window=100,
        pre_windows=2,
        post_windows=4,
        fail_links=2,
        fault_seed=7,
        seed=4,
    )
    assert res.routing_error is None
    assert res.drained
    assert res.delivered_fraction == 1.0
    st = res.settling_time()
    assert st is not None and st >= 0  # finite recovery
    assert res.fault_counters["events_applied"] == 2
    assert res.fault_counters["failed_links"] == 2
    assert res.fault_counters["masked_candidates"] > 0


def test_mid_run_router_failure_recovery():
    res = run_fault_transient(
        "OmniWAR",
        scale="smoke",
        rate=0.1,
        window=100,
        pre_windows=2,
        post_windows=4,
        fail_links=0,
        fail_routers=1,
        fault_seed=3,
        seed=4,
    )
    assert res.routing_error is None
    assert res.drained
    assert res.delivered_fraction == 1.0
    assert res.fault_counters["failed_routers"] == 1


def test_degraded_bandwidth_schedule_sets_min_gap_and_drains():
    base = HyperX((2, 2), 1)
    topo = DegradedTopology(base)
    net = Network(topo, make_algorithm("DimWAR", topo), SimConfig())
    sim = Simulator(net)
    sched = FaultSchedule([FaultEvent(50, "degrade", 0, port=0, factor=4)])
    sim.processes.append(FaultInjector(net, sched))
    traffic = SyntheticTraffic(net, UniformRandom(4), 0.2, seed=1)
    sim.processes.append(traffic)
    stats = PacketStats()
    for t in net.terminals:
        t.delivery_listeners.append(stats.on_delivery)
    sim.run(300)
    traffic.stop()
    assert sim.drain(max_cycles=50_000)
    assert net.routers[0].out_channels[0].min_gap == 4
    assert stats.packets_delivered == traffic.packets_generated
    assert topo.faults.events_applied == 1


def _craft_unstarted_route(r, create_cycle=0):
    """A committed-but-unstarted route on router ``r``: a 2-flit packet for
    terminal 3 whose head is still first in input (0, 0), routed to output
    (1, 0)."""
    pkt = Packet(0, 3, size=2, create_cycle=create_cycle)
    pkt.hops = 1
    unit = r.inputs[0]
    unit.receive(0, Flit(pkt, 0))
    unit.receive(0, Flit(pkt, 1))
    r.routes[0] = VcRoute(1, 0)  # input (0, 0), flat key 0
    r.out_vc_owner[1][0] = 0  # held by input (0, 0)
    return pkt, r.routes


def test_revoke_unstarted_routes_direct():
    base = HyperX((2, 2), 1)
    topo = DegradedTopology(base)
    net = Network(topo, make_algorithm("DimWAR", topo), SimConfig())
    r = net.routers[0]
    pkt, routes = _craft_unstarted_route(r)

    assert r.revoke_unstarted_routes({1}) == 1
    assert routes[0] is None
    assert r.out_vc_owner[1][0] is None
    assert pkt.hops == 0  # telemetry un-counted
    assert (0, 0) in r.active_input_keys()  # re-woken for rerouting

    # A started wormhole (head flit already forwarded) must drain, not revoke.
    pkt2 = Packet(0, 3, size=2, create_cycle=0)
    pkt2.hops = 1
    r.inputs[0].receive(1, Flit(pkt2, 1))  # body flit at the FIFO head
    routes[1] = VcRoute(1, 1)  # input (0, 1), flat key 1
    assert r.revoke_unstarted_routes({1}) == 0
    assert routes[1] is not None
    assert pkt2.hops == 1


def test_revoked_route_recovers_credit_exact():
    """A revoked route recovers through a live simulation, credit-exactly.

    Route commit requires a free output VC with at least one credit, so the
    head flit always forwards in the same pass and committed-but-unstarted
    routes never persist to a cycle boundary on their own — like the direct
    test above this crafts one by hand, then lets the run loop recover: the
    re-woken input recomputes (the revoked VcRoute is gone, so nothing of
    the dead wormhole can be reused), the packet delivers, and every credit
    tracker returns to full depth."""
    base = HyperX((2, 2), 1)
    topo = DegradedTopology(base)
    net = Network(topo, make_algorithm("DimWAR", topo), SimConfig())
    sim = Simulator(net)
    sim.run(20)
    r = net.routers[0]
    pkt, routes = _craft_unstarted_route(r, create_cycle=sim.cycle)
    # consume the upstream credits the crafted flits logically hold, so the
    # credit returns emitted during recovery balance exactly
    upstream = next(rec for rec in net.links if rec.downstream is r.inputs[0])
    upstream.tracker.consume(0)
    upstream.tracker.consume(0)

    assert r.revoke_unstarted_routes({1}) == 1
    assert routes[0] is None and r.out_vc_owner[1][0] is None
    assert (0, 0) in r.active_input_keys()

    dst = net.terminals[3]
    before = dst.flits_ejected
    sim.run(300)
    assert dst.flits_ejected == before + 2
    assert pkt.eject_cycle is not None
    for rr in net.routers:
        for tracker in rr.credit_trackers:
            if tracker is not None:
                assert tracker.consistent() and tracker.occupied_total == 0
    assert upstream.tracker.occupied_total == 0


def test_hop_log_keeps_the_decision_that_replaced_a_revoked_one():
    """``record_hops`` logs a route the router commits; when that route is
    revoked and decided again at the same router, the new decision replaces
    it, so the log stays one entry per hop the packet is counted for."""
    from repro.obs import record_hops

    topo = DegradedTopology(HyperX((2, 2), 1))
    net = Network(topo, make_algorithm("DimWAR", topo), SimConfig())
    hops = record_hops(net)
    sim = Simulator(net)
    r = net.routers[0]
    pkt = Packet(0, 3, size=2, create_cycle=0)
    r.inputs[0].receive(0, Flit(pkt, 0))
    r.inputs[0].receive(0, Flit(pkt, 1))
    upstream = next(rec for rec in net.links if rec.downstream is r.inputs[0])
    upstream.tracker.consume(0)
    upstream.tracker.consume(0)
    route = r._compute_route(0, 0, 0, r.fifos[0][0])
    r.routes[0] = route
    assert hops[pkt.pid] == [(0, route.out_port, route.out_vc)]

    assert r.revoke_unstarted_routes({route.out_port}) == 1
    sim.run(300)
    assert pkt.eject_cycle is not None
    path = hops[pkt.pid]
    assert len(path) == pkt.hops == 2
    assert path[0][0] == 0 and path[1][0] != 0


def test_fault_revocation_credit_exact_after_drain():
    """Mid-run failures and a degrade under load must leave no phantom
    credits: after traffic stops and the (degraded but connected) network
    drains, every tracker is back to full depth and internally consistent."""
    topo = DegradedTopology(HyperX((4, 4), 1))
    net = Network(topo, make_algorithm("OmniWAR", topo), SimConfig())
    sim = Simulator(net)
    traffic = SyntheticTraffic(
        net, UniformRandom(topo.num_terminals), 0.35, UniformSize(1, 8), seed=1
    )
    sim.add_process(traffic)
    events = [
        FaultEvent(120, "link", 0, port=1),
        FaultEvent(180, "degrade", 2, port=0, factor=6),
        FaultEvent(250, "link", 4, port=2),
    ]
    sim.add_process(FaultInjector(net, FaultSchedule(events)))
    sim.run(500)
    assert topo.faults.events_applied == len(events)
    traffic.stop()
    assert sim.drain(max_cycles=100_000)
    assert net.total_injected_flits() == net.total_ejected_flits()
    assert net.flits_in_flight() == 0
    for r in net.routers:
        for tracker in r.credit_trackers:
            if tracker is not None:
                assert tracker.consistent()
                assert tracker.occupied_total == 0
    for t in net.terminals:
        assert t.inject_credits.consistent()
        assert t.inject_credits.occupied_total == 0


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def test_fault_schedule_json_roundtrip(tmp_path):
    sched = FaultSchedule(
        [
            FaultEvent(100, "link", 0, port=1),
            FaultEvent(50, "router", 3),
            FaultEvent(200, "degrade", 2, port=0, factor=8),
        ]
    )
    path = tmp_path / "faults.json"
    sched.save(str(path))
    loaded = FaultSchedule.load(str(path))
    assert loaded.sorted_events() == sched.sorted_events()
    assert loaded.sorted_events()[0].cycle == 50
    assert loaded.failed_router_ids() == {3}
    # The file itself is plain JSON.
    assert isinstance(json.loads(path.read_text()), (dict, list))


def test_fault_schedule_from_faultset():
    fset = FaultSet().fail_link(0, 0).fail_router(2)
    sched = FaultSchedule.from_faultset(fset, cycle=500)
    assert all(e.cycle == 500 for e in sched.sorted_events())
    assert sched.failed_router_ids() == {2}


def test_fault_schedule_roundtrip_edge_cases(tmp_path):
    """Cycle 0, factor 1 (no-op degrade), and a huge factor all round-trip."""
    sched = FaultSchedule(
        [
            FaultEvent(0, "link", 0, port=1),
            FaultEvent(0, "degrade", 2, port=0, factor=1),
            FaultEvent(10**9, "degrade", 3, port=2, factor=10**9),
        ]
    )
    path = tmp_path / "edges.json"
    sched.save(str(path))
    loaded = FaultSchedule.load(str(path))
    assert loaded.sorted_events() == sched.sorted_events()
    assert loaded.sorted_events()[0].cycle == 0
    assert loaded.sorted_events()[-1].factor == 10**9


def test_fault_schedule_empty_roundtrip(tmp_path):
    path = tmp_path / "empty.json"
    FaultSchedule().save(str(path))
    loaded = FaultSchedule.load(str(path))
    assert loaded.events == []
    assert loaded.sorted_events() == []
    assert loaded.failed_router_ids() == set()


def test_fault_schedule_load_rejects_negative_cycle(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"events": [{"cycle": -5, "kind": "link", "router": 0, "port": 1}]}'
    )
    with pytest.raises(ValueError, match="invalid fault event #0") as exc:
        FaultSchedule.load(str(path))
    # The error names the file and repeats the underlying constraint.
    assert str(path) in str(exc.value)
    assert ">= 0" in str(exc.value)


def test_fault_schedule_load_rejects_malformed_event(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(
        '{"events": [{"cycle": 10, "kind": "link", "router": 0, "port": 1},'
        ' {"cycle": 20, "kind": "degrade", "router": 1}]}'
    )
    with pytest.raises(ValueError, match="invalid fault event #1"):
        FaultSchedule.load(str(path))


def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(10, "link", 0)  # link event needs a port
    with pytest.raises(ValueError):
        FaultEvent(10, "degrade", 0, port=1)  # degrade needs a factor
    with pytest.raises(ValueError):
        FaultEvent(10, "eclipse", 0)  # unknown kind


def test_noroute_error_is_runtime_error():
    assert issubclass(NoRouteError, RuntimeError)
