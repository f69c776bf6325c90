"""Router-level unit tests: congestion observation, VC allocation, wormhole
holding, stalls, and ejection routing — exercised through a minimal
two-router network so that all wiring is real."""

from dataclasses import replace

import pytest

from repro.config import default_config
from repro.core.registry import make_algorithm
from repro.network.buffers import VcRoute
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.types import Flit, Packet
from repro.topology.hyperx import HyperX
from test_scoring_kernel import port_congestion


def _two_router_net(algo="DOR", **cfg_over):
    topo = HyperX((2,), 2)  # routers 0 and 1, two terminals each
    algorithm = make_algorithm(algo, topo)
    cfg = default_config(**cfg_over)
    net = Network(topo, algorithm, cfg)
    return topo, net


def _arbiter_cfg(arbiter):
    cfg = default_config()
    return replace(cfg, router=replace(cfg.router, arbiter=arbiter))


def test_congestion_rises_with_traffic():
    topo, net = _two_router_net()
    sim = Simulator(net)
    r0 = net.routers[0]
    port = topo.dim_port(0, 0, 1)  # channel 0 -> 1
    idle = port_congestion(r0, port)
    assert idle == 0.0
    # big packets from both router-0 terminals to router 1
    for t in (0, 1):
        net.terminals[t].offer(Packet(t, 2, 16, create_cycle=0))
        net.terminals[t].offer(Packet(t, 3, 16, create_cycle=0))
    sim.run(30)
    assert port_congestion(r0, port) > idle


def test_out_vc_held_until_tail():
    topo, net = _two_router_net()
    sim = Simulator(net)
    net.terminals[0].offer(Packet(0, 2, 12, create_cycle=0))
    port = topo.dim_port(0, 0, 1)
    r0 = net.routers[0]
    held_during = False
    for _ in range(200):
        sim.step()
        owners = [o for o in r0.out_vc_owner[port] if o is not None]
        if owners:
            held_during = True
    assert held_during
    sim.drain(max_cycles=2000)
    assert all(o is None for o in r0.out_vc_owner[port])  # released at tail


def test_a_credit_wakes_the_output_vcs_owner_and_nobody_else():
    """The owner table is the waiter table: ``out_vc_owner[port][vc]`` is
    the flat key (``in_port * num_vcs + in_vc``) of the input VC holding
    the output VC, and a credit restored on it wakes exactly that key."""
    topo, net = _two_router_net()
    r0 = net.routers[0]
    port = topo.dim_port(0, 0, 1)
    tracker = r0.credit_trackers[port]
    assert tracker.owner is r0.out_vc_owner[port]
    # An unstarted packet on input (in_port, 0), routed to output (port, 1)
    # and asleep on its credits, beside a key asleep on some other VC.
    in_port = r0.port_of_terminal[0]
    key = in_port * r0.num_vcs
    other = key + 1
    pkt = Packet(0, 2, size=1, create_cycle=0)
    pkt.hops = 1
    r0.inputs[in_port].receive(0, Flit(pkt, 0))
    r0.routes[key] = VcRoute(port, 1)
    r0.out_vc_owner[port][1] = key
    tracker.consume(0)
    tracker.consume(1)
    r0._asleep.update((key, other))

    tracker.restore(0)  # an unowned VC wakes nobody
    assert r0._asleep == {key, other}
    inject = net.terminals[0].inject_credits  # a terminal's: no owner list
    assert inject.owner is None
    inject.consume(1)
    inject.restore(1)
    assert r0._asleep == {key, other}
    tracker.restore(1)  # the owned VC wakes its owner, and only it
    assert r0._asleep == {other}

    # Revoked while asleep: the input wakes, the output VC is free, and a
    # later credit on it wakes nobody.
    tracker.consume(1)
    r0._asleep.add(key)
    assert r0.revoke_unstarted_routes({port}) == 1
    assert r0._asleep == {other}
    assert r0.out_vc_owner[port][1] is None
    tracker.restore(1)
    assert r0._asleep == {other}


def test_every_sleeper_owns_the_output_vc_it_waits_on():
    """Under load, each owned output VC is the route of its holder's input
    VC, and every input VC asleep on credits is one of those holders."""
    from repro.traffic.injection import SyntheticTraffic
    from repro.traffic.patterns import UniformRandom

    topo = HyperX((3, 3), 2)
    net = Network(topo, make_algorithm("DimWAR", topo), default_config())
    sim = Simulator(net)
    sim.processes.append(
        SyntheticTraffic(net, UniformRandom(topo.num_terminals), 0.7, seed=5)
    )
    sleepers = 0
    for _ in range(300):
        sim.step()
        for r in net.routers:
            held = set()
            for port, owners in enumerate(r.out_vc_owner):
                for vc, key in enumerate(owners):
                    if key is not None:
                        route = r.routes[key]
                        assert (route.out_port, route.out_vc) == (port, vc)
                        held.add(key)
            assert r._asleep <= held
            sleepers += len(r._asleep)
    assert sleepers > 0


def test_vc_allocation_prefers_most_credits():
    topo, net = _two_router_net()
    r0 = net.routers[0]
    port = topo.dim_port(0, 0, 1)
    tracker = r0.credit_trackers[port]
    # consume credits on the first VCs of class 0 so VC with most remains wins
    tracker.consume(0)
    tracker.consume(0)
    tracker.consume(1)
    vc = r0._allocate_vc(port, 0)
    group = net.vc_map.vcs_of(0)
    assert vc in group
    assert tracker.available(vc) == max(tracker.available(v) for v in group)


def test_vc_allocation_skips_busy_and_uncredited():
    topo, net = _two_router_net()
    r0 = net.routers[0]
    port = topo.dim_port(0, 0, 1)
    group = net.vc_map.vcs_of(0)
    for v in group:
        r0.out_vc_owner[port][v] = 999  # all busy
    assert r0._allocate_vc(port, 0) is None
    r0.out_vc_owner[port][group[0]] = None
    tracker = r0.credit_trackers[port]
    for _ in range(tracker.available(group[0])):
        tracker.consume(group[0])  # free but no credits
    assert r0._allocate_vc(port, 0) is None


def test_ejection_uses_terminal_port():
    topo, net = _two_router_net()
    sim = Simulator(net)
    # terminal 0 -> terminal 1: same router, pure ejection
    p = Packet(0, 1, 4, create_cycle=0)
    net.terminals[0].offer(p)
    assert sim.drain(max_cycles=1000)
    assert p.hops == 0 and p.eject_cycle is not None


def test_route_stall_counted_when_no_credits():
    topo, net = _two_router_net()
    sim = Simulator(net)
    r0 = net.routers[0]
    port = topo.dim_port(0, 0, 1)
    tracker = r0.credit_trackers[port]
    for v in range(net.cfg.router.num_vcs):
        for _ in range(tracker.available(v)):
            tracker.consume(v)  # simulate a fully backed-up downstream
    net.terminals[0].offer(Packet(0, 2, 1, create_cycle=0))
    sim.run(50)
    assert r0.route_stalls > 0


def test_wrong_destination_raises():
    topo, net = _two_router_net()
    r0 = net.routers[0]
    p = Packet(0, 2, 1, create_cycle=0)  # destination hosted on router 1
    with pytest.raises(RuntimeError):
        r0._route_ejection(0, 0, p)


def test_router_telemetry_counts():
    topo, net = _two_router_net()
    sim = Simulator(net)
    net.terminals[0].offer(Packet(0, 2, 5, create_cycle=0))
    sim.drain(max_cycles=2000)
    r0 = net.routers[0]
    assert r0.routes_computed >= 1
    assert r0.flits_forwarded == 5


def test_idle_router_is_idle():
    _, net = _two_router_net()
    assert all(r.idle for r in net.routers)


def test_terminal_injects_one_flit_per_cycle():
    topo, net = _two_router_net()
    sim = Simulator(net)
    t0 = net.terminals[0]
    t0.offer(Packet(0, 2, 10, create_cycle=0))
    sim.run(5)
    assert t0.flits_injected <= 5


def test_terminal_offer_wrong_terminal_rejected():
    _, net = _two_router_net()
    with pytest.raises(ValueError):
        net.terminals[1].offer(Packet(0, 2, 1, create_cycle=0))


def test_backlog_reporting():
    topo, net = _two_router_net()
    t0 = net.terminals[0]
    t0.offer(Packet(0, 2, 7, create_cycle=0))
    t0.offer(Packet(0, 3, 3, create_cycle=0))
    assert t0.backlog_flits == 10
    assert not t0.idle


def test_sequential_allocation_sees_same_cycle_commitments():
    """With the Section 4.1 sequential allocator on, a routing decision made
    this cycle raises the congestion later decisions observe."""
    from dataclasses import replace

    topo = HyperX((2,), 2)
    cfg = default_config()
    cfg = replace(cfg, router=replace(cfg.router, sequential_allocation=True))
    net = Network(topo, make_algorithm("DOR", topo), cfg)
    r0 = net.routers[0]
    port = topo.dim_port(0, 0, 1)
    base = port_congestion(r0, port)
    r0._pending_commit[port] = 8  # as set by an earlier same-cycle decision
    assert port_congestion(r0, port) > base
    r0._pending_commit[port] = 0
    assert port_congestion(r0, port) == base


def test_round_robin_arbiter_config_actually_used():
    """The round_robin output-arbitration option changes scheduling (i.e. it
    is wired in, not a dead config knob) and still delivers everything."""
    from repro.network.stats import PacketStats
    from repro.traffic.injection import SyntheticTraffic
    from repro.traffic.patterns import UniformRandom

    def run(arb):
        topo = HyperX((3, 3), 2)
        net = Network(topo, make_algorithm("OmniWAR", topo), _arbiter_cfg(arb))
        sim = Simulator(net)
        stats = PacketStats()
        for t in net.terminals:
            t.delivery_listeners.append(stats.on_delivery)
        traffic = SyntheticTraffic(
            net, UniformRandom(topo.num_terminals), 0.5, seed=4
        )
        sim.processes.append(traffic)
        sim.run(1200)
        traffic.stop()
        assert sim.drain(max_cycles=100_000)
        assert net.total_injected_flits() == net.total_ejected_flits()
        return [s.latency for s in stats.samples]

    age = run("age")
    rr = run("round_robin")
    assert age != rr  # different arbitration, different schedules


def test_unknown_arbiter_rejected():
    topo = HyperX((2,), 1)
    with pytest.raises(ValueError):
        Network(topo, make_algorithm("DOR", topo), _arbiter_cfg("coinflip"))


# ---------------------------------------------------------------------------
# The output pass is armed by a bound, not polled
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arbiter", ["age", "round_robin"])
def test_lone_flit_costs_one_output_pass_per_router(arbiter, output_pass_audit):
    topo = HyperX((2,), 2)
    net = Network(topo, make_algorithm("DOR", topo), _arbiter_cfg(arbiter))
    sim = Simulator(net)
    p = Packet(0, 2, 1, create_cycle=0)
    net.terminals[0].offer(p)
    assert sim.drain(max_cycles=1000)
    assert p.eject_cycle is not None
    # One pass where it leaves router 0, one where router 1 ejects it: each
    # at the cycle its crossbar traversal ends, none while it is inside.
    passes = output_pass_audit.passes
    assert [r for r, _ in passes] == [0, 1]
    xbar = net.cfg.router.xbar_latency
    assert passes[1][1] - passes[0][1] >= xbar > 1


@pytest.mark.parametrize("arbiter", ["age", "round_robin"])
def test_output_pass_never_sleeps_through_a_ready_flit(arbiter, output_pass_audit):
    """Every router step of a loaded run is held to the per-port reference
    (``output_pass_audit``, tests/conftest.py)."""
    from repro.traffic.injection import SyntheticTraffic
    from repro.traffic.patterns import UniformRandom

    topo = HyperX((4, 4), 2)
    net = Network(topo, make_algorithm("DimWAR", topo), _arbiter_cfg(arbiter))
    sim = Simulator(net)
    traffic = SyntheticTraffic(net, UniformRandom(topo.num_terminals), 0.45, seed=3)
    sim.processes.append(traffic)
    sim.run(400)
    traffic.stop()
    assert sim.drain(max_cycles=100_000)
    assert net.total_injected_flits() == net.total_ejected_flits() > 0
    audit = output_pass_audit
    assert 0 < audit.ready_steps <= len(audit.passes) < audit.steps
