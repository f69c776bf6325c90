"""End-to-end simulator integration tests: delivery, conservation,
determinism, credit protocol, and wiring invariants."""

import numpy as np
import pytest

from repro.config import default_config
from repro.core.registry import make_algorithm
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.stats import PacketStats
from repro.network.types import Packet
from repro.topology.hyperx import HyperX
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import UniformRandom
from repro.traffic.sizes import FixedSize, UniformSize


def _net(widths=(3, 3), tpr=2, algo="DOR", **cfg_over):
    topo = HyperX(widths, tpr)
    algorithm = make_algorithm(algo, topo)
    cfg = default_config(**cfg_over)
    return topo, Network(topo, algorithm, cfg)


def test_single_packet_delivered_to_right_terminal():
    topo, net = _net()
    sim = Simulator(net)
    pkt = Packet(src_terminal=0, dst_terminal=topo.num_terminals - 1, size=5,
                 create_cycle=0)
    net.terminals[0].offer(pkt)
    assert sim.drain(max_cycles=5000)
    assert pkt.eject_cycle is not None
    assert net.terminals[topo.num_terminals - 1].packets_delivered == 1
    assert pkt.hops == topo.min_hops(0, topo.num_routers - 1)


def test_packet_to_local_terminal_same_router():
    topo, net = _net(tpr=2)
    sim = Simulator(net)
    pkt = Packet(src_terminal=0, dst_terminal=1, size=3, create_cycle=0)
    net.terminals[0].offer(pkt)
    assert sim.drain(max_cycles=2000)
    assert pkt.eject_cycle is not None
    assert pkt.hops == 0  # never left the source router


def test_zero_load_latency_components():
    """At zero load the latency must equal the known pipeline sum."""
    topo, net = _net(algo="DOR")
    cfg = net.cfg
    sim = Simulator(net)
    # 1-flit packet, 1 router hop (dest differs in one dimension)
    dst_router = topo.peer(0, 0).router_port.router
    pkt = Packet(0, dst_router * 2, 1, create_cycle=0)
    net.terminals[0].offer(pkt)
    assert sim.drain(max_cycles=2000)
    expected = (
        cfg.network.channel_latency_rt  # terminal -> source router
        + cfg.router.xbar_latency  # source router datapath
        + cfg.network.channel_latency_rr  # router -> router
        + cfg.router.xbar_latency  # dest router datapath
        + cfg.network.channel_latency_rt  # router -> terminal
    )
    # +small constant for queue/stage boundaries crossed per cycle steps
    assert expected <= pkt.latency <= expected + 6


@pytest.mark.parametrize("algo", ["DOR", "VAL", "UGAL", "UGAL+", "MIN-AD",
                                  "DimWAR", "OmniWAR"])
def test_flit_conservation_all_algorithms(algo):
    """Everything injected is eventually ejected, for every algorithm."""
    topo, net = _net(widths=(3, 3), tpr=2, algo=algo)
    sim = Simulator(net)
    traffic = SyntheticTraffic(
        net, UniformRandom(topo.num_terminals), rate=0.25, seed=4
    )
    sim.processes.append(traffic)
    sim.run(1500)
    traffic.stop()
    assert sim.drain(max_cycles=100_000), f"{algo} failed to drain"
    assert net.total_injected_flits() == net.total_ejected_flits()
    assert net.total_injected_flits() == traffic.flits_generated
    assert net.flits_in_flight() == 0


def test_all_packets_reach_correct_destinations():
    topo, net = _net(widths=(2, 3), tpr=2, algo="DimWAR")
    sim = Simulator(net)
    stats = PacketStats()
    delivered = []
    for t in net.terminals:
        t.delivery_listeners.append(stats.on_delivery)
        t.delivery_listeners.append(
            lambda p, c, tid=t.terminal_id: delivered.append((p.dst_terminal, tid))
        )
    traffic = SyntheticTraffic(
        net, UniformRandom(topo.num_terminals), rate=0.3, seed=9
    )
    sim.processes.append(traffic)
    sim.run(800)
    traffic.stop()
    assert sim.drain(max_cycles=50_000)
    assert delivered and all(dst == tid for dst, tid in delivered)


def test_determinism_same_seed():
    def run(seed):
        topo, net = _net(widths=(3, 3), tpr=2, algo="OmniWAR")
        sim = Simulator(net)
        traffic = SyntheticTraffic(
            net, UniformRandom(topo.num_terminals), rate=0.3, seed=seed
        )
        sim.processes.append(traffic)
        stats = PacketStats()
        for t in net.terminals:
            t.delivery_listeners.append(stats.on_delivery)
        sim.run(1200)
        return (
            net.total_injected_flits(),
            net.total_ejected_flits(),
            [s.latency for s in stats.samples],
        )

    a, b, c = run(7), run(7), run(8)
    assert a == b  # bit-identical with the same seed
    assert a != c  # and actually sensitive to the seed


def test_age_arbitration_prefers_older_packet():
    """Two packets contending for one output: the older one wins."""
    topo, net = _net(widths=(3,), tpr=2, algo="DOR")
    sim = Simulator(net)
    old = Packet(0, 5, 8, create_cycle=0)  # router 0 -> router 2
    young = Packet(1, 5, 8, create_cycle=0)
    young.create_cycle = 1  # same source router, same destination
    net.terminals[0].offer(old)
    net.terminals[1].offer(young)
    assert sim.drain(max_cycles=5000)
    assert old.eject_cycle < young.eject_cycle


def test_router_buffer_never_overflows_under_load():
    """Credit protocol holds under saturation (receive() raises on violation)."""
    topo, net = _net(widths=(3, 3), tpr=4, algo="DimWAR")
    sim = Simulator(net)
    traffic = SyntheticTraffic(
        net, UniformRandom(topo.num_terminals), rate=0.9, seed=2
    )
    sim.processes.append(traffic)
    sim.run(2000)  # drives the network well past saturation


def test_network_rejects_too_many_classes():
    topo = HyperX((3, 3, 3), 1)
    algo = make_algorithm("OmniWAR", topo, deroutes=10)  # needs 13 classes
    with pytest.raises(ValueError):
        Network(topo, algo, default_config())


def test_channel_count():
    topo, net = _net(widths=(3, 3), tpr=2)
    # per router: 4 router-facing ports (2 per dim) -> 9*4 data; per
    # terminal: injection + ejection data.  Credits return through the
    # calendar, on no channel.
    expected = 9 * 4 + 18 * 2
    assert len(net.channels) == expected


def test_quiescent_initially():
    _, net = _net()
    assert net.quiescent()
    assert net.flits_in_flight() == 0


def test_simulator_run_until():
    topo, net = _net()
    sim = Simulator(net)
    hit = sim.run_until(lambda: sim.cycle >= 100, max_cycles=500, check_every=7)
    assert hit and 100 <= sim.cycle <= 107


def test_run_until_stops_at_exact_first_check_boundary():
    """The predicate is checked every ``check_every`` cycles; the run must
    return at the first boundary where it holds, not overshoot to the next."""
    topo, net = _net()
    sim = Simulator(net)
    hit = sim.run_until(lambda: sim.cycle >= 100, max_cycles=500, check_every=7)
    assert hit and sim.cycle == 105  # first multiple of 7 past 100
    # An immediately true predicate returns after one chunk, not zero.
    sim2 = Simulator(_net()[1])
    assert sim2.run_until(lambda: True, max_cycles=500, check_every=64)
    assert sim2.cycle == 64


def test_run_until_timeout_predicate_call_count():
    """On timeout the predicate runs once per check boundary — no redundant
    final re-evaluation — and the simulator lands exactly on the deadline."""
    topo, net = _net()
    sim = Simulator(net)
    calls = []

    def never():
        calls.append(sim.cycle)
        return False

    assert not sim.run_until(never, max_cycles=100, check_every=7)
    assert sim.cycle == 100  # the last chunk is clipped to the deadline
    # Boundaries: 7, 14, ..., 98, then the clipped chunk ending at 100.
    assert calls == [*range(7, 99, 7), 100]


def test_run_until_zero_budget_checks_once():
    topo, net = _net()
    sim = Simulator(net)
    calls = []
    assert not sim.run_until(lambda: calls.append(1) is not None and False,
                             max_cycles=0)
    assert sim.cycle == 0 and len(calls) == 1


def test_idle_network_wakes_for_late_offer():
    """Activity tracking must not lose wake-ups: after the network drains and
    idles for a long stretch, a newly offered packet still gets delivered."""
    topo, net = _net(widths=(3, 3), tpr=2, algo="DimWAR")
    sim = Simulator(net)
    first = Packet(0, topo.num_terminals - 1, size=4, create_cycle=0)
    net.terminals[0].offer(first)
    assert sim.drain(max_cycles=5000)
    sim.run(1000)  # a long fully idle stretch (active sets are empty)
    late = Packet(3, topo.num_terminals - 2, size=4,
                  create_cycle=sim.cycle)
    net.terminals[3].offer(late)
    assert sim.drain(max_cycles=5000)
    assert late.eject_cycle is not None
    assert net.total_injected_flits() == net.total_ejected_flits() == 8


def test_packet_size_mix_delivered():
    topo, net = _net(widths=(3, 3), tpr=2, algo="OmniWAR")
    sim = Simulator(net)
    traffic = SyntheticTraffic(
        net,
        UniformRandom(topo.num_terminals),
        rate=0.2,
        size_dist=UniformSize(1, 16),
        seed=3,
    )
    sim.processes.append(traffic)
    sim.run(1000)
    traffic.stop()
    assert sim.drain(max_cycles=50_000)
    assert net.total_ejected_flits() == traffic.flits_generated


def test_single_flit_packets():
    topo, net = _net(algo="DimWAR")
    sim = Simulator(net)
    traffic = SyntheticTraffic(
        net, UniformRandom(topo.num_terminals), rate=0.3,
        size_dist=FixedSize(1), seed=5,
    )
    sim.processes.append(traffic)
    sim.run(800)
    traffic.stop()
    assert sim.drain(max_cycles=20_000)
    assert net.total_ejected_flits() == traffic.packets_generated


def test_validate_wiring_all_topologies():
    from repro.core.dragonfly_routing import DragonflyMinimal
    from repro.core.fattree_routing import FatTreeAdaptive
    from repro.core.torus_routing import TorusDOR
    from repro.topology.dragonfly import balanced_dragonfly
    from repro.topology.fattree import FatTree
    from repro.topology.torus import Torus

    cases = [
        (HyperX((3, 3), 2), "DOR"),
        (balanced_dragonfly(2), DragonflyMinimal),
        (FatTree(3, 2, leaf_factor=2), FatTreeAdaptive),
        (Torus((3, 3), 2), TorusDOR),
    ]
    for topo, algo in cases:
        algorithm = make_algorithm(algo, topo) if isinstance(algo, str) else algo(topo)
        net = Network(topo, algorithm, default_config())
        net.validate_wiring()


def test_sweep_result_json_roundtrip(tmp_path):
    from repro.analysis.sweep import SweepResult, measure_point

    topo = HyperX((3,), 2)
    algo = make_algorithm("DOR", topo)
    sweep = SweepResult(algorithm="DOR", pattern="UR")
    sweep.points.append(
        measure_point(topo, algo, UniformRandom(topo.num_terminals), 0.2,
                      total_cycles=1200, seed=1)
    )
    path = tmp_path / "sweep.json"
    sweep.save(str(path))
    loaded = SweepResult.load(str(path))
    assert loaded.algorithm == "DOR"
    assert loaded.points[0].offered_rate == sweep.points[0].offered_rate
    assert loaded.points[0].mean_latency == sweep.points[0].mean_latency
    assert loaded.saturation_rate == sweep.saturation_rate


def test_quick_simulation_public_api():
    from repro import quick_simulation

    r = quick_simulation(algorithm="OmniWAR", pattern="BC", rate=0.2,
                         widths=(3, 3), terminals_per_router=2, cycles=1500)
    assert r.stable and r.accepted_rate > 0.15
    # every name pattern_by_name (and ``repro sweep --pattern``) accepts
    z = quick_simulation(pattern="URBz", rate=0.1, widths=(2, 2, 2),
                         terminals_per_router=1, cycles=400)
    assert z.packets_delivered > 0
    import pytest as _pytest

    with _pytest.raises(ValueError):
        quick_simulation(pattern="WAVES")
