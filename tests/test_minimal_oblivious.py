"""Tests for the Section 2.2 minimal-oblivious baselines (ROMM, O1Turn)."""

import pytest

from repro.config import default_config
from repro.core.registry import make_algorithm
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.obs import record_hops
from repro.topology.hyperx import HyperX
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import UniformRandom


def _traced(algo_name, widths=(3, 3, 3), tpr=2, rate=0.3, cycles=1200, seed=2):
    topo = HyperX(widths, tpr)
    algo = make_algorithm(algo_name, topo)
    net = Network(topo, algo, default_config())
    hops = record_hops(net)
    sim = Simulator(net)
    delivered = []
    for t in net.terminals:
        t.delivery_listeners.append(lambda p, c: delivered.append(p))
    traffic = SyntheticTraffic(net, UniformRandom(topo.num_terminals), rate, seed=seed)
    sim.processes.append(traffic)
    sim.run(cycles)
    traffic.stop()
    assert sim.drain(max_cycles=200_000)
    assert net.total_injected_flits() == net.total_ejected_flits()
    return topo, net, delivered, hops


def _classes(net, hops, packet):
    """The resource class of each router-to-router hop of the packet."""
    return [net.vc_map.class_of(vc) for _, _, vc in hops.get(packet.pid, ())]


@pytest.mark.parametrize("name", ["ROMM", "O1Turn"])
def test_paths_are_minimal(name):
    topo, net, pkts, hops = _traced(name)
    assert pkts
    for p in pkts:
        src_r = topo.router_of_terminal(p.src_terminal)
        dst_r = topo.router_of_terminal(p.dst_terminal)
        assert p.hops == topo.min_hops(src_r, dst_r)
        assert p.deroutes == 0


def test_romm_two_phase_classes():
    topo, net, pkts, hops = _traced("ROMM")
    saw_phase1 = False
    for p in pkts:
        classes = _classes(net, hops, p)
        assert classes == sorted(classes)
        assert set(classes) <= {0, 1}
        saw_phase1 = saw_phase1 or 0 in classes
    assert saw_phase1  # random quadrant intermediates actually used


def test_o1turn_uses_distance_classes_and_mixed_orders():
    topo, net, pkts, hops = _traced("O1Turn", rate=0.35)
    orders = set()
    for p in pkts:
        classes = _classes(net, hops, p)
        assert classes == list(range(len(classes)))  # VC = hop index
        order = p.routing_state.get("o1_order")
        if order is not None:
            orders.add(order)
    assert len(orders) > 1  # different packets use different dim orders


def test_romm_intermediate_in_minimal_quadrant():
    topo, net, pkts, hops = _traced("ROMM", rate=0.2, cycles=800)
    checked = 0
    for p in pkts:
        inter = p.routing_state.get("romm_int")
        if inter is None:
            continue
        src = topo.coords(topo.router_of_terminal(p.src_terminal))
        dst = topo.coords(topo.router_of_terminal(p.dst_terminal))
        for i, c in enumerate(inter):
            assert c in (src[i], dst[i])
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", ["ROMM", "O1Turn"])
def test_registered(name):
    from repro.core.registry import ALGORITHM_DESCRIPTIONS, algorithm_names

    assert name in algorithm_names()
    assert name in ALGORITHM_DESCRIPTIONS
