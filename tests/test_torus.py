"""Tests for the torus/mesh topologies and dateline DOR (Section 2.1)."""

import pytest

from repro.config import default_config
from repro.core.deadlock import (
    assert_deadlock_free,
    dependency_graph_incremental,
    find_cycle,
)
from repro.core.torus_routing import MeshDOR, TorusDOR
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.topology.torus import Torus, mesh
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import BitComplement, UniformRandom


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("widths", [(4,), (3, 3), (4, 3), (2, 3, 4)])
@pytest.mark.parametrize("wrap", [True, False])
def test_structure_valid(widths, wrap):
    Torus(widths, 2, wrap=wrap).validate()


def test_width2_ring_single_neighbor():
    t = Torus((2, 3), 1, wrap=True)
    t.validate()
    # in the width-2 dimension each router has exactly one neighbour port
    r = t.router_id((0, 0))
    dims = [t.port_info(r, p)[0] for p in range(t.num_router_ports(r))]
    assert dims.count(0) == 1
    assert dims.count(1) == 2


def test_mesh_border_has_fewer_ports():
    m = mesh((3, 3), 1)
    corner = m.router_id((0, 0))
    center = m.router_id((1, 1))
    assert m.num_router_ports(corner) == 2
    assert m.num_router_ports(center) == 4


def test_torus_distances_wrap():
    t = Torus((5,), 1)
    assert t.dim_distance(0, 0, 4) == 1  # around the ring
    assert t.dim_direction(0, 0, 4) == -1
    assert t.dim_distance(0, 0, 2) == 2
    assert t.dim_direction(0, 0, 2) == 1
    assert t.min_hops(t.router_id((0,)), t.router_id((4,))) == 1


def test_mesh_distances_no_wrap():
    m = mesh((5,), 1)
    assert m.dim_distance(0, 0, 4) == 4
    assert m.dim_direction(0, 0, 4) == 1


def test_torus_diameter():
    t = Torus((4, 4), 1)
    assert t.diameter() == 4  # 2 + 2
    m = mesh((4, 4), 1)
    assert m.diameter() == 6  # 3 + 3


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def test_mesh_dor_rejects_torus_and_vice_versa():
    with pytest.raises(ValueError):
        MeshDOR(Torus((3, 3), 1, wrap=True))
    with pytest.raises(ValueError):
        TorusDOR(mesh((3, 3), 1))
    from repro.topology.hyperx import HyperX

    with pytest.raises(TypeError):
        TorusDOR(HyperX((3, 3), 1))


@pytest.mark.parametrize(
    "topo_factory,algo_cls",
    [
        (lambda: mesh((3, 3), 2), MeshDOR),
        (lambda: Torus((4, 4), 2), TorusDOR),
        (lambda: Torus((2, 3), 2), TorusDOR),
        (lambda: Torus((5,), 2), TorusDOR),
    ],
)
def test_delivery_and_conservation(topo_factory, algo_cls):
    topo = topo_factory()
    net = Network(topo, algo_cls(topo), default_config())
    sim = Simulator(net)
    traffic = SyntheticTraffic(net, UniformRandom(topo.num_terminals), 0.25, seed=4)
    sim.processes.append(traffic)
    sim.run(1200)
    traffic.stop()
    assert sim.drain(max_cycles=200_000)
    assert net.total_injected_flits() == net.total_ejected_flits()


def test_paths_are_minimal():
    topo = Torus((5, 4), 2)
    net = Network(topo, TorusDOR(topo), default_config())
    sim = Simulator(net)
    delivered = []
    for t in net.terminals:
        t.delivery_listeners.append(lambda p, c: delivered.append(p))
    traffic = SyntheticTraffic(net, UniformRandom(topo.num_terminals), 0.2, seed=1)
    sim.processes.append(traffic)
    sim.run(900)
    traffic.stop()
    sim.drain(max_cycles=100_000)
    assert delivered
    for p in delivered:
        src_r = topo.router_of_terminal(p.src_terminal)
        dst_r = topo.router_of_terminal(p.dst_terminal)
        assert p.hops == topo.min_hops(src_r, dst_r)


def test_dateline_classes_used():
    """Under BC on a torus, wrap crossings happen and class 1 gets used."""
    from repro.obs import record_hops

    topo = Torus((4, 4), 2)
    net = Network(topo, TorusDOR(topo), default_config())
    hops = record_hops(net)
    sim = Simulator(net)
    delivered = []
    for t in net.terminals:
        t.delivery_listeners.append(lambda p, c: delivered.append(p))
    traffic = SyntheticTraffic(net, BitComplement(topo.num_terminals), 0.2, seed=1)
    sim.processes.append(traffic)
    sim.run(900)
    traffic.stop()
    sim.drain(max_cycles=100_000)
    classes = set()
    for p in delivered:
        for _, _, vc in hops.get(p.pid, ()):
            classes.add(net.vc_map.class_of(vc))
    assert classes == {0, 1}


# ---------------------------------------------------------------------------
# Deadlock: the Section 2.1 story, mechanically checked
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("widths", [(3, 3), (4,), (2, 4)])
def test_mesh_dor_single_class_deadlock_free(widths):
    m = mesh(widths, 1)
    assert_deadlock_free(m, MeshDOR(m))


@pytest.mark.parametrize("widths", [(4,), (3, 3), (4, 4), (2, 3)])
def test_torus_dateline_deadlock_free(widths):
    t = Torus(widths, 1)
    algo = TorusDOR(t)
    assert algo.num_classes == 2
    assert_deadlock_free(t, algo)


def test_torus_without_dateline_has_cycle():
    """DOR on a ring with a single class must show the structural cycle —
    the reason datelines exist."""

    class NaiveTorusDOR(TorusDOR):
        name = "naive"
        num_classes = 1

        def __init__(self, topology):
            RoutingAlgorithmInitBypass(self, topology)

        def candidates(self, ctx):
            cands = super().candidates(ctx)
            return [
                type(c)(out_port=c.out_port, vc_class=0, hops=c.hops)
                for c in cands
            ]

    def RoutingAlgorithmInitBypass(self_, topology):
        # call _TorusBase.__init__ without TorusDOR's wrap check inversion
        from repro.core.torus_routing import _TorusBase

        _TorusBase.__init__(self_, topology)

    t = Torus((4,), 1)
    g = dependency_graph_incremental(t, NaiveTorusDOR(t))
    assert find_cycle(g) is not None
