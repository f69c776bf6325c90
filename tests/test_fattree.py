"""Tests for the k-ary n-tree fat tree and its routing."""

import pytest

from repro.config import default_config
from repro.core.fattree_routing import FatTreeAdaptive, FatTreeDeterministic
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.topology.fattree import FatTree
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import UniformRandom


def test_counts():
    ft = FatTree(4, 3)
    assert ft.num_terminals == 64
    assert ft.num_routers == 3 * 16
    assert ft.radix(0) == 8  # leaf: 4 down + 4 up
    top = ft.switch_id(2, (0, 0))
    assert ft.radix(top) == 4  # top level: down only


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 2), (4, 3), (2, 4)])
def test_validate_structure(k, n):
    FatTree(k, n).validate()


def test_rejects_bad_params():
    with pytest.raises(ValueError):
        FatTree(1, 3)
    with pytest.raises(ValueError):
        FatTree(4, 0)


def test_level_word_roundtrip():
    ft = FatTree(3, 3)
    for r in range(ft.num_routers):
        level, word = ft.level_word(r)
        assert ft.switch_id(level, word) == r


def test_up_down_edges_consistent():
    ft = FatTree(3, 3)
    for r in range(ft.num_routers):
        level, _ = ft.level_word(r)
        for port in range(ft.radix(r)):
            peer = ft.peer(r, port)
            if peer.is_terminal:
                assert level == 0
                continue
            plevel, _ = ft.level_word(peer.router_port.router)
            if port < ft.k:
                assert plevel == level - 1
            else:
                assert plevel == level + 1


def test_covers_and_down_digit():
    ft = FatTree(2, 3)  # 8 terminals
    leaf = ft.terminal_attachment(5).router
    assert ft.covers(leaf, 5)
    assert ft.covers(leaf, 4)
    assert not ft.covers(leaf, 0)
    top = ft.switch_id(2, (0, 0))
    for t in range(8):
        assert ft.covers(top, t)  # root covers everything


def test_nca_level():
    ft = FatTree(2, 3)
    assert ft.nca_level(0, 1) == 0  # same leaf
    assert ft.nca_level(0, 2) == 1
    assert ft.nca_level(0, 7) == 2


def test_min_hops_symmetric_and_even_for_leaves():
    ft = FatTree(2, 3)
    for a in range(0, ft._switches_per_level):  # leaf switches
        for b in range(0, ft._switches_per_level):
            h = ft.min_hops(a, b)
            assert h == ft.min_hops(b, a)
            assert h % 2 == 0  # up-then-down between same-level switches


@pytest.mark.parametrize("algo_cls", [FatTreeAdaptive, FatTreeDeterministic])
def test_routing_delivers_everything(algo_cls):
    ft = FatTree(4, 3)
    algo = algo_cls(ft)
    net = Network(ft, algo, default_config())
    sim = Simulator(net)
    traffic = SyntheticTraffic(net, UniformRandom(ft.num_terminals), 0.3, seed=8)
    sim.processes.append(traffic)
    sim.run(1200)
    traffic.stop()
    assert sim.drain(max_cycles=200_000)
    assert net.total_injected_flits() == net.total_ejected_flits()


def test_paths_never_bounce():
    """Up/down routing: once a packet starts descending it never goes up."""
    from repro.obs import record_hops

    ft = FatTree(2, 3)
    algo = FatTreeAdaptive(ft)
    net = Network(ft, algo, default_config())
    hops = record_hops(net)
    sim = Simulator(net)
    delivered = []
    for t in net.terminals:
        t.delivery_listeners.append(lambda p, c: delivered.append(p))
    traffic = SyntheticTraffic(net, UniformRandom(ft.num_terminals), 0.3, seed=2)
    sim.processes.append(traffic)
    sim.run(800)
    traffic.stop()
    sim.drain(max_cycles=100_000)
    assert delivered
    for p in delivered:
        descending = False
        for router, port, _ in hops.get(p.pid, ()):
            if ft.is_up_port(router, port):
                assert not descending, "packet went up after descending"
            else:
                descending = True
        # and the path length matches the NCA geometry
        nca = ft.nca_level(p.src_terminal, p.dst_terminal)
        assert p.hops == 2 * nca


def test_adaptive_requires_fattree():
    from repro.topology.hyperx import HyperX

    with pytest.raises(TypeError):
        FatTreeAdaptive(HyperX((3, 3), 2))
