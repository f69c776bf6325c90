"""Tests for the Dragonfly topology and its routing algorithms."""

import pytest

from repro.config import default_config
from repro.core.dragonfly_routing import (
    DragonflyMinimal,
    DragonflyUgal,
    DragonflyValiant,
)
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.topology.dragonfly import Dragonfly, balanced_dragonfly
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import UniformRandom


def test_counts_balanced():
    df = balanced_dragonfly(2)  # p=2, a=4, h=2
    assert df.g == 9
    assert df.num_routers == 36
    assert df.num_terminals == 72
    assert df.radix(0) == 3 + 2 + 2


def test_validate_structure():
    for h in (1, 2, 3):
        balanced_dragonfly(h).validate()
    Dragonfly(p=1, a=3, h=2).validate()


def test_rejects_bad_params():
    with pytest.raises(ValueError):
        Dragonfly(p=0, a=4, h=2)
    with pytest.raises(ValueError):
        Dragonfly(p=2, a=1, h=2)


def test_group_local_roundtrip():
    df = balanced_dragonfly(2)
    for r in range(df.num_routers):
        assert df.router_id(df.group_of(r), df.local_of(r)) == r


def test_local_ports_fully_connect_group():
    df = balanced_dragonfly(2)
    r = df.router_id(3, 1)
    seen = set()
    for lp in range(df.a - 1):
        peer = df.peer(r, lp).router_port
        assert df.group_of(peer.router) == 3
        seen.add(df.local_of(peer.router))
    assert seen == {0, 2, 3}  # every other router of the group


def test_global_channels_pair_bijectively():
    df = balanced_dragonfly(2)
    for r in range(df.num_routers):
        for k in range(df.h):
            port = df.global_port(r, k)
            peer = df.peer(r, port).router_port
            assert df.group_of(peer.router) != df.group_of(r)
            back = df.peer(peer.router, peer.port).router_port
            assert back.router == r and back.port == port


def test_every_group_pair_connected_once():
    df = balanced_dragonfly(2)
    pairs = set()
    for r in range(df.num_routers):
        for k in range(df.h):
            peer = df.peer(r, df.global_port(r, k)).router_port
            pair = tuple(sorted((df.group_of(r), df.group_of(peer.router))))
            pairs.add(pair)
    expected = {(a, b) for a in range(df.g) for b in range(a + 1, df.g)}
    assert pairs == expected  # canonical max-size dragonfly: one link per pair


def test_gateway_router_consistency():
    df = balanced_dragonfly(2)
    for gs in range(df.g):
        for gd in range(df.g):
            if gs == gd:
                continue
            router, k = df.gateway_router(gs, gd)
            assert df.group_of(router) == gs
            peer = df.peer(router, df.global_port(router, k)).router_port
            assert df.group_of(peer.router) == gd


def test_min_hops_diameter_3():
    df = balanced_dragonfly(2)
    assert df.diameter() <= 3
    assert df.min_hops(0, 0) == 0
    assert df.min_hops(df.router_id(0, 0), df.router_id(0, 3)) == 1


@pytest.mark.parametrize(
    "algo_cls", [DragonflyMinimal, DragonflyUgal, DragonflyValiant]
)
def test_routing_delivers_everything(algo_cls):
    df = balanced_dragonfly(2)
    algo = algo_cls(df)
    net = Network(df, algo, default_config())
    sim = Simulator(net)
    traffic = SyntheticTraffic(net, UniformRandom(df.num_terminals), 0.3, seed=6)
    sim.processes.append(traffic)
    sim.run(1200)
    traffic.stop()
    assert sim.drain(max_cycles=200_000)
    assert net.total_injected_flits() == net.total_ejected_flits()


def test_minimal_paths_are_at_most_3_hops():
    df = balanced_dragonfly(2)
    algo = DragonflyMinimal(df)
    net = Network(df, algo, default_config())
    sim = Simulator(net)
    delivered = []
    for t in net.terminals:
        t.delivery_listeners.append(lambda p, c: delivered.append(p))
    traffic = SyntheticTraffic(net, UniformRandom(df.num_terminals), 0.2, seed=3)
    sim.processes.append(traffic)
    sim.run(800)
    traffic.stop()
    sim.drain(max_cycles=100_000)
    assert delivered
    for p in delivered:
        src_r = df.router_of_terminal(p.src_terminal)
        dst_r = df.router_of_terminal(p.dst_terminal)
        assert p.hops == df.min_hops(src_r, dst_r)
        assert p.hops <= 3


def test_ugal_requires_dragonfly():
    from repro.topology.hyperx import HyperX

    with pytest.raises(TypeError):
        DragonflyUgal(HyperX((3, 3), 2))


def test_par_delivers_and_bounded_hops():
    from repro.core.dragonfly_routing import DragonflyPar
    from repro.obs import record_hops

    df = balanced_dragonfly(2)
    algo = DragonflyPar(df)
    assert algo.num_classes == 7
    net = Network(df, algo, default_config())
    hops = record_hops(net)
    sim = Simulator(net)
    delivered = []
    for t in net.terminals:
        t.delivery_listeners.append(lambda p, c: delivered.append(p))
    traffic = SyntheticTraffic(net, UniformRandom(df.num_terminals), 0.35, seed=5)
    sim.processes.append(traffic)
    sim.run(1500)
    traffic.stop()
    assert sim.drain(max_cycles=300_000)
    assert net.total_injected_flits() == net.total_ejected_flits()
    assert delivered
    for p in delivered:
        assert p.hops <= 7
        classes = [net.vc_map.class_of(v) for _, _, v in hops.get(p.pid, ())]
        assert classes == sorted(classes)  # distance classes never decrease


def test_par_can_revoke_inside_source_group():
    """PAR's defining property: some packets commit to Valiant only after
    their first (minimal) hop inside the source group."""
    from repro.core.dragonfly_routing import DragonflyPar

    df = balanced_dragonfly(2)
    algo = DragonflyPar(df)
    net = Network(df, algo, default_config())
    sim = Simulator(net)
    delivered = []
    for t in net.terminals:
        t.delivery_listeners.append(lambda p, c: delivered.append(p))
    # hot adversarial-ish load so revocations actually happen
    traffic = SyntheticTraffic(net, UniformRandom(df.num_terminals), 0.5, seed=9)
    sim.processes.append(traffic)
    sim.run(2500)
    traffic.stop()
    sim.drain(max_cycles=500_000)
    val_after_hop = [
        p for p in delivered
        if p.routing_state.get("df_mode") == "val" and p.hops > df.min_hops(
            df.router_of_terminal(p.src_terminal),
            df.router_of_terminal(p.dst_terminal),
        )
    ]
    assert val_after_hop  # progressive decisions occurred
