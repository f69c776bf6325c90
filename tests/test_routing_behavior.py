"""Behavioural tests of the routing algorithms, checked on real simulations
with every packet's hops logged (``repro.obs.record_hops``).

These verify the properties the paper *claims* for each algorithm:

* DOR: deterministic dimension-order minimal paths, one resource class;
* VAL/UGAL/Clos-AD: two-phase paths, class 0 before class 1;
* MIN-AD: minimal paths, any dimension order, distance classes;
* DimWAR: dimension order, at most one deroute per dimension, deroutes on
  class 1 followed immediately by the aligning class-0 hop;
* OmniWAR: VC (distance class) strictly increases every hop, at most M
  deroutes, path length <= N + M;
* OmniWAR-b2b: additionally never deroutes twice in a row in one dimension.
"""

from types import SimpleNamespace

import pytest

from repro.config import default_config
from repro.core.base import RouteContext
from repro.core.registry import algorithm_names, make_algorithm
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.types import Packet
from repro.obs import record_hops
from repro.topology.hyperx import HyperX
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import UniformRandom
from repro.traffic.sizes import UniformSize


def _traced_run(algo_name, widths=(3, 3, 3), tpr=2, rate=0.45, cycles=1500,
                seed=3, **algo_kwargs):
    """Run traffic hot enough to trigger deroutes; return the network (for
    the VC map), the delivered packets and their hop log."""
    topo = HyperX(widths, tpr)
    algo = make_algorithm(algo_name, topo, **algo_kwargs)
    net = Network(topo, algo, default_config())
    hops = record_hops(net)
    sim = Simulator(net)
    delivered = []
    for t in net.terminals:
        t.delivery_listeners.append(lambda p, c: delivered.append(p))
    traffic = SyntheticTraffic(
        net, UniformRandom(topo.num_terminals), rate, UniformSize(1, 8), seed=seed
    )
    sim.processes.append(traffic)
    sim.run(cycles)
    traffic.stop()
    sim.drain(max_cycles=200_000)
    assert delivered, "no packets delivered"
    return topo, net, delivered, hops


def _vcs(hops, packet):
    """The output VC of each router-to-router hop of the packet."""
    return [vc for _, _, vc in hops.get(packet.pid, ())]


def _hop_dims(topo, hops, packet):
    """Dimension of each router-to-router hop along the packet's path."""
    dims = []
    router = topo.router_of_terminal(packet.src_terminal)
    for at, port, _ in hops.get(packet.pid, ()):
        assert at == router  # the log is a connected path
        d, coord = topo.port_target(router, port)
        dims.append((d, coord))
        c = list(topo.coords(router))
        c[d] = coord
        router = topo.router_id(c)
    assert router == topo.router_of_terminal(packet.dst_terminal)
    return dims


# ---------------------------------------------------------------------------
# DOR
# ---------------------------------------------------------------------------


def test_dor_paths_minimal_and_dimension_ordered():
    topo, net, pkts, hops = _traced_run("DOR", rate=0.15)
    for p in pkts:
        src_r = topo.router_of_terminal(p.src_terminal)
        dst_r = topo.router_of_terminal(p.dst_terminal)
        assert p.hops == topo.min_hops(src_r, dst_r)
        assert p.deroutes == 0
        dims = [d for d, _ in _hop_dims(topo, hops, p)]
        assert dims == sorted(dims)  # strict dimension order
        # single resource class: class 0 VCs only
        for vc in _vcs(hops, p):
            assert net.vc_map.class_of(vc) == 0


# ---------------------------------------------------------------------------
# VAL
# ---------------------------------------------------------------------------


def test_val_two_phase_classes_and_bounded_hops():
    topo, net, pkts, hops = _traced_run("VAL", rate=0.2)
    n = topo.num_dims
    saw_phase1 = False
    for p in pkts:
        assert p.hops <= 2 * n
        classes = [net.vc_map.class_of(v) for v in _vcs(hops, p)]
        # class sequence is 0...0 1...1 (phase 1 then phase 2)
        assert classes == sorted(classes)
        assert set(classes) <= {0, 1}
        saw_phase1 = saw_phase1 or (0 in classes)
    assert saw_phase1  # random intermediates actually used


def test_val_longer_than_minimal_on_average():
    topo, net, pkts, hops = _traced_run("VAL", rate=0.15)
    mean_hops = sum(p.hops for p in pkts) / len(pkts)
    mean_min = sum(
        topo.min_hops(
            topo.router_of_terminal(p.src_terminal),
            topo.router_of_terminal(p.dst_terminal),
        )
        for p in pkts
    ) / len(pkts)
    assert mean_hops > mean_min + 0.3


# ---------------------------------------------------------------------------
# UGAL / Clos-AD
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["UGAL", "UGAL+"])
def test_source_adaptive_minimal_at_low_load(name):
    """With an unloaded network the weighted decision must pick minimal."""
    topo, net, pkts, hops = _traced_run(name, rate=0.05, cycles=1200)
    val_mode = [p for p in pkts if p.deroutes > 0]
    assert len(val_mode) <= 0.05 * len(pkts)
    for p in pkts:
        if p.deroutes == 0:
            src_r = topo.router_of_terminal(p.src_terminal)
            dst_r = topo.router_of_terminal(p.dst_terminal)
            assert p.hops == topo.min_hops(src_r, dst_r)


@pytest.mark.parametrize("name", ["UGAL", "UGAL+"])
def test_source_adaptive_two_phase_class_order(name):
    topo, net, pkts, hops = _traced_run(name, rate=0.5, cycles=1500)
    for p in pkts:
        classes = [net.vc_map.class_of(v) for v in _vcs(hops, p)]
        assert classes == sorted(classes)
        assert set(classes) <= {0, 1}


def test_closad_nonminimal_adds_exactly_one_hop():
    """Clos-AD's LCA intermediates deviate in a single dimension: val-mode
    paths are at most min+1 hops (vs UGAL's arbitrary Valiant detours)."""
    topo, net, pkts, hops = _traced_run("UGAL+", rate=0.5, cycles=1500)
    for p in pkts:
        src_r = topo.router_of_terminal(p.src_terminal)
        dst_r = topo.router_of_terminal(p.dst_terminal)
        assert p.hops <= topo.min_hops(src_r, dst_r) + 1


# ---------------------------------------------------------------------------
# MIN-AD
# ---------------------------------------------------------------------------


def test_minad_minimal_any_order_distance_classes():
    topo, net, pkts, hops = _traced_run("MIN-AD", rate=0.4)
    any_order = False
    for p in pkts:
        src_r = topo.router_of_terminal(p.src_terminal)
        dst_r = topo.router_of_terminal(p.dst_terminal)
        assert p.hops == topo.min_hops(src_r, dst_r)
        assert p.deroutes == 0
        classes = [net.vc_map.class_of(v) for v in _vcs(hops, p)]
        assert classes == list(range(len(classes)))  # strict distance classes
        dims = [d for d, _ in _hop_dims(topo, hops, p)]
        if dims != sorted(dims):
            any_order = True
    assert any_order  # adaptivity really uses non-DOR orders


# ---------------------------------------------------------------------------
# DimWAR
# ---------------------------------------------------------------------------


def test_dimwar_invariants():
    topo, net, pkts, hops = _traced_run("DimWAR", rate=0.5)
    n = topo.num_dims
    saw_deroute = False
    for p in pkts:
        src_r = topo.router_of_terminal(p.src_terminal)
        dst_r = topo.router_of_terminal(p.dst_terminal)
        min_h = topo.min_hops(src_r, dst_r)
        # fine-grained: each deroute adds exactly one hop
        assert p.hops == min_h + p.deroutes
        assert p.deroutes <= n  # at most one deroute per dimension
        dims = [d for d, _ in _hop_dims(topo, hops, p)]
        assert dims == sorted(dims)  # dimensions strictly in order
        classes = [net.vc_map.class_of(v) for v in _vcs(hops, p)]
        assert set(classes) <= {0, 1}  # 2 resource classes, any dimensionality
        # a deroute (class 1) is always followed by a class-0 hop in the
        # same dimension, and never by another deroute
        for i, k in enumerate(classes):
            if k == 1:
                saw_deroute = True
                assert i + 1 < len(classes), "deroute cannot be the last hop"
                assert classes[i + 1] == 0
                assert dims[i + 1] == dims[i]
        # at most one deroute per dimension
        from collections import Counter

        per_dim = Counter(dims[i] for i, k in enumerate(classes) if k == 1)
        assert all(v <= 1 for v in per_dim.values())
    assert saw_deroute  # the load level exercised the deroute path


def test_dimwar_packet_carries_no_routing_state():
    """Table 1: DimWAR stores nothing in the packet."""
    topo, net, pkts, hops = _traced_run("DimWAR", rate=0.4, cycles=800)
    assert all(p.routing_state == {} for p in pkts)


# ---------------------------------------------------------------------------
# OmniWAR
# ---------------------------------------------------------------------------


def test_omniwar_invariants():
    topo, net, pkts, hops = _traced_run("OmniWAR", rate=0.5)
    n = topo.num_dims
    algo_m = n  # default deroute budget
    saw_deroute = saw_any_order = False
    for p in pkts:
        src_r = topo.router_of_terminal(p.src_terminal)
        dst_r = topo.router_of_terminal(p.dst_terminal)
        min_h = topo.min_hops(src_r, dst_r)
        assert p.hops == min_h + p.deroutes
        assert p.deroutes <= algo_m
        assert p.hops <= n + algo_m
        classes = [net.vc_map.class_of(v) for v in _vcs(hops, p)]
        assert classes == list(range(len(classes)))  # VC_out = VC_in + 1
        dims = [d for d, _ in _hop_dims(topo, hops, p)]
        if dims != sorted(dims):
            saw_any_order = True
        saw_deroute = saw_deroute or p.deroutes > 0
    assert saw_deroute and saw_any_order


def test_omniwar_packet_carries_no_routing_state():
    topo, net, pkts, hops = _traced_run("OmniWAR", rate=0.4, cycles=800)
    assert all(p.routing_state == {} for p in pkts)


def test_omniwar_deroute_budget_zero_is_minimal():
    topo, net, pkts, hops = _traced_run("OmniWAR", rate=0.4, deroutes=0)
    for p in pkts:
        assert p.deroutes == 0
        src_r = topo.router_of_terminal(p.src_terminal)
        dst_r = topo.router_of_terminal(p.dst_terminal)
        assert p.hops == topo.min_hops(src_r, dst_r)


def test_omniwar_b2b_restriction():
    """The Section 5.2 optimization: never two consecutive deroutes in the
    same dimension (but consecutive deroutes in different dimensions are ok)."""
    topo, net, pkts, hops = _traced_run("OmniWAR-b2b", rate=0.55, cycles=2000)
    for p in pkts:
        dest = topo.coords(topo.router_of_terminal(p.dst_terminal))
        prev_deroute_dim = None
        for d, coord in _hop_dims(topo, hops, p):
            was_deroute = coord != dest[d]
            if was_deroute:
                assert d != prev_deroute_dim, "back-to-back deroute in one dim"
                prev_deroute_dim = d
            else:
                prev_deroute_dim = None


def test_omniwar_configurable_budget_reflected_in_classes():
    topo = HyperX((3, 3), 1)
    assert make_algorithm("OmniWAR", topo).num_classes == 4  # N + M = 2 + 2
    assert make_algorithm("OmniWAR", topo, deroutes=1).num_classes == 3
    assert make_algorithm("OmniWAR", topo, deroutes=5).num_classes == 7
    with pytest.raises(ValueError):
        make_algorithm("OmniWAR", topo, deroutes=-1)


@pytest.mark.parametrize("name", algorithm_names())
def test_candidates_read_only_the_router_id(name):
    """``RouterView`` is a router id and nothing else: every registered
    algorithm names its injection candidates for every (source, destination)
    router pair from a view that has no other attribute, so one that read
    congestion would fail here with ``AttributeError``."""
    topo = HyperX((3, 3), 1)
    algo = make_algorithm(name, topo)
    for src in range(topo.num_routers):
        port = topo.terminal_attachment(src).port
        for dst in range(topo.num_routers):
            if dst == src:
                continue
            packet = Packet(src_terminal=src, dst_terminal=dst, size=1,
                            create_cycle=0)
            ctx = RouteContext(
                router=SimpleNamespace(router_id=src), packet=packet,
                input_port=port, input_vc_class=0, from_terminal=True,
            )
            assert algo.candidates(ctx), (name, src, dst)
