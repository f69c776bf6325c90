"""Tests for the HyperX topology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import DegradedTopology, FaultSet
from repro.topology.base import RouterPort, Topology
from repro.topology.hyperx import HyperX, paper_hyperx, regular_hyperx

SMALL = [
    (2,),
    (3,),
    (2, 2),
    (4, 3),
    (2, 3, 4),
    (3, 3, 3),
]


def test_rejects_bad_widths():
    with pytest.raises(ValueError):
        HyperX((), 1)
    with pytest.raises(ValueError):
        HyperX((1, 4), 2)
    with pytest.raises(ValueError):
        HyperX((4, 4), 0)


def test_counts_regular():
    hx = HyperX((4, 4), 2)
    assert hx.num_routers == 16
    assert hx.num_terminals == 32
    assert hx.num_dims == 2
    assert hx.router_radix == 3 + 3 + 2
    assert hx.num_router_ports == 6


def test_counts_mixed_widths():
    hx = HyperX((2, 5, 3), 4)
    assert hx.num_routers == 30
    assert hx.num_terminals == 120
    assert hx.router_radix == 1 + 4 + 2 + 4


def test_paper_network_shape():
    hx = paper_hyperx()
    assert hx.widths == (8, 8, 8)
    assert hx.num_routers == 512
    assert hx.num_terminals == 4096  # the paper's 4,096-node system
    assert hx.router_radix == 3 * 7 + 8  # 29-port routers


@pytest.mark.parametrize("widths", SMALL)
def test_coords_roundtrip(widths):
    hx = HyperX(widths, 2)
    for r in range(hx.num_routers):
        c = hx.coords(r)
        assert hx.router_id(c) == r
        assert all(0 <= x < w for x, w in zip(c, widths))


def test_all_coords_matches_ids():
    hx = HyperX((3, 2, 4), 1)
    listed = list(hx.all_coords())
    assert listed == [hx.coords(r) for r in range(hx.num_routers)]


@pytest.mark.parametrize("widths", SMALL)
def test_validate_structure(widths):
    HyperX(widths, 2).validate()


def test_dim_port_roundtrip():
    hx = HyperX((4, 3), 2)
    for r in range(hx.num_routers):
        own = hx.coords(r)
        for d in range(2):
            for c in range(hx.widths[d]):
                if c == own[d]:
                    with pytest.raises(ValueError):
                        hx.dim_port(r, d, c)
                    continue
                p = hx.dim_port(r, d, c)
                assert hx.port_target(r, p) == (d, c)
                assert hx.port_dim(r, p) == d


def test_peer_symmetry_and_single_dim_difference():
    hx = HyperX((3, 3, 2), 2)
    for r in range(hx.num_routers):
        for port in range(hx.num_router_ports):
            peer = hx.peer(r, port)
            assert peer.is_router
            rp = peer.router_port
            # single-coordinate difference: fully connected dimensions
            a, b = hx.coords(r), hx.coords(rp.router)
            assert sum(1 for x, y in zip(a, b) if x != y) == 1
            back = hx.peer(rp.router, rp.port)
            assert back.router_port == RouterPort(r, port)


def test_terminal_attachment_dense_and_consistent():
    hx = HyperX((2, 3), 3)
    for t in range(hx.num_terminals):
        att = hx.terminal_attachment(t)
        assert hx.peer(att.router, att.port).terminal == t
        assert hx.router_of_terminal(t) == t // 3


def test_min_hops_is_hamming_distance():
    hx = HyperX((4, 4, 4), 1)
    assert hx.min_hops(0, 0) == 0
    a = hx.router_id((0, 0, 0))
    b = hx.router_id((1, 0, 3))
    assert hx.min_hops(a, b) == 2
    c = hx.router_id((3, 2, 1))
    assert hx.min_hops(a, c) == 3


def test_diameter_equals_dimensions():
    for widths in [(3,), (3, 3), (2, 3, 2)]:
        hx = HyperX(widths, 1)
        assert hx.diameter() == len(widths)


def test_unaligned_dims():
    hx = HyperX((4, 4, 4), 1)
    assert hx.unaligned_dims((0, 1, 2), (0, 1, 2)) == []
    assert hx.unaligned_dims((0, 1, 2), (3, 1, 0)) == [0, 2]


def test_relative_bisection_bandwidth_paper_value():
    # The paper's 8x8x8 with 8 terminals/router: "assuming the bisection
    # capacity of the network is 50%".
    hx = paper_hyperx()
    for d in range(3):
        assert hx.relative_bisection_bandwidth(d) == pytest.approx(0.5)


def test_bisection_channels():
    hx = HyperX((4, 4), 2)
    # per dimension: halves of 2x2 routers, 2*2 = 4 crossing channels per
    # instance, times 4 instances of the dimension
    assert hx.bisection_channels(0) == 4 * 4
    assert hx.bisection_channels(1) == 4 * 4


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(2, 5), min_size=1, max_size=3).map(tuple),
    tpr=st.integers(1, 4),
    data=st.data(),
)
def test_property_roundtrips(widths, tpr, data):
    hx = HyperX(widths, tpr)
    r = data.draw(st.integers(0, hx.num_routers - 1))
    assert hx.router_id(hx.coords(r)) == r
    t = data.draw(st.integers(0, hx.num_terminals - 1))
    att = hx.terminal_attachment(t)
    assert hx.peer(att.router, att.port).terminal == t
    # min_hops is a metric bounded by the dimension count
    r2 = data.draw(st.integers(0, hx.num_routers - 1))
    d = hx.min_hops(r, r2)
    assert 0 <= d <= len(widths)
    assert d == hx.min_hops(r2, r)
    assert (d == 0) == (r == r2)


def test_regular_hyperx_helper():
    hx = regular_hyperx(2, 4, 3)
    assert hx.widths == (4, 4)
    assert hx.terminals_per_router == 3


TEMPLATE_SHAPES = [((8, 8, 8), 1), ((4, 4, 4), 4), ((3, 5, 2), 2), ((16, 16), 3)]


@pytest.mark.parametrize("widths,tpr", TEMPLATE_SHAPES)
def test_template_port_walk_equals_per_port_peer_walk(widths, tpr):
    """``HyperX.router_ports`` reads a per-dimension template; the generic
    ``Topology.router_ports`` (one ``peer()`` per port) is its reference."""
    topo = HyperX(widths, tpr)
    for r in range(topo.num_routers):
        assert list(topo.router_ports(r)) == list(Topology.router_ports(topo, r))
    topo.validate()


def test_template_port_walk_survives_fault_masking():
    base = HyperX((4, 4, 4), 2)
    faults = FaultSet().fail_link(0, 0).fail_link(21, 5).fail_router(42)
    topo = DegradedTopology(base, faults)
    masked = 0
    for r in range(topo.num_routers):
        walk = list(topo.router_ports(r))
        assert walk == list(Topology.router_ports(topo, r))
        masked += sum(1 for _, peer in walk if peer.is_missing)
    assert masked == len(topo.faults.failed_ports) > 4
    topo.validate()
