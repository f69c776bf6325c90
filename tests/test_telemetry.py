"""Tests for network telemetry (link utilization, congestion maps) and the
windowed time-series sampler built on top of it (repro.obs.timeseries)."""

import math

import pytest

from repro.config import default_config
from repro.core.registry import make_algorithm
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.telemetry import TelemetryProbe
from repro.network.types import Packet
from repro.topology.hyperx import HyperX
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import DimensionComplementReverse, UniformRandom


def _sim(widths=(3, 3), tpr=2, algo="DOR"):
    topo = HyperX(widths, tpr)
    net = Network(topo, make_algorithm(algo, topo), default_config())
    return topo, net, Simulator(net)


def test_idle_network_zero_utilization():
    topo, net, sim = _sim()
    probe = TelemetryProbe(net)
    probe.start_window(0)
    sim.run(100)
    s = probe.utilization_summary(sim.cycle)
    assert s["max"] == 0.0 and s["mean"] == 0.0
    assert probe.oversubscription_ratio(sim.cycle) == 1.0


def test_utilization_tracks_traffic():
    topo, net, sim = _sim()
    probe = TelemetryProbe(net)
    traffic = SyntheticTraffic(net, UniformRandom(topo.num_terminals), 0.4, seed=1)
    sim.processes.append(traffic)
    sim.run(500)
    probe.start_window(sim.cycle)
    sim.run(500)
    s = probe.utilization_summary(sim.cycle)
    assert 0.0 < s["mean"] < 1.0
    assert s["max"] <= 1.0
    assert s["min"] <= s["p95"] <= s["max"]


def test_utilization_p95_is_nearest_rank():
    # 20 router links carrying 0..19 flits over 100 cycles: the nearest-rank
    # p95 is the 19th value (rank ceil(0.95 * 20) = 19), not the maximum.
    topo, net, sim = _sim(widths=(5,), tpr=1)
    probe = TelemetryProbe(net)
    links = [
        ch
        for r in net.routers
        for port, ch in enumerate(r.out_channels)
        if topo.peer(r.router_id, port).is_router
    ]
    assert len(links) == 20
    for flits, ch in enumerate(links):
        ch.utilization_count = flits
    s = probe.utilization_summary(cycle=100)
    assert s["max"] == 0.19
    assert s["p95"] == 0.18


def test_single_flow_lights_one_link():
    topo, net, sim = _sim()
    probe = TelemetryProbe(net)
    probe.start_window(0)
    # one long packet router 0 -> neighbor in dim 0
    nbr = topo.peer(0, 0).router_port.router
    net.terminals[0].offer(Packet(0, nbr * 2, 16, create_cycle=0))
    sim.drain(max_cycles=2000)
    hot = probe.hottest_links(sim.cycle, n=1)[0]
    assert hot.src_router == 0
    assert hot.flits == 16
    assert probe.oversubscription_ratio(sim.cycle) > 5


def test_dimension_utilization_reflects_dcr_funnel():
    """Under DCR with DOR, the Y dimension funnels an X-line's traffic —
    it must be the most (or equally most) utilized dimension."""
    topo, net, sim = _sim(widths=(3, 3, 3), tpr=2, algo="DOR")
    probe = TelemetryProbe(net)
    traffic = SyntheticTraffic(
        net, DimensionComplementReverse(topo), 0.15, seed=2
    )
    sim.processes.append(traffic)
    sim.run(400)
    probe.start_window(sim.cycle)
    sim.run(800)
    util = probe.dimension_utilization(sim.cycle)
    assert set(util) == {0, 1, 2}
    assert all(0.0 <= u <= 1.0 for u in util.values())
    assert max(util.values()) > 0.0


def test_dimension_utilization_requires_hyperx():
    from repro.core.fattree_routing import FatTreeAdaptive
    from repro.topology.fattree import FatTree

    ft = FatTree(2, 2)
    net = Network(ft, FatTreeAdaptive(ft), default_config())
    probe = TelemetryProbe(net)
    probe.start_window(0)
    with pytest.raises(TypeError):
        probe.dimension_utilization(0)


def test_buffer_occupancy_and_class_breakdown():
    topo, net, sim = _sim(widths=(3, 3), tpr=2, algo="DimWAR")
    probe = TelemetryProbe(net)
    occ0 = probe.buffer_occupancy()
    assert occ0 == {"mean": 0.0, "max": 0.0}
    traffic = SyntheticTraffic(net, UniformRandom(topo.num_terminals), 0.8, seed=3)
    sim.processes.append(traffic)
    sim.run(600)
    occ = probe.buffer_occupancy()
    assert occ["max"] >= 1.0
    by_class = probe.vc_occupancy_by_class()
    assert set(by_class) == {0, 1}  # DimWAR's two resource classes
    assert sum(by_class.values()) > 0
    # minimal hops dominate: class 0 carries most of the buffered flits
    assert by_class[0] >= by_class[1]


# ---------------------------------------------------------------------------
# Windowed time series (repro.obs.timeseries) — edge cases
# ---------------------------------------------------------------------------


def test_timeseries_empty_window_reports_nan():
    from repro.obs import TimeSeriesSampler

    topo, net, sim = _sim(widths=(2, 2), tpr=1)
    sampler = TimeSeriesSampler(sim, window=40).attach()
    sim.run(80)  # idle network: nothing injected, nothing delivered
    sampler.finalize(sim.cycle)
    sampler.detach()
    assert [s.span for s in sampler.samples] == [40, 40]
    for s in sampler.samples:
        assert s.offered_flits == s.injected_flits == s.accepted_flits == 0
        assert s.packets_delivered == 0
        assert math.isnan(s.latency_mean)
        assert math.isnan(s.latency_p50) and math.isnan(s.latency_p99)
        assert s.accepted_rate == 0.0
        assert max(s.router_occupancy) == 0


def test_timeseries_attach_after_warmup_aligns_windows():
    """Windows align to the attach cycle and the warmup's flit totals are
    excluded: the first window's deltas count only in-window traffic."""
    from repro.obs import TimeSeriesSampler

    topo, net, sim = _sim(widths=(3, 3), tpr=1)
    traffic = SyntheticTraffic(net, UniformRandom(topo.num_terminals), 0.3, seed=4)
    sim.processes.append(traffic)
    sim.run(137)  # deliberately not a multiple of the window
    warm_ejected = net.total_ejected_flits()
    assert warm_ejected > 0
    sampler = TimeSeriesSampler(sim, window=50).attach()
    sim.run(100)
    sampler.finalize(sim.cycle)
    sampler.detach()
    assert [(s.start, s.end) for s in sampler.samples] == [(137, 187), (187, 237)]
    total_accepted = sum(s.accepted_flits for s in sampler.samples)
    assert total_accepted == net.total_ejected_flits() - warm_ejected


def test_timeseries_finalize_closes_partial_window_once():
    from repro.obs import TimeSeriesSampler

    topo, net, sim = _sim(widths=(2, 2), tpr=1)
    traffic = SyntheticTraffic(net, UniformRandom(topo.num_terminals), 0.2, seed=5)
    sim.processes.append(traffic)
    sampler = TimeSeriesSampler(sim, window=60).attach()
    sim.run(150)
    sampler.finalize(sim.cycle)
    sampler.detach()
    assert [s.span for s in sampler.samples] == [60, 60, 30]
    # Finalizing again at the same cycle must not append an empty window.
    sampler.finalize(sim.cycle)
    assert len(sampler.samples) == 3
    assert sampler.samples[-1].end == 150


def test_timeseries_finalize_at_exact_boundary_yields_full_window():
    """When the run length is a multiple of the window, finalize closes an
    exact (not partial) final window."""
    from repro.obs import TimeSeriesSampler

    topo, net, sim = _sim(widths=(2, 2), tpr=1)
    sampler = TimeSeriesSampler(sim, window=50).attach()
    sim.run(100)
    sampler.finalize(sim.cycle)
    sampler.detach()
    assert [s.span for s in sampler.samples] == [50, 50]


def test_timeseries_rejects_bad_window():
    from repro.obs import TimeSeriesSampler

    topo, net, sim = _sim(widths=(2, 2), tpr=1)
    with pytest.raises(ValueError):
        TimeSeriesSampler(sim, window=0)


def test_timeseries_dimension_utilization_on_hyperx():
    from repro.obs import TimeSeriesSampler

    topo, net, sim = _sim(widths=(3, 3), tpr=1)
    traffic = SyntheticTraffic(net, UniformRandom(topo.num_terminals), 0.3, seed=6)
    sim.processes.append(traffic)
    sampler = TimeSeriesSampler(sim, window=100).attach()
    sim.run(200)
    sampler.detach()
    for s in sampler.samples:
        assert s.dim_utilization is not None
        assert len(s.dim_utilization) == topo.num_dims
        assert all(0.0 <= u <= 1.0 for u in s.dim_utilization)
    assert max(sampler.samples[-1].dim_utilization) > 0.0
