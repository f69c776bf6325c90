"""Tests for message-trace record and replay."""

import pytest

from repro.application.engine import StencilApplication
from repro.application.placement import RandomPlacement
from repro.application.stencil import StencilDecomposition
from repro.application.trace import (
    MessageTrace,
    TracedMessage,
    TraceReplay,
    record_stencil_trace,
)
from repro.config import default_config
from repro.core.registry import make_algorithm
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.topology.hyperx import HyperX


def _record(algo="DimWAR", seed=1):
    topo = HyperX((3, 3), 2)
    net = Network(topo, make_algorithm(algo, topo), default_config())
    sim = Simulator(net)
    decomp = StencilDecomposition((2, 2, 2), aggregate_flits=52)
    pl = RandomPlacement(decomp.num_ranks, topo.num_terminals, seed=seed)
    app = StencilApplication(net, decomp, pl, iterations=1, mode="full")
    trace = record_stencil_trace(app, sim)
    return topo, app, trace


def test_record_counts_every_message():
    topo, app, trace = _record()
    assert len(trace) == app.messages_sent
    assert trace.num_terminals == topo.num_terminals
    trace.validate()
    assert trace.total_flits > 0
    assert trace.span_cycles > 0


def test_roundtrip_serialization(tmp_path):
    _, _, trace = _record()
    path = tmp_path / "trace.jsonl"
    trace.save(str(path))
    loaded = MessageTrace.load(str(path))
    assert loaded.num_terminals == trace.num_terminals
    assert loaded.messages == trace.messages


def test_loads_rejects_garbage():
    with pytest.raises(ValueError):
        MessageTrace.loads("")
    bad = MessageTrace(
        [TracedMessage(0, 0, 999, 4, "halo")], num_terminals=8
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_replay_delivers_everything():
    topo, _, trace = _record()
    net = Network(topo, make_algorithm("OmniWAR", topo), default_config())
    sim = Simulator(net)
    replay = TraceReplay(net, trace)
    t = replay.run(sim, max_cycles=500_000)
    assert t > 0
    assert replay.posted == len(trace)
    assert net.total_ejected_flits() == trace.total_flits


def test_replay_comparable_across_algorithms():
    """The same captured workload replayed under two algorithms: both
    complete; completion times are comparable numbers."""
    topo, _, trace = _record()
    times = {}
    for algo in ("DOR", "OmniWAR"):
        net = Network(topo, make_algorithm(algo, topo), default_config())
        sim = Simulator(net)
        times[algo] = TraceReplay(net, trace).run(sim, max_cycles=500_000)
    assert times["DOR"] >= trace.span_cycles - 1
    assert times["OmniWAR"] >= trace.span_cycles - 1


def test_replay_requires_matching_size():
    _, _, trace = _record()
    small = HyperX((2, 2), 1)
    net = Network(small, make_algorithm("DOR", small), default_config())
    with pytest.raises(ValueError):
        TraceReplay(net, trace)


def test_trace_replay_attached_late_catches_up():
    """A replay attached to a simulator whose clock is already past some
    post_cycle posts the overdue messages on its first executed cycle
    (it used to wait for an exact cycle match that never came)."""
    topo, _, trace = _record()
    late = trace.span_cycles // 2
    assert 0 < sum(m.post_cycle < late for m in trace.messages) < len(trace)
    net = Network(topo, make_algorithm("DimWAR", topo), default_config())
    sim = Simulator(net)
    sim.run(late)
    replay = TraceReplay(net, trace)
    t = replay.run(sim, max_cycles=50_000)
    assert replay.all_posted and replay.posted == len(trace)
    assert t >= late
    assert net.total_ejected_flits() == trace.total_flits
    assert replay.next_wakeup(sim.cycle) is None

