"""Tests for channels, buffers, credit trackers, the credit calendar,
arbitration, and core types."""

from collections import deque
from types import SimpleNamespace

import pytest

from repro.config import RouterConfig, SimConfig, paper_scale
from repro.core.registry import make_algorithm
from repro.core.vcmap import VcMap
from repro.network.buffers import CreditTracker
from repro.network.channel import Channel
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.terminal import Terminal
from repro.network.types import Flit, Message, Packet
from repro.topology.hyperx import HyperX


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------


def _driven(latency):
    """A standalone channel, registered with a bare network the simulator's
    delivery phase drains, and the list its sink appends to."""
    out = []
    net = SimpleNamespace(_calendar=[[]], _active_channels={},
                          _active_routers={}, _active_terminals={})
    ch = Channel(latency, out.append)
    ch._active_set = net._active_channels
    return ch, Simulator(net), out


def test_channel_latency_exact():
    ch, sim, out = _driven(3)
    sim.run(10)
    ch.push(10, "a")
    sim.run(3)  # cycles 10, 11, 12
    assert out == []
    sim.run(1)
    assert out == ["a"]
    assert not ch.busy


def test_channel_orders_items():
    ch, sim, out = _driven(2)
    ch.push(0, "a")
    sim.run(1)
    ch.push(1, "b")
    sim.run(2)  # cycles 1, 2
    assert out == ["a"]
    sim.run(1)
    assert out == ["a", "b"]


def test_channel_rate_limit():
    ch = Channel(1, lambda item: None)
    ch.push(5, "a")
    with pytest.raises(RuntimeError):
        ch.push(5, "b")
    # past cycles also rejected (simulation time is monotonic)
    with pytest.raises(RuntimeError):
        ch.push(4, "c")


def test_channel_rejects_zero_latency():
    with pytest.raises(ValueError):
        Channel(0, lambda item: None)


def test_channel_utilization_count():
    ch = Channel(1, lambda item: None)
    for c in range(4):
        ch.push(c, c)
    assert ch.utilization_count == 4
    assert ch.in_flight == 4


# ---------------------------------------------------------------------------
# Buffers and credits
# ---------------------------------------------------------------------------


def _flit(size=1, idx=0):
    return Flit(Packet(0, 1, size, create_cycle=0), idx)


def test_input_unit_receive_and_overflow():
    """A port's unit buffers into its router's flat table at its own slots
    (``port * num_vcs + vc``), refuses a flit past the buffer depth, and
    keeps no per-port table a stale ``unit.fifos[vc]`` could read."""
    topo = HyperX((2,), 1)
    cfg = SimConfig(router=RouterConfig(num_vcs=2, buffer_depth=2))
    router = Network(topo, make_algorithm("DOR", topo), cfg).routers[0]
    iu, neighbour = router.inputs[1], router.inputs[0]
    iu.receive(0, _flit())
    iu.accept((0, _flit()))
    assert iu.occupancy(0) == 2
    assert iu.occupancy() == 2
    with pytest.raises(RuntimeError, match="overflow on VC 0"):
        iu.receive(0, _flit())
    with pytest.raises(RuntimeError, match="overflow on VC 0"):
        iu.accept((0, _flit()))
    iu.receive(1, _flit())
    assert iu.occupancy() == 3
    assert [len(q) for q in router.fifos] == [0, 0, 2, 1]
    assert neighbour.occupancy() == 0 and neighbour.occupancy(0) == 0
    for name in ("fifos", "routes"):
        with pytest.raises(AttributeError):
            getattr(iu, name)


def test_credit_tracker_protocol():
    ct = CreditTracker(num_vcs=2, depth=3)
    assert ct.available(0) == 3
    ct.consume(0)
    ct.consume(0)
    assert ct.available(0) == 1
    assert ct.occupied(0) == 2
    assert ct.total_occupied() == 2
    ct.restore(0)
    assert ct.available(0) == 2


def test_credit_tracker_underflow_overflow():
    ct = CreditTracker(1, 1)
    ct.consume(0)
    with pytest.raises(RuntimeError):
        ct.consume(0)
    ct.restore(0)
    with pytest.raises(RuntimeError):
        ct.restore(0)


# ---------------------------------------------------------------------------
# The credit calendar
# ---------------------------------------------------------------------------


class _RestoreLog:
    """Stands in the calendar for ``tracker``: logs ``(cycle, vc)`` per
    restore, then restores."""

    def __init__(self, sim, tracker):
        self.sim, self.tracker, self.latency = sim, tracker, tracker.latency
        self.log = []

    def restore(self, vc):
        self.log.append((self.sim.cycle, vc))
        self.tracker.restore(vc)


class _CycleCount:
    """A process that counts executed cycles and never blocks a jump."""

    def __init__(self):
        self.calls = 0

    def __call__(self, cycle):
        self.calls += 1

    def next_wakeup(self, cycle):
        return None


def _ejection_hop(cfg):
    """Terminal 1 of a 2-router line, its ejection credits logged."""
    topo = HyperX((2,), 1)
    net = Network(topo, make_algorithm("DOR", topo), cfg)
    sim = Simulator(net)
    term = net.terminals[1]
    log = _RestoreLog(sim, term.eject_credits)
    term.eject_credits = log
    return net, sim, term, log


def _arrive(term, vc):
    """A one-flit packet's flit, arrived at ``term`` for this cycle's step."""
    term.accept((vc, Flit(Packet(0, 1, 1, create_cycle=0), 0)))


@pytest.mark.parametrize("cfg", [SimConfig(), paper_scale()], ids=["default", "paper"])
@pytest.mark.parametrize("skip", [True, False], ids=["skip", "per_cycle"])
def test_a_credit_is_restored_exactly_its_latency_later(cfg, skip):
    """A credit returned at cycle c toward a tracker of latency L is restored
    at c + L: never earlier, never later, also when the clock jumps the gap."""
    net, sim, term, log = _ejection_hop(cfg)
    L = cfg.network.channel_latency_rt
    assert log.latency == L and len(net._calendar) > L
    sim.run(5)
    log.tracker.consume(2)  # the slot the arriving flit held
    _arrive(term, 2)  # the terminal steps, and returns the credit, at cycle 5
    executed = sim.add_process(_CycleCount())
    if not skip:
        sim.add_process(lambda cycle: None)  # no next_wakeup: every cycle runs
    sim.run(3 * L)
    assert log.log == [(5 + L, 2)]
    assert log.tracker.credits[2] == log.tracker.depth
    assert executed.calls == (2 if skip else 3 * L)  # cycles 5 and 5 + L
    assert not any(net._calendar) and net.quiescent()


def test_credit_calendar_allows_bursts():
    """Credits due in one cycle toward one tracker are all restored in it
    (an input port may forward ``input_speedup`` flits per cycle)."""
    net, sim, _, log = _ejection_hop(SimConfig())
    log.tracker.consume(0)
    log.tracker.consume(0)
    net._calendar[3] += [(log, 0), (log, 0)]
    assert net.credits_returning() == {(log, 0): 2} and not net.quiescent()
    sim.run(10)
    assert log.log == [(3, 0), (3, 0)]
    assert log.tracker.credits[0] == log.tracker.depth


def test_a_restore_past_depth_still_raises():
    _, sim, term, _ = _ejection_hop(SimConfig())
    _arrive(term, 2)  # no credit was consumed for this flit
    with pytest.raises(RuntimeError, match="credit overflow on VC 2"):
        sim.run(10)


# ---------------------------------------------------------------------------
# Arbitration (age order is pinned by the trace goldens)
# ---------------------------------------------------------------------------


def _arbiter_cfg(kind, num_vcs=8):
    return SimConfig(router=RouterConfig(num_vcs=num_vcs, arbiter=kind))


def _output_grants(flits_per_vc, num_vcs):
    """Stage one-flit packets on a standalone round-robin router's output
    port (``flits_per_vc[vc]`` of them per VC, all past the crossbar), run
    its output pass, and return the grant order read off the data channel."""
    topo = HyperX((2,), 1)
    net = Network(topo, make_algorithm("DOR", topo), _arbiter_cfg("round_robin", num_vcs))
    router, port = net.routers[0], topo.dim_port(0, 0, 1)
    for vc, n in enumerate(flits_per_vc):
        if n:
            router.staged[port][vc] = deque((0, _flit()) for _ in range(n))
            router._staged_live[port].append(vc)
    router._staged_count[port] = sum(flits_per_vc)
    router._active_out[port] = None
    for cycle in range(sum(flits_per_vc)):
        router.step(cycle)
    assert router.idle
    return [vc for vc, _ in router.out_channels[port].pending_payloads()]


def test_round_robin_rotates():
    # VCs 0 and 2 request; priority moves just past each grant.
    assert _output_grants([3, 0, 2, 0], num_vcs=4) == [0, 2, 0, 2, 0]


def test_round_robin_no_starvation():
    grants = _output_grants([3, 3, 3], num_vcs=3)
    assert grants == [0, 1, 2] * 3
    for g in (0, 1, 2):
        assert grants.count(g) == 3


def test_arbiter_kind_checked_at_build():
    topo = HyperX((2,), 1)
    for kind in ("age", "round_robin"):
        Network(topo, make_algorithm("DOR", topo), _arbiter_cfg(kind))
    with pytest.raises(ValueError, match="unknown arbiter"):
        Network(topo, make_algorithm("DOR", topo), _arbiter_cfg("priority"))


# ---------------------------------------------------------------------------
# Terminal ejection
# ---------------------------------------------------------------------------


def test_terminal_consumes_the_one_flit_that_arrived():
    topo = HyperX((2,), 1)
    algo = make_algorithm("DOR", topo)
    term = Terminal(0, algo, VcMap(algo.num_classes, 8))
    credits = CreditTracker(8, 4)
    term.eject_credits = credits
    pkt = Packet(1, 0, 2, create_cycle=0)
    term.accept((3, Flit(pkt, 0)))
    assert term.occupancy() == term.occupancy(3) == 1
    assert term.occupancy(5) == 0 and not term.idle
    with pytest.raises(RuntimeError, match="ejection protocol"):
        term.accept((5, Flit(pkt, 1)))  # a second arrival before the step
    term.step(7)
    assert term.idle and term.flits_ejected == 1 and pkt.eject_cycle is None
    term.accept((5, Flit(pkt, 1)))
    term.step(8)
    # One credit per flit, in the standalone terminal's one-bucket calendar.
    assert term._calendar == [[(credits, 3), (credits, 5)]]
    assert pkt.eject_cycle == 8 and term.packets_delivered == 1


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def test_packet_flits_head_tail():
    p = Packet(0, 1, 3, create_cycle=5)
    flits = p.flits()
    assert len(flits) == 3
    assert flits[0].is_head and not flits[0].is_tail
    assert flits[2].is_tail and not flits[2].is_head
    assert not flits[1].is_head and not flits[1].is_tail


def test_single_flit_packet_is_head_and_tail():
    f = Packet(0, 1, 1, create_cycle=0).flits()[0]
    assert f.is_head and f.is_tail


def test_packet_latency_and_age_key():
    p = Packet(0, 1, 2, create_cycle=10)
    assert p.latency is None
    p.eject_cycle = 35
    assert p.latency == 25
    q = Packet(0, 1, 2, create_cycle=9)
    assert q.age_key < p.age_key  # older first


def test_packet_ids_unique():
    ids = {Packet(0, 1, 1, create_cycle=0).pid for _ in range(100)}
    assert len(ids) == 100


def test_packet_rejects_empty():
    with pytest.raises(ValueError):
        Packet(0, 1, 0, create_cycle=0)


def test_message_completion():
    m = Message(0, 1, size_flits=20)
    m.packets_total = 2
    assert not m.complete
    m.packets_delivered = 2
    assert m.complete
