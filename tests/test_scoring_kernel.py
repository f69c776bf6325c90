"""Reference-model test for the router's scoring loop, plus route-cache
eviction and telemetry.

``Router._choose`` is the one loop every routing decision goes through.  It
inlines, per candidate, what the reference functions below spell out from
router state alone: :func:`allocate_vc` picks the output VC,
:func:`port_congestion` estimates congestion (the paper's locally observable
credits consumed and flits staged, through the configured mode's own
formula), and
``repro.core.weights.route_weight`` turns that into the paper's
``congestion x hopcount`` weight; ties break on a pre-drawn jitter stream.
:class:`ReferenceModel` re-scores **every** decision of a loaded run through
exactly those functions, from its own copy of each router's jitter stream,
and demands the record the route hook delivers — chosen candidate,
allocated VC, and the bit-exact float weight of every candidate — match.
A divergence is localised to the routing decision that produced it.

The route cache's clock eviction is tested the same way: a capacity small
enough to thrash must bound the cache, count its evictions, and change
nothing about simulation results.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RouterConfig, SimConfig
from repro.core.base import RouteCandidate, RouteContext
from repro.core.registry import make_algorithm
from repro.core.weights import estimator_modes, route_weight
from repro.network.network import Network
from repro.network.router import JITTER_RING
from repro.network.simulator import Simulator
from repro.network.telemetry import TelemetryProbe
from repro.network.types import Packet
from repro.topology.hyperx import HyperX
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import UniformRandom

#: HyperX algorithms with a non-None ``cache_key`` (memoised skeletons) ...
CACHEABLE_ALGOS = ["DOR", "MIN-AD", "DimWAR", "OmniWAR"]
#: ... and those without one (a fresh skeleton per decision).
STATEFUL_ALGOS = ["VAL", "UGAL", "UGAL+", "ROMM", "O1Turn"]


# ---------------------------------------------------------------------------
# Reference functions over router state
# ---------------------------------------------------------------------------


def allocate_vc(router, out_port, vc_class):
    """The free VC of the class group with the most credits (lowest index
    on ties), or None when every VC of the group is owned or uncredited."""
    credits = router.credit_trackers[out_port].credits
    owner = router.out_vc_owner[out_port]
    best = None
    for v in router.vc_map.vcs_of(vc_class):
        if owner[v] is None and credits[v] > 0 and (
            best is None or credits[v] > credits[best]
        ):
            best = v
    return best


def port_congestion(router, out_port):
    """Congestion over every VC of an output port, through the configured
    mode's own formula: downstream slots whose credit is consumed
    (``credit``), flits staged here plus, under sequential allocation,
    flits committed earlier this cycle (``queue``), or their sum
    (``credit_queue``), over the port's slots."""
    rc = router.cfg.router
    vcs = range(rc.num_vcs)
    credits = router.credit_trackers[out_port].credits
    staged = router.staged[out_port]
    occ = sum(rc.buffer_depth - credits[v] for v in vcs)
    stg = sum(len(staged[v]) for v in vcs)
    if rc.sequential_allocation:
        stg += router._pending_commit[out_port]
    slots = len(vcs) * rc.buffer_depth
    if rc.congestion_mode == "credit":
        return occ / slots
    if rc.congestion_mode == "queue":
        return stg / slots
    assert rc.congestion_mode == "credit_queue", rc.congestion_mode
    return (occ + stg) / slots


class ReferenceModel:
    """Route hook that re-derives each decision from router state.

    Attach before the first cycle: the tie-break jitter is replayed from a
    copy of each router's generator (one block of 4096 draws, consumed one
    per *feasible* candidate, wrapping), so the model must see every
    decision a router makes.
    """

    def __init__(self, net):
        self.decisions = 0
        self.contested = 0  # decisions with >= 2 distinct feasible weights
        self._jitter = {}
        self._jidx = {}
        for r in net.routers:
            self._jitter[r.router_id] = copy.deepcopy(r.rng).random(4096).tolist()
            self._jidx[r.router_id] = 0
            r.add_route_hook(self)

    def __call__(self, cycle, router, in_port, in_vc, ctx, cand, out_vc, scored):
        rc = router.cfg.router
        packet = ctx.packet
        # The hook fires after the commit; rewind its two effects on what
        # the scorer reads (VC ownership, sequential-allocation pending
        # flits) so the model sees the state the decision was made in.
        owner = router.out_vc_owner[cand.out_port]
        holder = in_port * rc.num_vcs + in_vc
        assert owner[out_vc] == holder
        owner[out_vc] = None
        if rc.sequential_allocation:
            router._pending_commit[cand.out_port] -= packet.size
        try:
            jitter = self._jitter[router.router_id]
            jidx = self._jidx[router.router_id]
            expected = []
            best = None
            for c, _, _ in scored:
                v = allocate_vc(router, c.out_port, c.vc_class)
                if v is None:
                    expected.append((c, None, None))
                    continue
                w = route_weight(port_congestion(router, c.out_port), c.hops)
                j = jitter[jidx]
                jidx = (jidx + 1) % 4096
                expected.append((c, v, w))
                if best is None or (w, j) < best[:2]:
                    best = (w, j, c, v)
            self._jidx[router.router_id] = jidx
        finally:
            owner[out_vc] = holder
            if rc.sequential_allocation:
                router._pending_commit[cand.out_port] += packet.size
        where = f"cycle {cycle} router {router.router_id} packet {packet.pid}"
        # == on floats is the point: weights must match bit for bit.
        assert scored == expected, where
        assert best is not None and best[2] is cand and best[3] == out_vc, where
        self.decisions += 1
        if len({w for _, _, w in expected if w is not None}) > 1:
            self.contested += 1


def _audited_run(algo_name, widths, tpr, rate, seed, cycles, **router):
    """Run a loaded sim with the reference model attached to every router."""
    cfg = SimConfig(router=RouterConfig(**router)).validated()
    topo = HyperX(widths, tpr)
    net = Network(topo, make_algorithm(algo_name, topo), cfg)
    sim = Simulator(net)
    model = ReferenceModel(net)
    sim.processes.append(
        SyntheticTraffic(net, UniformRandom(topo.num_terminals), rate, seed=seed)
    )
    sim.run(cycles)
    return model


@settings(max_examples=60)
@given(
    algo=st.sampled_from(CACHEABLE_ALGOS + STATEFUL_ALGOS),
    widths=st.sampled_from([(2, 2), (3, 2), (3, 3), (2, 2, 2)]),
    tpr=st.integers(min_value=1, max_value=2),
    rate=st.sampled_from([0.15, 0.3, 0.45, 0.6]),
    seed=st.integers(min_value=0, max_value=2**16),
    sequential=st.booleans(),
    mode=st.sampled_from(estimator_modes()),
)
def test_kernel_weights_equal_reference(
    algo, widths, tpr, rate, seed, sequential, mode
):
    """Scoring-loop record == reference congestion x hops weights, bit-exact,
    for random router states across cacheable and stateful algorithms,
    sequential allocation and every estimator mode."""
    model = _audited_run(
        algo, widths, tpr, rate, seed, 250,
        sequential_allocation=sequential, congestion_mode=mode,
    )
    assert model.decisions, "loaded run made no routing decisions — vacuous"


def test_kernel_weights_match_under_ablation_modes():
    """A fixed, loaded pin of the branches the default config never takes:
    the ``credit`` and ``queue`` estimator modes with and without
    sequential allocation, for a memoised and an un-memoised algorithm —
    and a check that the weights actually discriminated."""
    for algo in ("OmniWAR", "UGAL+"):
        for mode in ("credit", "queue"):
            for sequential in (False, True):
                model = _audited_run(
                    algo, (3, 3), 2, 0.4, 7, 300, congestion_mode=mode,
                    sequential_allocation=sequential,
                )
                assert model.contested > 50, (
                    algo, mode, sequential, model.contested
                )


# ---------------------------------------------------------------------------
# The jitter ring
# ---------------------------------------------------------------------------


def test_jitter_ring_grown_in_chunks_is_the_one_block_stream():
    """One router scores > 4096 feasible candidates, seven per decision, so
    decisions straddle every growth boundary (64, 128, ... 2048) and the
    4096 wrap.  Every candidate ties on weight (idle network, equal hops),
    so the winner is the candidate holding the smallest draw: the draws
    *consumed* must be ``copy.deepcopy(rng).random(4096)`` modulo 4096."""
    topo = HyperX((8, 8), 1)
    net = Network(topo, make_algorithm("DimWAR", topo), SimConfig().validated())
    router = net.routers[0]
    ring = copy.deepcopy(router.rng).random(JITTER_RING).tolist()
    chosen = []
    router.add_route_hook(lambda *call: chosen.append(call[5:7]))
    cands = [RouteCandidate(port, 0, 1) for port in range(7)]
    skel = router._build_skeleton(cands)
    packet = Packet(src_terminal=0, dst_terminal=9, size=1, create_cycle=0)
    ctx = RouteContext(router=router, packet=packet, input_port=14,
                       input_vc_class=0, from_terminal=True)
    assert router._jitter == []
    lengths, straddled, idx = set(), 0, 0
    while idx <= JITTER_RING + 100:
        before = len(router._jitter)
        assert router._choose(0, 14, 0, ctx, skel) is not None
        cand, out_vc = chosen.pop()
        router.out_vc_owner[cand.out_port][out_vc] = None  # all stay feasible
        draws = [ring[(idx + k) % JITTER_RING] for k in range(7)]
        assert cand is cands[draws.index(min(draws))], idx
        idx += 7
        assert router._jitter_idx == idx % JITTER_RING
        lengths.add(len(router._jitter))
        straddled += idx - 7 < before < idx  # draws on both sides of the end
    assert lengths == {64 << n for n in range(7)}  # 64, 128, ... 4096
    assert straddled == 7  # six growth boundaries and the wrap
    assert router._jitter == ring


# ---------------------------------------------------------------------------
# Route-cache eviction
# ---------------------------------------------------------------------------


def _loaded(cap=None, cycles=400):
    topo = HyperX((3, 3), 2)
    net = Network(topo, make_algorithm("OmniWAR", topo),
                  SimConfig().validated())
    if cap is not None:
        for r in net.routers:
            r._route_cache_cap = cap
    sim = Simulator(net)
    sim.processes.append(
        SyntheticTraffic(net, UniformRandom(topo.num_terminals), 0.4, seed=3)
    )
    sim.run(cycles)
    return net


def test_route_cache_eviction_bounds_cache_and_counts():
    net = _loaded(cap=2)
    evictions = sum(r.route_cache_evictions for r in net.routers)
    assert evictions > 0, "cap=2 under 9 destinations must thrash"
    for r in net.routers:
        assert len(r._route_cache) <= 2
        # Counter consistency: every lookup is exactly one hit or miss, and
        # the cache can only have evicted entries it first admitted.
        assert r.route_cache_hits + r.route_cache_misses > 0
        assert r.route_cache_evictions <= r.route_cache_misses


def test_route_cache_eviction_does_not_change_results():
    full = _loaded()
    tiny = _loaded(cap=2)
    assert sum(r.route_cache_evictions for r in full.routers) == 0
    assert (
        full.total_ejected_flits() == tiny.total_ejected_flits()
        and sum(r.flits_forwarded for r in full.routers)
        == sum(r.flits_forwarded for r in tiny.routers)
    )


def test_telemetry_aggregates_route_cache_counters():
    net = _loaded(cap=2)
    stats = TelemetryProbe(net).route_cache_stats()
    assert stats["hits"] == sum(r.route_cache_hits for r in net.routers)
    assert stats["misses"] == sum(r.route_cache_misses for r in net.routers)
    assert stats["evictions"] == sum(
        r.route_cache_evictions for r in net.routers
    )
    assert 0.0 < stats["hit_rate"] < 1.0


def test_telemetry_route_cache_stats_idle_network():
    topo = HyperX((2, 2), 1)
    net = Network(topo, make_algorithm("DOR", topo), SimConfig().validated())
    stats = TelemetryProbe(net).route_cache_stats()
    assert stats == {"hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0}
