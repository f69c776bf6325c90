"""Hypothesis property tests over whole simulations.

For randomly drawn small topologies, algorithms, loads, and seeds:

* flit conservation — everything injected is ejected after drain,
* correct delivery — every packet lands at its destination terminal,
* path-length invariants — hops within [min_hops, algorithm max],
* per-packet VC-class legality under the algorithm's deadlock scheme.

These generalize the hand-picked cases in test_simulation.py to the whole
configuration space the library exposes.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.theory import max_hops
from repro.config import default_config
from repro.core.registry import make_algorithm
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.obs import record_hops
from repro.topology.hyperx import HyperX
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import UniformRandom
from repro.traffic.sizes import UniformSize

topologies = st.sampled_from(
    [
        HyperX((3,), 2),
        HyperX((2, 2), 2),
        HyperX((3, 3), 1),
        HyperX((2, 3), 2),
        HyperX((2, 2, 2), 1),
        HyperX((3, 2, 2), 2),
    ]
)
algorithms = st.sampled_from(
    ["DOR", "VAL", "UGAL", "UGAL+", "MIN-AD", "DimWAR", "OmniWAR", "OmniWAR-b2b"]
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    topo=topologies,
    algo_name=algorithms,
    rate=st.sampled_from([0.1, 0.3, 0.6]),
    seed=st.integers(0, 1000),
)
def test_simulation_invariants(topo, algo_name, rate, seed):
    algo = make_algorithm(algo_name, topo)
    net = Network(topo, algo, default_config(seed=seed))
    hops = record_hops(net)
    sim = Simulator(net)
    delivered = []
    for t in net.terminals:
        t.delivery_listeners.append(
            lambda p, c, tid=t.terminal_id: delivered.append((p, tid))
        )
    traffic = SyntheticTraffic(
        net, UniformRandom(topo.num_terminals), rate, UniformSize(1, 8), seed=seed
    )
    sim.processes.append(traffic)
    sim.run(600)
    traffic.stop()
    assert sim.drain(max_cycles=300_000), (
        f"{algo_name} failed to drain on {topo!r} at rate {rate}"
    )
    # conservation
    assert net.total_injected_flits() == net.total_ejected_flits()
    assert net.total_injected_flits() == traffic.flits_generated
    assert net.flits_in_flight() == 0
    # correctness + path invariants
    bound = max_hops(topo, algo_name)
    for p, tid in delivered:
        assert p.dst_terminal == tid
        src_r = topo.router_of_terminal(p.src_terminal)
        dst_r = topo.router_of_terminal(p.dst_terminal)
        assert topo.min_hops(src_r, dst_r) <= p.hops <= bound
        assert p.eject_cycle >= p.create_cycle
        # every hop used a VC legal for its resource class count
        for _, _, vc in hops.get(p.pid, ()):
            assert 0 <= net.vc_map.class_of(vc) < algo.num_classes
