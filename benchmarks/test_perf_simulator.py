"""Simulator performance microbenchmarks.

Not paper results — these track the speed of the reproduction itself
(cycles/second of simulation, network construction, traffic generation), so
performance regressions in the hot paths show up in benchmark history.
Unlike the figure benchmarks these run multiple rounds.
"""

from repro.config import default_config
from repro.core.registry import make_algorithm
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.topology.hyperx import HyperX
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import UniformRandom


def _loaded_sim(widths=(4, 4), tpr=2, algo="DimWAR", rate=0.4, warm=300):
    topo = HyperX(widths, tpr)
    net = Network(topo, make_algorithm(algo, topo), default_config())
    sim = Simulator(net)
    traffic = SyntheticTraffic(net, UniformRandom(topo.num_terminals), rate, seed=1)
    sim.processes.append(traffic)
    sim.run(warm)
    return sim


def test_perf_network_construction(benchmark):
    topo = HyperX((4, 4, 4), 4)  # 256 terminals, 64 radix-13 routers

    def build():
        return Network(topo, make_algorithm("OmniWAR", topo), default_config())

    net = benchmark(build)
    assert net.topology.num_terminals == 256


def test_perf_simulation_cycles_loaded(benchmark):
    """Steady-state simulation speed of a loaded 32-node network."""
    sim = _loaded_sim()

    def run_chunk():
        sim.run(100)

    benchmark.pedantic(run_chunk, rounds=10, iterations=1, warmup_rounds=1)
    assert sim.network.total_ejected_flits() > 0


def test_perf_simulation_cycles_loaded_16x16(benchmark):
    """Loaded throughput at the ROADMAP's target scale (256 routers)."""
    sim = _loaded_sim(widths=(16, 16), tpr=1, algo="DimWAR", rate=0.3, warm=200)

    def run_chunk():
        sim.run(100)

    benchmark.pedantic(run_chunk, rounds=5, iterations=1, warmup_rounds=1)
    assert sim.network.total_ejected_flits() > 0


def test_perf_simulation_cycles_idle(benchmark):
    """Idle network cycles must be near-free (activity tracking works)."""
    topo = HyperX((4, 4), 2)
    net = Network(topo, make_algorithm("DOR", topo), default_config())
    sim = Simulator(net)

    def run_chunk():
        sim.run(1000)

    # iterations=10: with cycle skip-ahead an idle chunk is only a few
    # microseconds, so single-call rounds are all timer jitter.
    benchmark.pedantic(run_chunk, rounds=10, iterations=10)
    assert net.total_injected_flits() == 0


def test_perf_simulation_cycles_idle_16x16(benchmark):
    """Idle cycles at target scale: the headline for cycle skip-ahead.

    With nothing in flight the engine (repro.network.skip) jumps the clock
    straight to the end of each chunk.
    """
    topo = HyperX((16, 16), 1)
    net = Network(topo, make_algorithm("DOR", topo), default_config())
    sim = Simulator(net)

    def run_chunk():
        sim.run(1000)

    benchmark.pedantic(run_chunk, rounds=10, iterations=10, warmup_rounds=1)
    assert net.total_injected_flits() == 0


def test_perf_simulation_fault_settling(benchmark):
    """Fault-injection settling transient: burst, degrade, long quiet drain.

    Each chunk is self-contained (fresh traffic + injector; the degrade is
    restored before the chunk ends) so rounds are statistically identical.
    The quiet tail dominates, tracking how well the engine compresses the
    mostly-idle regime of incremental-fault sweeps.
    """
    from repro.faults import DegradedTopology, FaultSchedule, FaultSet
    from repro.faults.inject import FaultInjector

    topo = DegradedTopology(HyperX((8, 8), 1))
    net = Network(topo, make_algorithm("DimWAR", topo), default_config())
    sim = Simulator(net)

    def run_chunk():
        base = sim.cycle
        traffic = SyntheticTraffic(
            net, UniformRandom(topo.num_terminals), rate=0.02, seed=7
        )
        sim.add_process(traffic)
        schedule = FaultSchedule(
            FaultSchedule.from_faultset(
                FaultSet().degrade_link(9, 3, 4), cycle=base + 40
            ).sorted_events()
            + FaultSchedule.from_faultset(
                FaultSet().degrade_link(9, 3, 1), cycle=base + 400
            ).sorted_events()
        )
        injector = FaultInjector(net, schedule)
        sim.add_process(injector)
        sim.run(60)
        traffic.stop()
        sim.remove_process(traffic)
        sim.run(5940)
        sim.remove_process(injector)

    benchmark.pedantic(run_chunk, rounds=10, iterations=1, warmup_rounds=1)
    assert sim.network.total_ejected_flits() > 0


def test_perf_traffic_generation(benchmark):
    """Vectorized Bernoulli injection across 256 terminals."""
    topo = HyperX((4, 4, 4), 4)
    net = Network(topo, make_algorithm("DOR", topo), default_config())
    traffic = SyntheticTraffic(net, UniformRandom(topo.num_terminals), 0.3, seed=2)

    cycle = [0]

    def generate():
        traffic(cycle[0])
        cycle[0] += 1

    benchmark.pedantic(generate, rounds=50, iterations=10)
    # drop the queued packets; this benchmark never runs the network
    for t in net.terminals:
        t.source_queue.clear()


def test_perf_routing_decision(benchmark):
    """A single adaptive routing decision in a loaded router."""
    sim = _loaded_sim(algo="OmniWAR", rate=0.5, warm=500)
    net = sim.network
    topo = net.topology
    from repro.network.types import Packet

    r0 = net.routers[0]
    pkt = Packet(0, topo.num_terminals - 1, 4, create_cycle=sim.cycle)
    from repro.core.base import RouteContext

    ctx = RouteContext(
        router=r0,
        packet=pkt,
        input_port=topo.terminal_port(0),
        input_vc_class=0,
        from_terminal=True,
    )

    def decide():
        return net.algorithm.candidates(ctx)

    cands = benchmark(decide)
    assert cands
