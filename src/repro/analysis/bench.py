"""Perf microbenchmark probes behind ``python -m repro bench``.

Thirteen microbenchmarks (the bare ``Network`` constructor, the
``PointRun`` assembly production pays for the paper's 8x8x8 and that
point's first 40 cycles, loaded and idle simulation cycles — both at small
and at 16x16 target scale — a fault-injection settling transient, traffic
generation, one adaptive routing decision, the two Fig 8 bars of the
end-to-end ``stencil_bursty`` unit, the 20 memo-warm service round trips of
a ``service_mix`` session) plus three 16x16x16 target-scale
scenarios (``--xl``), defined once, here.  They are *probes*: the command times them and prints
one table, and nothing records, compares or gates on the numbers — a
single-shot timing on a shared box cannot tell a regression from the
neighbours.  The pass/fail on performance is the end-to-end pair protocol
(``benchmarks/e2e/run.py`` + ``compare.py``, see docs/PERFORMANCE.md).

Timings are wall-clock over several rounds; the table shows the min (the
noise-floor estimator: interference can only *slow* a round) and the
median, and the cycles/s and flits/s columns are taken at the min.  The
point-assembly probe also reports its census: the GC-tracked objects an
assembled 8x8x8 point holds (:func:`tracked_objects`, taken once, outside
the timer).
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from collections import Counter
from contextlib import ExitStack, contextmanager, nullcontext
from platform import python_version
from typing import Callable

from .report import format_table


def tracked_objects(make: Callable[[], object]) -> Counter:
    """GC-tracked objects, by type name, that the result of ``make()``
    holds: every object it reaches that did not exist before ``make()`` ran
    (after one collection) and that the collector tracks.  The census walks
    references rather than listing the collector's generations, so it also
    counts a point while its :class:`~repro.analysis.sweep.frozen_build`
    block holds the network frozen, where ``gc.get_objects()`` sees none
    of it."""
    gc.collect()
    before = gc.get_objects()  # held: no id of theirs is reused below
    seen = set(map(id, before))
    held = make()
    found, level = [], [held]
    while level:
        level = list({
            id(o): o for o in level if id(o) not in seen and gc.is_tracked(o)
        }.values())
        seen.update(map(id, level))
        found += level
        level = gc.get_referents(*level)
    return Counter(type(o).__name__ for o in found)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def _loaded_sim(widths=(4, 4), tpr=2, algo="DimWAR", rate=0.4, warm=300):
    from ..config import default_config
    from ..core.registry import make_algorithm
    from ..network.network import Network
    from ..network.simulator import Simulator
    from ..topology.hyperx import HyperX
    from ..traffic.injection import SyntheticTraffic
    from ..traffic.patterns import UniformRandom

    topo = HyperX(widths, tpr)
    net = Network(topo, make_algorithm(algo, topo), default_config())
    sim = Simulator(net)
    sim.processes.append(
        SyntheticTraffic(net, UniformRandom(topo.num_terminals), rate, seed=1)
    )
    sim.run(warm)
    return sim


def _bench_network_construction():
    from ..config import default_config
    from ..core.registry import make_algorithm
    from ..network.network import Network
    from ..topology.hyperx import HyperX

    topo = HyperX((4, 4, 4), 4)

    def build():
        Network(topo, make_algorithm("OmniWAR", topo), default_config())

    return build, {"rounds": 10, "iterations": 1}


def _point_8x8x8():
    """``() -> PointRun`` on the paper's 512 routers (t=1, DimWAR, UR 0.3)."""
    from .parallel import PointSpec
    from .sweep import PointRun

    spec = PointSpec(
        widths=(8, 8, 8), terminals_per_router=1, algorithm="DimWAR",
        pattern="UR", rate=0.3, total_cycles=0, seed=1,
    )
    scenario = spec.build()
    return lambda: PointRun(*scenario, spec.rate, cfg=spec.cfg, seed=spec.seed)


def _bench_point_assembly_8x8x8():
    """What a production point pays to be ready to step on the paper's 512
    routers: :class:`~repro.analysis.sweep.PointRun` (collector paused,
    built graph frozen) and its exit.  Every round after the first resets
    the network the round before left in the process's slot, as a sweep's
    points after its first do.  The ``network_construction*`` probes time
    the bare constructor, which carries no collector guard."""
    point = _point_8x8x8()

    def assemble():
        with point():
            pass

    with ExitStack() as block:  # the census of the point, inside its block
        census = tracked_objects(lambda: block.enter_context(point()))
    return assemble, {"rounds": 5, "iterations": 1,
                      "tracked_objects": census.total()}


def _bench_cold_chunk_8x8x8():
    """The first 40 cycles of that freshly assembled point (the assembly is
    outside the timer): what first flits and first routing decisions cost —
    queues, work entries and jitter draws are made where first needed.
    Each round builds its network: a reset one would keep its jitter
    draws."""
    from .sweep import _empty_network_slot

    point = _point_8x8x8()
    run = None

    @contextmanager
    def fresh_point():
        nonlocal run
        _empty_network_slot()
        with point() as run:
            yield

    def first_chunk():
        run.run(40)

    return first_chunk, {
        "rounds": 5, "iterations": 1, "each_round": fresh_point,
        "cycles_per_chunk": 40,
    }


def _stencil_bar(mode: str, iterations: int):
    """One ``run_stencil_once`` bar of the end-to-end ``stencil_bursty``
    unit (DimWAR on the ``small`` fabric, 104-flit halo aggregate), build
    included — the bar is what Fig 8 pays per algorithm x mode x count."""
    from dataclasses import replace

    from ..experiments.common import get_scale
    from ..experiments.fig8_stencil import run_stencil_once

    scale = replace(get_scale("small"), stencil_aggregate_flits=104)

    def bar():
        run_stencil_once("DimWAR", mode, iterations, scale)

    return bar, {"rounds": 5, "iterations": 1, "warmup_rounds": 1}


def _bench_stencil_full_bar():
    """One halo burst + one collective: the application engine's schedule
    lookups per delivery are a visible share."""
    return _stencil_bar("full", 1)


def _bench_stencil_collective_bar():
    """Six latency-bound collectives: mostly routers waiting out the
    crossbar, i.e. the armed output pass."""
    return _stencil_bar("collective", 6)


def _bench_service_warm_roundtrip():
    """Submit -> result of every 1- and 2-rate subset of an already-measured
    4-rate sweep (20 memo-warm jobs: new job ids, nothing to simulate)
    against an in-process :class:`~repro.service.server.ExperimentService`,
    one fresh connection per request.  Each round gets a fresh service and
    memo, filled by one cold job outside the timer.  The client reads
    ``state`` from the submit reply and polls every 5 ms only while the job
    is not finished — the end-to-end ``service_mix`` client's protocol."""
    import http.client
    import json
    import tempfile
    from itertools import combinations

    from ..service.server import ExperimentService

    base = {"widths": [4, 4], "terminals_per_router": 2, "total_cycles": 150,
            "seed": 1, "stop_after_unstable": False}
    rates = (0.1, 0.2, 0.3, 0.4)
    service = None

    def call(method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=60)
        try:
            conn.request(method, path, body=body,
                         headers={"Connection": "close"})
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        if not 200 <= resp.status < 300:
            raise RuntimeError(f"{method} {path} -> {resp.status}")
        return data

    def round_trip(request):
        job = json.loads(call("POST", "/jobs", json.dumps(request).encode()))
        while job["state"] != "done":
            if job["state"] in ("failed", "cancelled"):
                raise RuntimeError(f"job {job['state']}: {job['error']}")
            time.sleep(0.005)
            job = json.loads(call("GET", f"/jobs/{job['job_id']}"))
        return call("GET", f"/jobs/{job['job_id']}/result")

    @contextmanager
    def warm_service():
        nonlocal service
        with tempfile.TemporaryDirectory() as td:
            service = ExperimentService(
                port=0, workers=1, memo_root=f"{td}/memo", rate_limit=0,
            ).start()
            try:
                round_trip({**base, "rates": list(rates)})
                yield
            finally:
                service.shutdown()

    def warm_jobs():
        for n in (1, 2):
            for sub in combinations(rates, n):
                for flag in (True, False):
                    round_trip({**base, "rates": list(sub),
                                "stop_after_unstable": flag})

    return warm_jobs, {"rounds": 5, "iterations": 1,
                       "each_round": warm_service}


def _bench_cycles_loaded():
    sim = _loaded_sim()

    def run_chunk():
        sim.run(100)

    return run_chunk, {
        "rounds": 10, "iterations": 1, "warmup_rounds": 1,
        "cycles_per_chunk": 100,
    }


def _bench_cycles_loaded_16x16():
    """Loaded throughput at the ROADMAP's target scale (16x16 HyperX, 256
    routers).  Reported both as cycles/sec and delivered flits/sec: the
    steady-state flits-per-cycle rate is sampled once after warm-up, then
    multiplied by the timed cycle rate."""
    sim = _loaded_sim(widths=(16, 16), tpr=1, algo="DimWAR", rate=0.3, warm=200)
    net = sim.network
    before = net.total_ejected_flits()
    sim.run(100)
    flits_per_cycle = (net.total_ejected_flits() - before) / 100.0

    def run_chunk():
        sim.run(100)

    return run_chunk, {
        "rounds": 5, "iterations": 1, "warmup_rounds": 1,
        "cycles_per_chunk": 100,
        "flits_per_cycle": round(flits_per_cycle, 3),
    }


def _bench_cycles_idle():
    from ..config import default_config
    from ..core.registry import make_algorithm
    from ..network.network import Network
    from ..network.simulator import Simulator
    from ..topology.hyperx import HyperX

    topo = HyperX((4, 4), 2)
    net = Network(topo, make_algorithm("DOR", topo), default_config())
    sim = Simulator(net)

    def run_chunk():
        sim.run(1000)

    # iterations=10: with cycle skip-ahead an idle chunk is only a few
    # microseconds, so single-call rounds are all timer jitter.
    return run_chunk, {"rounds": 10, "iterations": 10, "cycles_per_chunk": 1000}


def _bench_cycles_idle_16x16():
    """Idle cycles at the ROADMAP's target scale (16x16, 256 routers).

    The headline scenario for cycle skip-ahead (:mod:`repro.network.skip`):
    with nothing in flight the engine jumps the clock straight to the end
    of each ``run(1000)`` chunk, so this measures the cost of *compressed*
    time."""
    from ..config import default_config
    from ..core.registry import make_algorithm
    from ..network.network import Network
    from ..network.simulator import Simulator
    from ..topology.hyperx import HyperX

    topo = HyperX((16, 16), 1)
    net = Network(topo, make_algorithm("DOR", topo), default_config())
    sim = Simulator(net)

    def run_chunk():
        sim.run(1000)

    return run_chunk, {
        "rounds": 10, "iterations": 10, "warmup_rounds": 1,
        "cycles_per_chunk": 1000,
    }


def _bench_fault_settling():
    """A fault-injection settling transient: a short low-rate burst, a
    mid-drain degrade event, then a long quiescent settling window.

    Each chunk is self-contained (fresh traffic + injector; the degrade is
    restored to factor 1 before the chunk ends) so rounds are statistically
    identical.  The quiet tail dominates the simulated cycles, so this
    tracks how well the engine compresses mostly-idle fault experiments —
    the regime of the paper's incremental-fault sweeps."""
    from ..config import default_config
    from ..core.registry import make_algorithm
    from ..faults import DegradedTopology, FaultSchedule, FaultSet
    from ..faults.inject import FaultInjector
    from ..network.network import Network
    from ..network.simulator import Simulator
    from ..topology.hyperx import HyperX
    from ..traffic.injection import SyntheticTraffic
    from ..traffic.patterns import UniformRandom

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

    return run_chunk, {
        "rounds": 10, "iterations": 1, "warmup_rounds": 1,
        "cycles_per_chunk": 6000,
    }


def _bench_traffic_generation():
    from ..config import default_config
    from ..core.registry import make_algorithm
    from ..network.network import Network
    from ..topology.hyperx import HyperX
    from ..traffic.injection import SyntheticTraffic
    from ..traffic.patterns import UniformRandom

    topo = HyperX((4, 4, 4), 4)
    net = Network(topo, make_algorithm("DOR", topo), default_config())
    traffic = SyntheticTraffic(net, UniformRandom(topo.num_terminals), 0.3, seed=2)
    cycle = [0]

    def generate():
        traffic(cycle[0])
        cycle[0] += 1

    return generate, {"rounds": 50, "iterations": 10}


def _bench_routing_decision():
    from ..core.base import RouteContext
    from ..network.types import Packet

    sim = _loaded_sim(algo="OmniWAR", rate=0.5, warm=500)
    net = sim.network
    topo = net.topology
    r0 = net.routers[0]
    pkt = Packet(0, topo.num_terminals - 1, 4, create_cycle=sim.cycle)
    ctx = RouteContext(
        router=r0,
        packet=pkt,
        input_port=topo.terminal_port(0),
        input_vc_class=0,
        from_terminal=True,
    )
    candidates = net.algorithm.candidates

    def decide():
        candidates(ctx)

    return decide, {"rounds": 300, "iterations": 50, "warmup_rounds": 10}


def _xl_spec():
    from .parallel import PointSpec

    return PointSpec(
        widths=(16, 16, 16), terminals_per_router=2, algorithm="DimWAR",
        pattern="UR", rate=0.1, total_cycles=0, seed=1,
    )


def _bench_network_construction_16x16x16():
    """One full 4096-router / 8192-terminal build (the ROADMAP's 64k-node
    stepping stone).  A single round: the build is tens of seconds, and
    construction cost has no warm-up or cache effects to average away."""
    from ..config import default_config
    from ..core.registry import make_algorithm
    from ..network.network import Network
    from ..topology.hyperx import HyperX

    topo = HyperX((16, 16, 16), 2)

    def build():
        Network(topo, make_algorithm("DimWAR", topo), default_config())

    return build, {"rounds": 1, "iterations": 1}


def _bench_cycles_loaded_16x16x16():
    """Loaded throughput at 16x16x16 (4096 routers), single process.

    128 warm-up cycles: packet latency at this diameter is ~100 cycles,
    so a shorter warm-up would sample the initial delivery ramp and
    record a misleading flits/cycle."""
    sim = _loaded_sim(
        widths=(16, 16, 16), tpr=2, algo="DimWAR", rate=0.1, warm=128
    )
    net = sim.network
    before = net.total_ejected_flits()
    sim.run(16)
    flits_per_cycle = (net.total_ejected_flits() - before) / 16.0

    def run_chunk():
        sim.run(16)

    return run_chunk, {
        "rounds": 3, "iterations": 1, "cycles_per_chunk": 16,
        "flits_per_cycle": round(flits_per_cycle, 3),
    }


def _bench_cycles_loaded_16x16x16_sharded():
    """The same loaded 16x16x16 scenario on the sharded engine (2 worker
    processes; see :mod:`repro.network.shard`).  Delivered-flit streams
    are byte-identical to the single-process scenario, so the flits/sec
    figures compare directly.  The workers are daemons reaped at process
    exit — the harness has no per-scenario teardown hook."""
    from ..network.shard import ShardEngine

    engine = ShardEngine(_xl_spec(), 2)
    engine.run(128)  # same steady-state warm-up as the unsharded twin
    before = engine.total_ejected()
    engine.run(16)
    flits_per_cycle = (engine.total_ejected() - before) / 16.0

    def run_chunk():
        engine.run(16)

    return run_chunk, {
        "rounds": 3, "iterations": 1, "cycles_per_chunk": 16,
        "flits_per_cycle": round(flits_per_cycle, 3),
    }


#: name -> zero-arg factory returning (callable, options); declaration order
#: is execution order.
SCENARIOS = {
    "test_perf_network_construction": _bench_network_construction,
    "test_perf_point_assembly_8x8x8": _bench_point_assembly_8x8x8,
    "test_perf_cold_chunk_8x8x8": _bench_cold_chunk_8x8x8,
    "test_perf_routing_decision": _bench_routing_decision,
    "test_perf_service_warm_roundtrip": _bench_service_warm_roundtrip,
    "test_perf_simulation_cycles_idle": _bench_cycles_idle,
    "test_perf_simulation_cycles_idle_16x16": _bench_cycles_idle_16x16,
    "test_perf_simulation_cycles_loaded": _bench_cycles_loaded,
    "test_perf_simulation_cycles_loaded_16x16": _bench_cycles_loaded_16x16,
    "test_perf_simulation_fault_settling": _bench_fault_settling,
    "test_perf_stencil_full_bar": _bench_stencil_full_bar,
    "test_perf_stencil_collective_bar": _bench_stencil_collective_bar,
    "test_perf_traffic_generation": _bench_traffic_generation,
}

#: Target-scale scenarios behind ``repro bench --xl``: a 16x16x16 build is
#: tens of seconds and a loaded run holds gigabytes of state, far too heavy
#: for the default command.  ``--only`` can name them without ``--xl``.
SCENARIOS_XL = {
    "test_perf_network_construction_16x16x16":
        _bench_network_construction_16x16x16,
    "test_perf_simulation_cycles_loaded_16x16x16":
        _bench_cycles_loaded_16x16x16,
    "test_perf_simulation_cycles_loaded_16x16x16_sharded":
        _bench_cycles_loaded_16x16x16_sharded,
}


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def _time_scenario(fn, rounds: int, iterations: int, warmup_rounds: int = 0,
                   each_round=nullcontext):
    """Per-round seconds-per-iteration: state is shared across rounds and
    warm-up rounds are discarded.  ``each_round`` is a context manager
    entered around every timed round, outside the timer (a probe that needs
    fresh state per round builds it there)."""
    timer = time.perf_counter
    for _ in range(warmup_rounds):
        for _ in range(iterations):
            fn()
    samples = []
    for _ in range(rounds):
        with each_round():
            t0 = timer()
            for _ in range(iterations):
                fn()
            samples.append((timer() - t0) / iterations)
    return samples


def run_benchmarks(names=None, xl=False) -> list[dict]:
    """Run the probes; one ``{name, min_s, median_s[, cycles_per_s
    [, flits_per_s]][, tracked_objects]}`` row each, in execution order.

    ``names`` restricts to a subset (unknown names raise ValueError before
    anything runs) and may name ``SCENARIOS_XL`` entries directly;
    ``xl=True`` appends the whole XL tier to a default run.
    """
    scenarios = {**SCENARIOS, **SCENARIOS_XL}
    if names is None:
        selected = list(SCENARIOS) + (list(SCENARIOS_XL) if xl else [])
    else:
        selected = list(names)
    unknown = [n for n in selected if n not in scenarios]
    if unknown:
        raise ValueError(f"unknown benchmark(s): {', '.join(unknown)}")
    rows = []
    for name in selected:
        fn, opts = scenarios[name]()
        samples = _time_scenario(
            fn,
            rounds=opts["rounds"],
            iterations=opts["iterations"],
            warmup_rounds=opts.get("warmup_rounds", 0),
            each_round=opts.get("each_round", nullcontext),
        )
        row = {
            "name": name,
            "min_s": min(samples),
            "median_s": statistics.median(samples),
        }
        cycles = opts.get("cycles_per_chunk")
        if cycles:
            row["cycles_per_s"] = int(cycles / row["min_s"])
            fpc = opts.get("flits_per_cycle")
            if fpc is not None:
                row["flits_per_s"] = int(fpc * cycles / row["min_s"])
        if "tracked_objects" in opts:
            row["tracked_objects"] = opts["tracked_objects"]
        rows.append(row)
    return rows


def format_summary(rows: list[dict]) -> str:
    def count(value):
        return f"{value:,}" if value is not None else "—"

    return format_table(
        ["benchmark", "min (s)", "median (s)", "cycles/s", "flits/s",
         "tracked"],
        [
            [
                r["name"], f"{r['min_s']:.3e}", f"{r['median_s']:.3e}",
                count(r.get("cycles_per_s")), count(r.get("flits_per_s")),
                count(r.get("tracked_objects")),
            ]
            for r in rows
        ],
        title=f"repro bench: nproc={os.cpu_count()} python={python_version()}",
    )
