"""The four workloads: inputs from the seed, one unit of work, its checks,
and the traced walk through the same public steps.

Every workload drives the program through public entry points only
(``sweep_load``, ``run_point``, ``run_stencil_once``, ``python -m repro
serve`` over HTTP).  ``--seed S`` generates every input — the ``k``-th
unit of a run uses traffic / placement / request seed ``1000*S + k`` — and
the program only ever receives the generated inputs.  The same ``k`` is the
same input in every pass, so a unit's bytes must repeat across passes.

``repro`` is imported inside ``prepare()``/``unit()`` only: importing this
module must stay free, because ``setup_s`` times the imports.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import resource
import statistics
import time
from itertools import combinations

from harness import OP_DEADLINE_S, input_seed, sha256
from tracing import Tracer, duration, durations

#: cycles of the first, separately traced ``Simulator.run`` call of a point
#: (the lazy SoA compile happens there whatever its length)
FIRST_CHUNK = 10
#: index of the warm-up unit's input, outside any timed unit's range
WARMUP_INDEX = 999


@dataclasses.dataclass
class Op:
    """Outcome of one op: a public call, or one submit→fetch round trip."""

    key: str  # "<unit index>/<op name>": same key = same generated input
    digest: str | None
    error: str | None
    seconds: float
    kind: str = ""


def run_op(key: str, fn, kind: str = "") -> Op:
    """Run one op; whatever it raises becomes a failed op, never a crash
    (the benchmark must count the failure and go on)."""
    t0 = time.perf_counter()
    try:
        payload = fn()
        error = None
    except Exception as exc:  # noqa: BLE001 - boundary: report and continue
        payload, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if error is None and seconds > OP_DEADLINE_S:
        error = f"took {seconds:.1f}s, over the {OP_DEADLINE_S:.0f}s deadline"
    return Op(key, sha256(payload) if payload is not None else None,
              error, seconds, kind)


def self_cpu_s() -> float:
    """user+sys of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def rss_now_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def median_of(fn, repeats: int) -> float:
    """Median host seconds of ``repeats`` calls of ``fn``."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


class Workload:
    """One set of inputs the benchmark runs.  Subclasses fill in the rest."""

    name = ""
    min_units = 5  # timed units per pass, whatever the time budget says
    #: added to a traced unit's input index; 0 lets the ledger hold the
    #: traced walk to the untraced unit's bytes
    TRACED_INDEX_OFFSET = 0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        #: seconds of every successful untraced op, by op kind
        self.latency: dict[str, list[float]] = {}

    def _timed(self, ops: list[Op]) -> list[Op]:
        for op in ops:
            if op.error is None:
                self.latency.setdefault(op.kind, []).append(op.seconds)
        return ops

    def prepare(self) -> None:
        """Imports + inputs: everything between a fresh interpreter and
        being ready to run the first unit (this is what ``setup_s`` times)."""
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """One untimed unit.  Its ops are counted like any other, so a
        warm-up may carry an untimed check: an op that shares its key with
        a timed op must return that op's bytes."""
        return self.unit(WARMUP_INDEX)

    def unit(self, k: int) -> list[Op]:
        raise NotImplementedError

    def traced_unit(self, k: int, tr: Tracer) -> list[Op]:
        """The same unit, walked step by step with a span per layer call;
        must return the bytes ``unit(k)`` returns."""
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Untimed end-of-pass checks; each error counts as a failed op."""
        return []

    def tree_cpu_s(self) -> float:
        return self_cpu_s()

    def first_probe(self) -> dict[str, float]:
        """Per-layer numbers that must be taken before the first unit."""
        return {}

    def layer_metrics(self, tr: Tracer) -> tuple[dict[str, float], dict]:
        """(per-layer metrics this workload exercises, free-form notes)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- the traced walk of one synthetic-traffic point --------------------


def traced_point(tr: Tracer, topo, algo, pattern, rate: float,
                 total_cycles: int, seed: int):
    """``measure_point`` taken apart at its layer boundaries.

    Same constructor arguments, same ``run(half)`` / ``run(rest)`` split and
    the same ``finalize_point`` epilogue, so the point is byte-identical to
    the untraced one; the first ``run`` is only cut once more, after
    ``FIRST_CHUNK`` cycles, to show the lazy SoA compile on its own.
    """
    from repro.analysis.sweep import finalize_point
    from repro.config import default_config
    from repro.network.network import Network
    from repro.network.simulator import Simulator
    from repro.network.stats import PacketStats
    from repro.traffic.injection import SyntheticTraffic
    from repro.traffic.sizes import UniformSize

    started = time.perf_counter()
    with tr.span("Network", "network"):
        net = Network(topo, algo, default_config())
    with tr.span("SyntheticTraffic", "traffic"):
        sim = Simulator(net)
        sim.processes.append(
            SyntheticTraffic(net, pattern, rate, UniformSize(1, 16), seed=seed))
        stats = PacketStats()
        for t in net.terminals:
            t.delivery_listeners.append(stats.on_delivery)
    half = total_cycles // 2
    first = min(FIRST_CHUNK, half)
    with tr.span("Simulator.run first", "network", cycles=first):
        sim.run(first)
    ejected = [net.total_ejected_flits()]
    for cycles in (half - first, total_cycles - half):
        with tr.span("Simulator.run steady", "network", cycles=cycles) as rec:
            sim.run(cycles)
        ejected.append(net.total_ejected_flits())
        rec["args"]["flits"] = ejected[-1] - ejected[-2]
    ejected_at_half = ejected[1]
    with tr.span("finalize_point", "analysis"):
        point = finalize_point(
            rate=rate, total_cycles=total_cycles,
            num_terminals=topo.num_terminals, stats=stats,
            ejected_total=net.total_ejected_flits(),
            ejected_at_half=ejected_at_half,
            undelivered_backlog=net.total_backlog_flits(),
            routes_computed=sum(r.routes_computed for r in net.routers),
            route_stalls=sum(r.route_stalls for r in net.routers),
            started=started,
        )
    return point, sim


def point_metrics(tr: Tracer, points: list, sim) -> tuple[dict, dict]:
    """Per-layer numbers every synthetic-traffic walk yields."""
    from repro.network.telemetry import TelemetryProbe

    steady = [s for s in tr.spans if s["name"] == "Simulator.run steady"
              and s["unit_id"] is not None]
    steady_s = sum(map(duration, steady))
    metrics = {
        "core.routes_computed": sum(p.routes_computed for p in points),
        "core.route_stalls": sum(p.route_stalls for p in points),
        "core.route_cache_hit_ratio":
            TelemetryProbe(sim.network).route_cache_stats()["hit_rate"],
        "network.build_s": statistics.median(durations(tr.spans, "Network")),
        "network.first_chunk_s":
            statistics.median(durations(tr.spans, "Simulator.run first")),
        "network.steady_cycles_per_s":
            sum(s["args"]["cycles"] for s in steady) / steady_s,
        "network.steady_flits_per_s":
            sum(s["args"]["flits"] for s in steady) / steady_s,
        "network.soa_active": float(sim.soa_active),
        "network.skip_active": float(sim.skip_active),
        "analysis.finalize_s": statistics.median(
            per_unit_sum(tr, ("finalize_point", "SweepResult.to_json"))),
    }
    notes = {"soa_fallback_reason": sim.soa_fallback_reason,
             "skip_fallback_reason": sim.skip_fallback_reason}
    return metrics, notes


def per_unit_sum(tr: Tracer, names: tuple[str, ...]) -> list[float]:
    """Per traced unit, the summed duration of the spans called ``names``."""
    out: dict[str, float] = {}
    for s in tr.spans:
        if s["unit_id"] is not None and s["name"] in names:
            out[s["unit_id"]] = out.get(s["unit_id"], 0.0) + duration(s)
    return list(out.values())


def build_rss_mb(topo, algo) -> float:
    """RSS growth across one ``Network(...)``; meaningful only before the
    process has built (and freed) another network, so it is probed first."""
    from repro.config import default_config
    from repro.network.network import Network

    before = rss_now_mb()
    net = Network(topo, algo, default_config())
    grown = rss_now_mb() - before
    del net
    return grown


def phase_fractions(prof) -> dict[str, float]:
    """``repro.obs.PhaseProfiler`` seconds as shares (no second timer)."""
    rep, total = prof.report(), prof.total_s
    out = {"traffic.generate_frac": rep["processes"] / total}
    for phase in ("link", "terminals", "route", "vc_alloc", "sa", "router_other"):
        out[f"obs.phase.{phase}_frac"] = rep[phase] / total
    return out


def check_points(payload: bytes, rates, total_cycles: int) -> None:
    """A curve must hold one sane point per offered load."""
    doc = json.loads(payload)
    got = [p["offered_rate"] for p in doc["points"]]
    if got != sorted(rates):
        raise ValueError(f"curve holds rates {got}, wanted {sorted(rates)}")
    for p in doc["points"]:
        if p["cycles"] != total_cycles or p["packets_delivered"] <= 0 \
                or not 0 < p["accepted_rate"] <= 1:
            raise ValueError(f"implausible point {p}")


# -- curve_small -------------------------------------------------------


class CurveSmall(Workload):
    """One Fig 6a-style curve slice through ``sweep_load``'s serial path."""

    name = "curve_small"
    WIDTHS, TERMINALS = (4, 4, 4), 4
    RATES = (0.3, 0.6)
    CYCLES = 110

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.cycles = 40 if smoke else self.CYCLES

    def prepare(self):
        from repro.analysis import sweep_load  # noqa: F401 - timed import
        from repro.core.registry import make_algorithm
        from repro.topology.hyperx import HyperX
        from repro.traffic.patterns import pattern_by_name

        self.topo = HyperX(self.WIDTHS, self.TERMINALS)
        self.algo = make_algorithm("DimWAR", self.topo)
        self.pattern = pattern_by_name("UR", self.topo)

    def _curve(self, k: int, **engine) -> bytes:
        """Every rate is measured (``stop_after_unstable=False``): at this
        length the stability verdict depends on the seed, the work must not."""
        from repro.analysis import sweep_load

        payload = sweep_load(
            self.topo, self.algo, self.pattern, list(self.RATES),
            stop_after_unstable=False, total_cycles=self.cycles,
            seed=input_seed(self.seed, k), **engine,
        ).to_json().encode()
        check_points(payload, self.RATES, self.cycles)
        return payload

    def unit(self, k):
        return [run_op(f"{k}/sweep_load", lambda: self._curve(k))]

    def warmup(self):
        """Input 0 through the *spec* path (``workers=1``), under unit 0's
        key: the serial path the timed units take must return its bytes."""
        return [run_op("0/sweep_load", lambda: self._curve(0, workers=1))]

    def first_probe(self):
        return {"network.build_rss_mb": build_rss_mb(self.topo, self.algo)}

    def traced_unit(self, k, tr):
        from repro.analysis.sweep import SweepResult

        def walk() -> bytes:
            result = SweepResult(self.algo.name, self.pattern.name)
            for rate in sorted(self.RATES):
                point, self._sim = traced_point(
                    tr, self.topo, self.algo, self.pattern, rate,
                    self.cycles, input_seed(self.seed, k))
                result.points.append(point)
            with tr.span("SweepResult.to_json", "analysis"):
                payload = result.to_json().encode()
            self._points = result.points
            return payload

        return [run_op(f"{k}/sweep_load", walk)]

    def layer_metrics(self, tr):
        from repro.analysis.sweep import measure_point
        from repro.core.registry import make_algorithm
        from repro.network.network import Network
        from repro.network.simulator import Simulator
        from repro.config import default_config
        from repro.obs import PhaseProfiler, TraceOptions
        from repro.topology.hyperx import HyperX
        from repro.traffic.injection import SyntheticTraffic
        from repro.traffic.sizes import UniformSize

        metrics, notes = point_metrics(tr, self._points, self._sim)
        metrics["topology.build_s"] = median_of(
            lambda: HyperX(self.WIDTHS, self.TERMINALS), 5)
        metrics["core.make_algorithm_s"] = median_of(
            lambda: make_algorithm("DimWAR", self.topo), 5)
        rate = max(self.RATES)
        net = Network(self.topo, self.algo, default_config())
        sim = Simulator(net)
        sim.processes.append(SyntheticTraffic(
            net, self.pattern, rate, UniformSize(1, 16), seed=self.seed))
        prof = PhaseProfiler(sim)
        prof.run(self.cycles)
        metrics.update(phase_fractions(prof))
        args = (self.topo, self.algo, self.pattern, rate)
        kwargs = {"total_cycles": self.cycles, "seed": self.seed}
        plain = median_of(lambda: measure_point(*args, **kwargs), 3)
        traced = median_of(
            lambda: measure_point(*args, trace=TraceOptions(), **kwargs), 3)
        metrics["obs.trace_overhead_x"] = traced / plain
        return metrics, notes


# -- probe_8x8x8 -------------------------------------------------------


class Probe8x8x8(Workload):
    """One short point on the paper's router count, through ``run_point``."""

    name = "probe_8x8x8"
    WIDTHS = (8, 8, 8)
    RATE = 0.3
    CYCLES = 40

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.widths = (4, 4, 4) if smoke else self.WIDTHS
        self.cycles = 60 if smoke else self.CYCLES

    def _spec(self, k: int, widths=None, cycles=None):
        from repro.analysis import PointSpec

        return PointSpec(
            widths=widths or self.widths, terminals_per_router=1,
            algorithm="DimWAR", pattern="UR", rate=self.RATE,
            total_cycles=cycles or self.cycles, seed=input_seed(self.seed, k))

    def prepare(self):
        from repro.analysis import run_point  # noqa: F401 - timed import

        self.specs = {k: self._spec(k) for k in range(64)}

    def _point(self, spec) -> bytes:
        from repro.analysis import SweepResult, run_point

        payload = SweepResult(
            spec.algorithm, spec.pattern, [run_point(spec)]).to_json().encode()
        check_points(payload, [spec.rate], spec.total_cycles)
        return payload

    def unit(self, k):
        spec = self.specs.get(k) or self._spec(k)
        return [run_op(f"{k}/run_point", lambda: self._point(spec))]

    def warmup(self):
        """A small fabric only: it loads every code path, and a worker's
        first real point grows the heap itself, as the timed units do."""
        return [run_op("warmup/run_point", lambda: self._point(
            self._spec(WARMUP_INDEX, widths=(4, 4, 4), cycles=60)))]

    def first_probe(self):
        from repro.core.registry import make_algorithm
        from repro.topology.hyperx import HyperX

        topo = HyperX(self.widths, 1)
        return {"network.build_rss_mb":
                build_rss_mb(topo, make_algorithm("DimWAR", topo))}

    def traced_unit(self, k, tr):
        from repro.analysis import SweepResult
        from repro.core.registry import make_algorithm
        from repro.topology.hyperx import HyperX
        from repro.traffic.patterns import pattern_by_name

        spec = self.specs.get(k) or self._spec(k)

        def walk() -> bytes:
            with tr.span("HyperX", "topology"):
                topo = HyperX(tuple(spec.widths), spec.terminals_per_router)
            with tr.span("make_algorithm", "core"):
                algo = make_algorithm(spec.algorithm, topo)
            with tr.span("pattern_by_name", "traffic"):
                pattern = pattern_by_name(spec.pattern, topo)
            point, self._sim = traced_point(
                tr, topo, algo, pattern, spec.rate, spec.total_cycles, spec.seed)
            self._points = [point]
            with tr.span("SweepResult.to_json", "analysis"):
                return SweepResult(
                    spec.algorithm, spec.pattern, [point]).to_json().encode()

        return [run_op(f"{k}/run_point", walk)]

    def layer_metrics(self, tr):
        metrics, notes = point_metrics(tr, self._points, self._sim)
        metrics["topology.build_s"] = statistics.median(durations(tr.spans, "HyperX"))
        metrics["core.make_algorithm_s"] = statistics.median(
            durations(tr.spans, "make_algorithm"))
        return metrics, notes




# -- stencil_bursty ----------------------------------------------------


class StencilBursty(Workload):
    """Two Fig 8 bars on the ``small`` fabric through ``run_stencil_once``:
    latency-bound collectives (mostly quiet cycles), then one halo burst."""

    name = "stencil_bursty"
    COLLECTIVE_ITERATIONS = 6
    FULL_AGGREGATE_FLITS = 104

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.iterations = 2 if smoke else self.COLLECTIVE_ITERATIONS
        self.aggregate = 52 if smoke else self.FULL_AGGREGATE_FLITS

    def prepare(self):
        from repro.application import RandomPlacement, StencilDecomposition
        from repro.experiments.common import get_scale
        from repro.experiments.fig8_stencil import run_stencil_once  # noqa: F401

        quiet = get_scale("small")
        burst = dataclasses.replace(quiet, stencil_aggregate_flits=self.aggregate)
        #: (mode, iterations, scale) of the unit's two bars
        self.bars = (("collective", self.iterations, quiet), ("full", 1, burst))
        # The decomposition and a placement are this workload's inputs;
        # building them here also rejects a fabric too small for the ranks.
        decomp = StencilDecomposition(
            burst.stencil_ranks, aggregate_flits=self.aggregate)
        RandomPlacement(decomp.num_ranks, burst.topology().num_terminals,
                        seed=input_seed(self.seed, 0))

    @staticmethod
    def _cycles_bytes(cycles: int) -> bytes:
        if cycles <= 0:
            raise ValueError(f"execution time {cycles} cycles")
        return str(cycles).encode()

    def unit(self, k):
        from repro.experiments.fig8_stencil import run_stencil_once

        seed = input_seed(self.seed, k)
        return self._timed([
            run_op(f"{k}/{mode}", lambda: self._cycles_bytes(run_stencil_once(
                "DimWAR", mode, iterations, scale, seed=seed)), kind=mode)
            for mode, iterations, scale in self.bars
        ])

    @staticmethod
    def _build_bar(tr: Tracer, mode, iterations, scale, seed):
        """``run_stencil_once`` up to, not including, ``app.run(sim)``."""
        from repro.application import (
            RandomPlacement, StencilApplication, StencilDecomposition)
        from repro.core.registry import make_algorithm
        from repro.network.network import Network
        from repro.network.simulator import Simulator

        with tr.span("HyperX", "topology"):
            topo = scale.topology()
        with tr.span("make_algorithm", "core"):
            algo = make_algorithm("DimWAR", topo)
        with tr.span("Network", "network"):
            net = Network(topo, algo, scale.sim_config())
            sim = Simulator(net)
        with tr.span("StencilApplication", "application"):
            decomp = StencilDecomposition(
                scale.stencil_ranks, aggregate_flits=scale.stencil_aggregate_flits)
            placement = RandomPlacement(
                decomp.num_ranks, topo.num_terminals, seed=seed)
            app = StencilApplication(
                net, decomp, placement, iterations=iterations, mode=mode)
        return app, sim

    def traced_unit(self, k, tr):
        seed = input_seed(self.seed, k)

        def bar(mode, iterations, scale) -> bytes:
            app, self._sim = self._build_bar(tr, mode, iterations, scale, seed)
            with tr.span(f"StencilApplication.run {mode}", "network") as rec:
                cycles = app.run(self._sim, max_cycles=5_000_000)
            rec["args"].update(cycles=cycles, packets=app.packets_sent)
            return self._cycles_bytes(cycles)

        return [run_op(f"{k}/{mode}", lambda: bar(mode, iterations, scale), kind=mode)
                for mode, iterations, scale in self.bars]

    def layer_metrics(self, tr):
        from repro.obs import PhaseProfiler

        runs = [s for s in tr.spans if s["name"].startswith("StencilApplication.run")]
        quiet = [s for s in runs if s["name"].endswith("collective")]
        units = len(quiet)
        metrics = {
            "topology.build_s": statistics.median(durations(tr.spans, "HyperX")),
            "core.make_algorithm_s":
                statistics.median(durations(tr.spans, "make_algorithm")),
            "network.build_s": statistics.median(durations(tr.spans, "Network")),
            "network.quiet_cycles_per_s":
                sum(s["args"]["cycles"] for s in quiet)
                / sum(map(duration, quiet)),
            "network.soa_active": float(self._sim.soa_active),
            "network.skip_active": float(self._sim.skip_active),
            "application.setup_s":
                statistics.median(durations(tr.spans, "StencilApplication")),
            "application.collective_s": statistics.median(self.latency["collective"]),
            "application.full_s": statistics.median(self.latency["full"]),
            "application.sim_cycles": sum(s["args"]["cycles"] for s in runs) / units,
            "application.packets_sent": sum(s["args"]["packets"] for s in runs) / units,
        }
        # PhaseProfiler on the burst bar; its own loop stands in for app.run.
        app, sim = self._build_bar(Tracer(), *self.bars[1], input_seed(self.seed, 0))
        sim.processes.append(app)
        prof = PhaseProfiler(sim)
        while not app.done:
            prof.run(32)
        metrics.update(phase_fractions(prof))
        notes = {"soa_fallback_reason": self._sim.soa_fallback_reason,
                 "skip_fallback_reason": self._sim.skip_fallback_reason}
        return metrics, notes


# -- service_mix -------------------------------------------------------


class ServiceMix(Workload):
    """Closed loop, one client, against a real ``python -m repro serve``.

    One unit is one *session*: a cold job (simulated), then memo-warm jobs
    (new job ids over already-measured points: distinct rate subsets and
    ``stop_after_unstable`` flips), then resubmissions of those (answered
    from the content-addressed job table).
    """

    name = "service_mix"
    min_units = 10
    #: a traced session needs inputs of its own: replaying an untraced
    #: session would be answered from the job table, simulating nothing
    TRACED_INDEX_OFFSET = 500
    RATES = (0.1, 0.2, 0.3, 0.4)
    CYCLES = 150

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.cycles = 100 if smoke else self.CYCLES
        self.server = None
        self.client = None
        self.sessions = 0

    def warm_mix(self) -> list[tuple[tuple[float, ...], bool]]:
        """Every 1- and 2-rate subset under both ``stop_after_unstable``
        values plus every 3-rate subset: 24 jobs over up to 44 measured
        points (smoke: the 1-rate subsets only, 8 jobs over 8 points)."""
        sizes = (1,) if self.smoke else (1, 2)
        mix = [(sub, flag) for n in sizes for sub in combinations(self.RATES, n)
               for flag in (True, False)]
        if not self.smoke:
            mix += [(sub, True) for sub in combinations(self.RATES, 3)]
        return mix

    def request(self, k: int, rates, stop_after_unstable: bool = True) -> bytes:
        return json.dumps({
            "widths": [4, 4], "terminals_per_router": 2, "algorithm": "DimWAR",
            "pattern": "UR", "rates": list(rates), "total_cycles": self.cycles,
            "seed": input_seed(self.seed, k),
            "stop_after_unstable": stop_after_unstable,
        }).encode()

    def session(self, k: int) -> list[tuple[str, str, bytes]]:
        """(op name, kind, request body) of session ``k`` in send order;
        the session's seed also fixes the order of its warm jobs."""
        mix = self.warm_mix()
        random.Random(input_seed(self.seed, k)).shuffle(mix)
        warm = [(f"warm{i}", "warm", self.request(k, rates, flag))
                for i, (rates, flag) in enumerate(mix)]
        dedupe = [(f"dedupe{i}", "dedupe", body) for i, (_, _, body) in enumerate(warm)]
        cold = self.request(k, self.RATES, stop_after_unstable=False)
        return [("cold", "cold", cold)] + warm + dedupe

    def expected_stats(self) -> dict[str, int]:
        """What one session adds to ``GET /stats``, exactly: the cold job
        simulates every rate; a warm job looks each of its rates up in the
        memo (with two workers all of them are looked up before the first
        result is known, whatever ``stop_after_unstable`` says); a
        resubmission is answered from the job table."""
        mix = self.warm_mix()
        return {"misses": len(self.RATES), "hits": sum(len(r) for r, _ in mix),
                "jobs_deduped": len(mix), "throttled": 0}

    def prepare(self):
        from service_client import Client, ServerProcess

        self.server = ServerProcess()
        self.server.start()
        self.client = Client(self.server.host, self.server.port)

    def _direct_curve(self, k: int) -> bytes:
        from repro.analysis import sweep_load
        from repro.service import build_request
        from repro.service.spec import build_scenario

        req = build_request(json.loads(self.session(k)[0][2]))
        topo, algo, pattern = build_scenario(req)
        payload = sweep_load(
            topo, algo, pattern, list(req.rates), total_cycles=req.total_cycles,
            seed=req.seed, stop_after_unstable=req.stop_after_unstable,
        ).to_json().encode()
        check_points(payload, self.RATES, self.cycles)
        return payload

    def warmup(self):
        """One whole session, then its cold curve computed by a direct
        ``sweep_load(...).to_json()`` under the cold op's key: the service
        must have served those very bytes (checked once, untimed)."""
        ops = self.unit(WARMUP_INDEX)
        return ops + [run_op(ops[0].key, lambda: self._direct_curve(WARMUP_INDEX))]

    def unit(self, k, tr: Tracer | None = None):
        self.client.span = tr.span if tr is not None else None
        ops = []
        for name, kind, body in self.session(k):
            if tr is None:
                ops.append(run_op(f"{k}/{name}",
                                  lambda: self.client.round_trip(body), kind))
            else:
                with tr.span(f"{kind} round trip", "harness"):
                    ops.append(run_op(f"{k}/{name}",
                                      lambda: self.client.round_trip(body), kind))
        self.sessions += 1
        return self._timed(ops)

    def traced_unit(self, k, tr):
        """Client-side spans per HTTP call; the wait between polls is the
        round-trip span's self time."""
        return self.unit(k, tr)

    def verify(self):
        """``GET /stats`` must read exactly what the sessions imply."""
        self.client.span = None
        stats = self.client.stats()
        got = {"misses": stats["memo"]["misses"], "hits": stats["memo"]["hits"],
               "jobs_deduped": stats["jobs_deduped"], "throttled": stats["throttled"]}
        want = {k: v * self.sessions for k, v in self.expected_stats().items()}
        self.stats_per_session = {k: v / self.sessions for k, v in got.items()}
        return [] if got == want else [f"/stats reads {got}, the mix implies {want}"]

    def tree_cpu_s(self):
        return self_cpu_s() + self.server.cpu_s()

    def layer_metrics(self, tr):
        import pickle
        import shutil
        import tempfile

        from harness import OUTPUT
        from repro.analysis import (
            PointSpec, SweepMemo, point_specs, run_point, run_points)
        from repro.obs import nearest_rank
        from repro.service import build_request
        from repro.service.spec import build_scenario

        lat, ms = self.latency, 1e3
        cold_s = statistics.median(lat["cold"])
        metrics = {
            "service.ready_s": self.server.ready_s,
            "service.submit_ms": statistics.median(self.client.submit_s) * ms,
            "service.cold_roundtrip_s": cold_s,
            "service.warm_roundtrip_ms": statistics.median(lat["warm"]) * ms,
            "service.warm_roundtrip_p99_ms": nearest_rank(lat["warm"], 0.99) * ms,
            "service.dedupe_roundtrip_ms": statistics.median(lat["dedupe"]) * ms,
            "service.dedupe_roundtrip_p99_ms": nearest_rank(lat["dedupe"], 0.99) * ms,
            "service.polls_per_job": self.client.polls / self.client.jobs,
            "service.journal_bytes_per_job":
                self.server.journal_bytes() / self.client.jobs,
            "service.memo_hits": self.stats_per_session["hits"],
            "service.memo_misses": self.stats_per_session["misses"],
            "service.jobs_deduped": self.stats_per_session["jobs_deduped"],
            "service.throttled": self.stats_per_session["throttled"],
        }
        # Direct probes of the layers under the service, on a session's specs.
        raw = json.loads(self.session(0)[0][2])
        metrics["service.build_request_ms"] = median_of(
            lambda: build_request(raw), 20) * ms
        req = build_request(raw)
        topo, algo, pattern = build_scenario(req)
        kwargs = {"total_cycles": req.total_cycles, "seed": req.seed}
        metrics["analysis.point_specs_s"] = median_of(
            lambda: point_specs(topo, algo, pattern, list(req.rates), **kwargs), 20)
        specs = point_specs(topo, algo, pattern, list(req.rates), **kwargs)
        t0 = time.perf_counter()
        points = [run_point(spec) for spec in specs]
        simulated_s = time.perf_counter() - t0
        metrics["analysis.spec_pickle_us"] = median_of(
            lambda: pickle.loads(pickle.dumps((specs[0], points[0]))), 50) * 1e6
        tiny = [PointSpec(widths=(2, 2), terminals_per_router=1, algorithm="DimWAR",
                          pattern="UR", rate=0.1, total_cycles=50, seed=s)
                for s in (1, 2)]
        metrics["analysis.pool_overhead_s"] = (
            median_of(lambda: run_points(tiny, workers=2), 3)
            - median_of(lambda: run_points(tiny, workers=1), 3))
        os.makedirs(OUTPUT, exist_ok=True)
        root = tempfile.mkdtemp(prefix="memo-", dir=OUTPUT)
        try:
            memo = SweepMemo(root=root)
            fresh = [dataclasses.replace(specs[0], seed=10_000 + i) for i in range(20)]
            put_s = [median_of(lambda: memo.put(spec, points[0]), 1) for spec in fresh]
            get_s = [median_of(lambda: memo.get(spec), 1) for spec in fresh]
        finally:
            shutil.rmtree(root, ignore_errors=True)
        metrics["analysis.memo_put_ms"] = statistics.median(put_s) * ms
        metrics["analysis.memo_get_ms"] = statistics.median(get_s) * ms
        jobs = len(self.warm_mix())
        session_s = cold_s + jobs * (
            statistics.median(lat["warm"]) + statistics.median(lat["dedupe"]))
        notes = {
            "roundtrip_samples": {k: len(v) for k, v in lat.items()},
            "warm_plus_dedupe_share_of_session": 1 - cold_s / session_s,
            "cold_direct_run_point_s": simulated_s,
            "cold_non_simulation_remainder_s": cold_s - simulated_s,
        }
        return metrics, notes

    def close(self):
        if self.server is not None:
            self.server.stop()


WORKLOADS = {w.name: w for w in (CurveSmall, Probe8x8x8, StencilBursty, ServiceMix)}
