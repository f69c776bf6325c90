"""Load-latency sweeps and saturation-throughput search (Section 6.1).

The paper's methodology: warm the network up until latency stabilizes, then
measure; injection continues while measurements complete; a load where latency
never stabilizes is *saturated* and not plotted.  :func:`measure_point`
implements one load point of that procedure; :func:`sweep_load` produces a
Figure-6-style load-vs-latency curve; :func:`saturation_throughput` finds the
achieved throughput bar of Figure 6g by sweeping at fixed granularity (the
paper uses 2%) until the first saturated point.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable

from ..config import SimConfig, default_config
from ..network.network import Network
from ..network.simulator import Simulator
from ..network.stats import LatencyMonitor, PacketStats
from ..traffic.injection import SyntheticTraffic
from ..traffic.sizes import SizeDistribution, UniformSize

if TYPE_CHECKING:  # pragma: no cover
    from ..core.base import RoutingAlgorithm
    from ..obs import TraceOptions
    from ..topology.base import Topology
    from ..traffic.base import TrafficPattern
    from .memo import SweepMemo


@dataclass
class PointResult:
    """Measurement of one (algorithm, pattern, offered-load) point."""

    offered_rate: float
    stable: bool
    reason: str
    mean_latency: float
    p99_latency: float
    accepted_rate: float  # flits/cycle/terminal delivered in the window
    mean_hops: float
    mean_deroutes: float
    packets_delivered: int
    cycles: int
    # -- where simulation time goes (trailing defaults: older archives and
    # positional constructions keep working) ------------------------------
    routes_computed: int = 0  # routing decisions across all routers
    route_stalls: int = 0  # cycles a head packet had no feasible candidate
    wall_clock_s: float = 0.0  # host seconds for this point (NOT serialized)

    def __str__(self) -> str:  # pragma: no cover - convenience
        status = "stable" if self.stable else f"SATURATED ({self.reason})"
        return (
            f"load={self.offered_rate:.2f} accepted={self.accepted_rate:.3f} "
            f"latency={self.mean_latency:.1f} (p99={self.p99_latency:.1f}) "
            f"hops={self.mean_hops:.2f} deroutes={self.mean_deroutes:.2f} "
            f"[{status}]"
        )


@dataclass
class SweepResult:
    """A full load-vs-latency curve for one algorithm/pattern pair."""

    algorithm: str
    pattern: str
    points: list[PointResult] = field(default_factory=list)

    @property
    def saturation_rate(self) -> float:
        """Accepted throughput at the highest stable load (Fig 6g's bars)."""
        stable = [p for p in self.points if p.stable]
        return max((p.accepted_rate for p in stable), default=0.0)

    def stable_points(self) -> list[PointResult]:
        return [p for p in self.points if p.stable]

    # -- serialization (for archiving measured curves) -------------------

    def to_json(self) -> str:
        points = []
        for p in self.points:
            d = asdict(p)
            # Host timing is nondeterministic; keep archives (and the
            # serial-vs-parallel byte-identity guarantee) reproducible.
            d.pop("wall_clock_s", None)
            points.append(d)
        return json.dumps(
            {
                "algorithm": self.algorithm,
                "pattern": self.pattern,
                "points": points,
            },
            indent=2,
            allow_nan=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        data = json.loads(text)
        return cls(
            algorithm=data["algorithm"],
            pattern=data["pattern"],
            points=[PointResult(**p) for p in data["points"]],
        )

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "SweepResult":
        with open(path) as f:
            return cls.from_json(f.read())


def nearest_rank_p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile: ``sorted(values)[ceil(0.99 n) - 1]``.

    The index is clamped to the last element for tiny windows.  (The earlier
    truncating form ``int(0.99 n) - 1`` underestimates the rank: at n=100 it
    picked index 97, i.e. the p98 sample.)
    """
    if not values:
        return math.nan
    idx = min(len(values) - 1, math.ceil(0.99 * len(values)) - 1)
    return float(sorted(values)[idx])


def measure_point(
    topology: "Topology",
    algorithm: "RoutingAlgorithm",
    pattern: "TrafficPattern",
    rate: float,
    total_cycles: int = 6000,
    cfg: SimConfig | None = None,
    size_dist: SizeDistribution | None = None,
    seed: int = 1,
    monitor: LatencyMonitor | None = None,
    check: bool = False,
    trace: "TraceOptions | None" = None,
) -> PointResult:
    """Simulate one offered-load point and classify it stable/saturated.

    The run lasts ``total_cycles`` with injection on throughout.  Latency is
    sampled over packets *created* in the middle window [0.3T, 0.7T) (and
    delivered by the end); accepted throughput counts flits ejected in the
    second half of the run.

    ``check`` attaches the :class:`repro.check.Sanitizer` for the whole run
    (periodic invariant audits plus a final one); the measured numbers are
    unchanged — the sanitizer only observes.

    ``trace`` (a :class:`repro.obs.TraceOptions`) attaches the lifecycle
    :class:`~repro.obs.Tracer` — plus a
    :class:`~repro.obs.TimeSeriesSampler` when ``trace.window`` > 0 — for
    the whole run.  Like the sanitizer, tracing only observes: the returned
    point is byte-identical with tracing on or off (enforced by
    ``repro.check.oracle.diff_trace_on_off``).  With ``trace.out_dir`` set,
    the trace is exported there as JSONL (and Chrome trace JSON when
    ``trace.chrome``) under a deterministic per-point name.
    """
    started = time.perf_counter()
    cfg = cfg or default_config()
    size_dist = size_dist or UniformSize(1, 16)
    net = Network(topology, algorithm, cfg)
    sim = Simulator(net)
    sanitizer = None
    if check:
        from ..check.sanitizer import Sanitizer

        sanitizer = Sanitizer(sim).attach()
    tracer = sampler = None
    if trace is not None:
        from ..obs import TimeSeriesSampler, Tracer

        tracer = Tracer(sim, trace).attach()
        if trace.window:
            sampler = TimeSeriesSampler(sim, window=trace.window).attach()
    traffic = SyntheticTraffic(net, pattern, rate, size_dist, seed=seed)
    sim.processes.append(traffic)
    stats = PacketStats()
    for t in net.terminals:
        t.delivery_listeners.append(stats.on_delivery)

    half = total_cycles // 2

    sim.run(half)
    ejected_at_half = net.total_ejected_flits()
    sim.run(total_cycles - half)
    if sanitizer is not None:
        # Injection is still on, so the final audit is the lenient one.
        sanitizer.final_check()
        sanitizer.detach()
    if tracer is not None:
        if sampler is not None:
            sampler.finalize(sim.cycle)
            sampler.detach()
        tracer.detach()
        if trace.out_dir:
            from ..obs.export import write_point_trace

            stem = f"trace_{algorithm.name}_{pattern.name}_r{rate:.4f}"
            write_point_trace(tracer, sampler, trace.out_dir, stem)

    return finalize_point(
        rate=rate,
        total_cycles=total_cycles,
        num_terminals=topology.num_terminals,
        stats=stats,
        ejected_total=net.total_ejected_flits(),
        ejected_at_half=ejected_at_half,
        undelivered_backlog=net.total_backlog_flits(),
        routes_computed=sum(r.routes_computed for r in net.routers),
        route_stalls=sum(r.route_stalls for r in net.routers),
        started=started,
        monitor=monitor,
    )


def finalize_point(
    rate: float,
    total_cycles: int,
    num_terminals: int,
    stats: PacketStats,
    ejected_total: int,
    ejected_at_half: int,
    undelivered_backlog: int,
    routes_computed: int,
    route_stalls: int,
    started: float,
    monitor: LatencyMonitor | None = None,
) -> PointResult:
    """Classify one finished run into a :class:`PointResult`.

    Shared epilogue of :func:`measure_point` and the sharded engine's
    :func:`repro.network.shard.run_point_sharded`: every input is either an
    exact integer aggregate (sample tuples, flit counters) or derived from
    them, so a sharded run that merges per-shard statistics produces a
    byte-identical result through this same arithmetic.
    """
    measure_start = int(total_cycles * 0.3)
    measure_end = int(total_cycles * 0.7)
    half = total_cycles // 2
    span = total_cycles - half
    accepted = (ejected_total - ejected_at_half) / (span * num_terminals)
    monitor = monitor or LatencyMonitor()
    verdict = monitor.verdict(
        stats,
        measure_start,
        measure_end,
        num_terminals,
        offered_rate=rate,
        undelivered_backlog=undelivered_backlog,
    )
    mean_lat = verdict.mean_latency
    if math.isnan(mean_lat):
        mean_lat = stats.mean_latency(measure_start, measure_end)

    window = [
        s for s in stats.samples if measure_start <= s.create_cycle < measure_end
    ]
    p99 = nearest_rank_p99([s.latency for s in window])
    hops = (sum(s.hops for s in window) / len(window)) if window else math.nan
    der = (sum(s.deroutes for s in window) / len(window)) if window else math.nan
    return PointResult(
        offered_rate=rate,
        stable=verdict.stable,
        reason=verdict.reason,
        mean_latency=mean_lat,
        p99_latency=float(p99),
        accepted_rate=accepted,
        mean_hops=hops,
        mean_deroutes=der,
        packets_delivered=stats.packets_delivered,
        cycles=total_cycles,
        routes_computed=routes_computed,
        route_stalls=route_stalls,
        wall_clock_s=time.perf_counter() - started,
    )


def sweep_load(
    topology: "Topology",
    algorithm: "RoutingAlgorithm",
    pattern: "TrafficPattern",
    rates: list[float],
    stop_after_unstable: bool = True,
    workers: int | None = None,
    progress: "Callable[[int, int, PointResult], None] | None" = None,
    memo: "SweepMemo | None" = None,
    **kwargs,
) -> SweepResult:
    """Measure a list of offered loads in increasing order.

    With ``stop_after_unstable`` (the default, matching the paper's plots
    that end at saturation) the sweep stops at the first saturated point.

    ``workers`` selects the execution engine.  ``None`` (default) is the
    in-process serial path, reusing the caller's live objects.  Any integer
    ``>= 1`` routes through :mod:`repro.analysis.parallel`: points are
    described by picklable specs and each gets a freshly reconstructed
    topology/algorithm/pattern, so results are bit-identical for every
    worker count (``workers=1`` runs the same spec path serially).
    ``progress`` is called as ``(index, total, point)`` after each point
    completes, in rate order, on either path.

    ``memo`` (a :class:`~repro.analysis.memo.SweepMemo`) replays previously
    measured points from disk and persists fresh ones.  The memo rides on
    the spec path — the same picklable-spec restrictions as ``workers``
    apply — so ``memo`` without ``workers`` runs the spec path serially.
    Results are byte-identical with the memo on or off.

    ``shards=N`` (a keyword argument forwarded into the specs) runs each
    point on the sharded multi-process engine (:mod:`repro.network.shard`)
    with N workers; like ``workers`` and ``memo`` it rides the spec path
    and cannot change a byte of the result (the shard-on-vs-off oracle in
    ``repro.check`` proves it).
    """
    result = SweepResult(algorithm=algorithm.name, pattern=pattern.name)
    ordered = sorted(rates)
    if workers is None and memo is None and not kwargs.get("shards"):
        kwargs.pop("shards", None)
        for i, rate in enumerate(ordered):
            point = measure_point(topology, algorithm, pattern, rate, **kwargs)
            if progress is not None:
                progress(i, len(ordered), point)
            result.points.append(point)
            if stop_after_unstable and not point.stable:
                break
        return result

    from .parallel import point_specs, run_points

    if kwargs.pop("monitor", None) is not None:
        raise ValueError("custom monitors are not supported with workers=N")
    specs = point_specs(topology, algorithm, pattern, ordered, **kwargs)
    result.points = run_points(
        specs,
        workers=workers if workers is not None else 1,
        stop_on_unstable=stop_after_unstable,
        progress=progress,
        memo=memo,
    )
    return result


def saturation_throughput(
    topology: "Topology",
    algorithm: "RoutingAlgorithm",
    pattern: "TrafficPattern",
    granularity: float = 0.02,
    max_rate: float = 1.0,
    workers: int | None = None,
    memo: "SweepMemo | None" = None,
    **kwargs,
) -> SweepResult:
    """Sweep offered load at fixed granularity until saturation (Fig 6g).

    The paper simulates with 2% injection-rate granularity; coarser values
    trade precision for wall-clock time.  ``workers=N`` fans the points out
    across processes (see :func:`sweep_load`); rates past the first
    saturated one are dispatched speculatively and discarded.

    ``memo`` warm-starts the search from previously measured points: every
    memoised rate replays from disk, and the rate ladder is truncated just
    past the lowest rate the memo already knows to be unstable — an
    ascending stop-at-first-unstable sweep can never emit a point beyond
    it, so those rates are not even probed.  The returned curve is
    byte-identical to a cold run.
    """
    if not 0.0 < granularity <= max_rate:
        raise ValueError("granularity must be in (0, max_rate]")
    steps = int(max_rate / granularity + 1e-9)
    rates = [min(max_rate, round(granularity * i, 9)) for i in range(1, steps + 1)]
    if memo is not None:
        from .parallel import point_specs

        specs = point_specs(topology, algorithm, pattern, rates, **kwargs)
        _, first_unstable = memo.warm_start_bounds(specs)
        if first_unstable is not None:
            rates = rates[: first_unstable + 1]
    return sweep_load(
        topology, algorithm, pattern, rates, stop_after_unstable=True,
        workers=workers, memo=memo, **kwargs
    )
