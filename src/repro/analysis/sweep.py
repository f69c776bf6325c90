"""Load-latency sweeps and saturation-throughput search (Section 6.1).

The paper's methodology: warm the network up until latency stabilizes, then
measure; injection continues while measurements complete; a load where latency
never stabilizes is *saturated* and not plotted.  :func:`measure_point`
implements one load point of that procedure — :class:`PointRun` assembles it,
:func:`run_half_half` schedules it, :func:`finalize_point` classifies it, and
the sharded engine reuses all three; :func:`sweep_load` produces a
Figure-6-style load-vs-latency curve; :func:`saturation_throughput` finds the
achieved throughput bar of Figure 6g by sweeping at fixed granularity (the
paper uses 2%) until the first saturated point.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from dataclasses import asdict, astuple, dataclass, field
from typing import TYPE_CHECKING, Callable

from ..config import SimConfig, default_config
from ..network.network import Network
from ..network.simulator import Simulator
from ..network.stats import LatencyMonitor, PacketStats, accepted_rate, nearest_rank
from ..traffic.injection import SyntheticTraffic
from ..traffic.sizes import SizeDistribution

if TYPE_CHECKING:  # pragma: no cover
    from ..core.base import RoutingAlgorithm
    from ..faults.model import FaultSchedule
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
    """Nearest-rank 99th percentile: ``sorted(values)[ceil(0.99 n) - 1]``
    (:func:`~repro.network.stats.nearest_rank`).

    The index is clamped to the last element for tiny windows.  (The earlier
    truncating form ``int(0.99 n) - 1`` underestimates the rank: at n=100 it
    picked index 97, i.e. the p98 sample.)
    """
    return nearest_rank(values, 0.99)


class _NetworkSlot:
    """One finished plain network per process, waiting for the next point
    on an equal scenario (docs/PERFORMANCE.md, "A plain point reuses the
    last point's wiring").

    :class:`frozen_build` is its only user: it takes the network out before
    any build and puts it back when a plain point ends cleanly.  A take
    with another key (or none) closes what the slot holds, so at most one
    network is resident.  The slot records the process that filled it: a
    forked worker that inherited it forgets it, and never resets or closes
    the parent's network.
    """

    __slots__ = ("key", "net", "pid", "reuses")

    def __init__(self):
        self.key = self.net = None
        self.pid = 0
        self.reuses = 0  # points that reused the network held now

    def take(self, key: "tuple | None") -> Network | None:
        net, self.net = self.net, None
        if net is not None and self.pid == os.getpid():
            if key is not None and key == self.key:
                self.reuses += 1
                return net
            net.close()
        self.reuses = 0
        return None

    def put(self, key: tuple, net: Network) -> None:
        self.key, self.net, self.pid = key, net, os.getpid()


_network_slot = _NetworkSlot()


def _pool_key(topology: "Topology", algorithm: "RoutingAlgorithm",
              cfg: SimConfig) -> tuple | None:
    """What ``Network.__init__`` reads of a scenario, by value, or None
    when the network cannot be pooled (anything but a pristine
    :class:`~repro.topology.hyperx.HyperX`)."""
    from ..topology.hyperx import HyperX

    if type(topology) is not HyperX:
        return None
    return (
        topology.widths, topology.terminals_per_router, astuple(cfg),
        algorithm.num_classes, getattr(algorithm, "class_weights", None),
    )


def _empty_network_slot() -> int:
    """Close the network the slot holds and thaw what its point left
    frozen; returns how many points reused that network.  Internal: the
    reuse-on-vs-off oracle and the tests call it; a run never needs to."""
    reuses = _network_slot.reuses
    _network_slot.take(None)
    gc.unfreeze()
    return reuses


class frozen_build:
    """The one owner of the cyclic collector's state around a built network
    (docs/PERFORMANCE.md, "Construction without the collector")::

        with frozen_build(lambda: Network(topo, algo, cfg)) as net:
            ...  # run it

    A built network is ~10^5..10^6 long-lived objects, and a loaded run
    makes no cyclic garbage (``tests/test_construction.py`` holds every
    registry algorithm to that), so the collector has nothing to do for a
    point's whole life.  The constructor thaws what an earlier build left
    frozen, pauses the collector, empties the process's network slot
    (closing the network it held), calls ``build()`` (which returns the
    :class:`~repro.network.network.Network`) and ``gc.freeze()`` s what it
    built.  Before it thaws, it collects the young generations: cyclic
    garbage made since the last point (the caller's, its threads') would
    otherwise be frozen with this build.  The collector stays paused until
    the ``with`` block is left.
    Leaving it, on every exit path, calls the network's
    :meth:`~repro.network.network.Network.close`, which drops the wiring's
    back-references so the network is freed by reference count once its
    last holder lets go: the next build never has a dead predecessor
    resident beside it, and no build pays for a full collection.  The exit
    then ages everything the run allocated into the oldest generation
    (freeze, then thaw) — otherwise the caller's first young-generation
    pass would walk all of the run's survivors — and restores the caller's
    ``gc.isenabled()`` state.  A build that raises restores it too.  A
    build that is never left (a shard worker exits instead) is thawed by
    the next constructor.  The state is the process's, so one build at a
    time per process.

    With a ``key`` (a plain point's scenario, :func:`_pool_key`) the slot
    serves it instead: ``build`` is called with the network the slot held
    for an equal key, or None, and a clean exit puts the network back in
    the slot rather than closing it, leaving everything frozen (the
    collector never walks a waiting network) until the next constructor
    thaws it.  The built network is dropped on exit either way.
    """

    def __init__(self, build: Callable[..., Network], key: "tuple | None" = None):
        # Young garbage first: after a pooling exit the old heap is frozen
        # (or, after a closing one, aged), so this walks only what was
        # allocated since the last point, and none of it is frozen below.
        gc.collect(1)
        gc.unfreeze()
        self._was_enabled = gc.isenabled()
        gc.disable()
        self._key = key
        try:
            pooled = _network_slot.take(key)
            self.built = build() if key is None else build(pooled)
        except BaseException:
            if self._was_enabled:
                gc.enable()
            raise
        gc.freeze()

    def __enter__(self):
        return self.built

    def __exit__(self, exc_type, *exc) -> None:
        net, self.built = self.built, None
        pooled = self._key is not None and exc_type is None
        try:
            if pooled:
                _network_slot.put(self._key, net)
            else:
                net.close()
        finally:
            del net
            gc.freeze()
            if not pooled:
                gc.unfreeze()
            if self._was_enabled:
                gc.enable()


class PointRun:
    """One load point, assembled and ready to step.

    Network, Simulator, observers, an optional mid-run
    :class:`~repro.faults.inject.FaultInjector` (registered *before* the
    traffic, so fault flips land ahead of the cycle's injections),
    :class:`~repro.traffic.injection.SyntheticTraffic`, and a
    :class:`~repro.network.stats.PacketStats` on every owned terminal.
    ``owned_routers`` is all that separates :func:`measure_point`'s whole
    network from one worker of :mod:`repro.network.shard`; :meth:`run`,
    :meth:`total_ejected` and :meth:`finish` are what :func:`run_half_half`
    drives, here and on a :class:`~repro.network.shard.ShardEngine`.

    ``check`` attaches the :class:`repro.check.Sanitizer` (periodic audits
    plus :meth:`close`'s final one); ``trace`` (a
    :class:`repro.obs.TraceOptions`) the lifecycle
    :class:`~repro.obs.Tracer`, plus a :class:`~repro.obs.TimeSeriesSampler`
    when ``trace.window`` > 0.  All three only observe: a run measures the
    same bytes with or without them (``repro.check.oracle``'s
    ``diff_skip_on_off`` / ``diff_trace_on_off``).

    The whole assembly is one :class:`frozen_build`: built and run with
    the collector paused, frozen for the point's lifetime; when the
    ``with`` block is left the network is closed, and everything is thawed
    and aged.  A *plain* point (no observer, fault schedule or
    ``owned_routers``, on a pristine HyperX) keys its build instead: the
    next plain point on an equal scenario resets and rebinds its network
    (:meth:`~repro.network.network.Network.reset`) rather than building
    the same wiring again.  Read the network inside the block: after it,
    the run holds no network (``net``, ``sim`` and ``traffic`` are gone),
    and a closed network's router and terminal state raises
    ``AttributeError``.
    """

    def __init__(self, topology: "Topology", algorithm: "RoutingAlgorithm",
                 pattern: "TrafficPattern", rate: float,
                 cfg: SimConfig | None = None,
                 size_dist: SizeDistribution | None = None, seed: int = 1,
                 check: bool = False, trace: "TraceOptions | None" = None,
                 owned_routers: "frozenset[int] | None" = None,
                 schedule: "FaultSchedule | None" = None,
                 sources: "list[int] | None" = None):
        cfg = cfg or default_config()
        plain = not check and trace is None and schedule is None \
            and owned_routers is None

        def assemble(pooled: Network | None = None) -> Network:
            if pooled is not None:
                self.net = pooled.reset(topology, algorithm, cfg)
            else:
                self.net = Network(topology, algorithm, cfg, owned_routers=owned_routers)
            self.sim = sim = Simulator(self.net)
            self.trace = trace
            # Observers first: an audit precedes its cycle's injections.
            self.sanitizer = self.tracer = self.sampler = None
            if check:
                from ..check.sanitizer import Sanitizer

                self.sanitizer = Sanitizer(sim).attach()
            if trace is not None:
                from ..obs import TimeSeriesSampler, Tracer

                self.tracer = Tracer(sim, trace).attach()
                if trace.window:
                    self.sampler = TimeSeriesSampler(sim, window=trace.window).attach()
            if schedule is not None:
                from ..faults.inject import FaultInjector

                sim.processes.append(FaultInjector(self.net, schedule))
            self.traffic = SyntheticTraffic(
                self.net, pattern, rate, size_dist, seed=seed, sources=sources
            )
            sim.processes.append(self.traffic)
            self.stats = PacketStats()
            for t in self.net.terminals:
                if t is not None:
                    t.delivery_listeners.append(self.stats.on_delivery)
            return self.net

        key = _pool_key(topology, algorithm, cfg) if plain else None
        self._lifetime = frozen_build(assemble, key)

    def __enter__(self) -> "PointRun":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._lifetime.__exit__(*exc)
        finally:
            del self.net, self.sim, self.traffic

    def run(self, cycles: int) -> None:
        self.sim.run(cycles)

    def total_ejected(self) -> int:
        return self.net.total_ejected_flits()

    def finish(self) -> dict:
        """What :func:`finalize_point` takes from a finished run, by
        keyword: the live statistics and the owned routers' counters."""
        routers = [r for r in self.net.routers if r is not None]
        return {
            "stats": self.stats,
            "ejected_total": self.net.total_ejected_flits(),
            "undelivered_backlog": self.net.total_backlog_flits(),
            "routes_computed": sum(r.routes_computed for r in routers),
            "route_stalls": sum(r.route_stalls for r in routers),
        }

    def close(self, stem: str, require_quiescent: bool = False) -> None:
        """Final-check and detach the observers and, with ``trace.out_dir``
        set, export ``<stem>.jsonl`` (Chrome trace JSON too when
        ``trace.chrome``).  ``require_quiescent`` is for drained runs; a
        measurement ends with injection on, so its audit is the lenient one."""
        if self.sanitizer is not None:
            self.sanitizer.final_check(require_quiescent=require_quiescent)
            self.sanitizer.detach()
        if self.tracer is not None:
            if self.sampler is not None:
                self.sampler.finalize(self.sim.cycle)
                self.sampler.detach()
            self.tracer.detach()
            if self.trace.out_dir:
                from ..obs.export import write_point_trace

                write_point_trace(self.tracer, self.sampler, self.trace.out_dir, stem)


def run_half_half(engine, total_cycles: int) -> tuple:
    """Section 6.1's schedule, written once: run to the half-way mark,
    snapshot the ejected flits, run the rest.  ``engine`` is a
    :class:`PointRun` or a :class:`~repro.network.shard.ShardEngine`;
    returns ``(ejected_at_half, engine.finish())``."""
    half = total_cycles // 2
    engine.run(half)
    ejected_at_half = engine.total_ejected()
    engine.run(total_cycles - half)
    return ejected_at_half, engine.finish()


def measure_point(
    topology: "Topology",
    algorithm: "RoutingAlgorithm",
    pattern: "TrafficPattern",
    rate: float,
    total_cycles: int = 6000,
    cfg: SimConfig | None = None,
    size_dist: SizeDistribution | None = None,
    seed: int = 1,
    check: bool = False,
    trace: "TraceOptions | None" = None,
) -> PointResult:
    """Simulate one offered-load point and classify it stable/saturated.

    The run lasts ``total_cycles`` with injection on throughout.  Latency is
    sampled over packets *created* in the middle window [0.3T, 0.7T) (and
    delivered by the end); accepted throughput counts flits ejected in the
    second half of the run.  ``check`` and ``trace`` attach
    :class:`PointRun`'s observers for the whole run; traces are exported
    under a deterministic per-point name.
    """
    started = time.perf_counter()
    with PointRun(
        topology, algorithm, pattern, rate, cfg, size_dist, seed, check, trace
    ) as run:
        ejected_at_half, finished = run_half_half(run, total_cycles)
        run.close(f"trace_{algorithm.name}_{pattern.name}_r{rate:.4f}")
    return finalize_point(
        rate=rate,
        total_cycles=total_cycles,
        num_terminals=topology.num_terminals,
        ejected_at_half=ejected_at_half,
        started=started,
        **finished,
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
    accepted = accepted_rate(ejected_total - ejected_at_half, span, num_terminals)
    verdict = LatencyMonitor().verdict(
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
    described by picklable specs and each gets a topology/algorithm/pattern
    fresh from ``PointSpec.build``, so results are bit-identical for every
    worker count (``workers=1`` runs the same spec path serially).

    The two paths are not byte-identical to each other for an algorithm
    that draws random numbers (O1Turn, ROMM, UGAL, VAL): on the serial path
    the caller's algorithm, and its generator, carries from one rate into
    the next, while the spec path starts every point with a fresh one.  The
    stateful goldens pin the serial behaviour, and a reused network serves
    whatever algorithm object the caller passes, so both paths keep it.

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
