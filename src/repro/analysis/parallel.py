"""Parallel experiment engine: fan ``measure_point`` work units over cores.

Every figure of the paper is a grid of independent
``(algorithm, pattern, offered-load, seed)`` simulation points.  This module
runs such grids on a :class:`~concurrent.futures.ProcessPoolExecutor`:

* a :class:`PointSpec` is a *picklable* description of one point — topology
  parameters, algorithm name (+ kwargs), pattern name, fault list, rate,
  cycle budget, config, and seed.  :meth:`PointSpec.build` is the one place
  those names become live objects (:func:`point_specs` is its inverse), and
  :func:`run_point` measures what it built, inside the worker process;
* :func:`run_points` dispatches specs in order with a bounded speculative
  window, collects results *in submission order*, and — when asked to stop
  at the first unstable point (``sweep_load``'s ``stop_after_unstable``) —
  cancels every not-yet-started future past it;
* determinism: each point builds a fresh ``Network`` (router rngs derived
  from ``cfg.seed``) and a fresh traffic process (rng from ``spec.seed``),
  so the results are bit-identical no matter how many workers run them —
  ``workers=1`` and ``workers=4`` produce byte-identical sweep JSON.

Worker processes import this module, so :func:`run_point` must stay a
module-level function (bound methods and closures do not pickle).

Example (the exact code path a worker executes, run serially)::

    >>> from repro.analysis.parallel import PointSpec, run_point
    >>> spec = PointSpec(widths=(2, 2), terminals_per_router=1,
    ...                  algorithm="DOR", pattern="UR", rate=0.1,
    ...                  total_cycles=400, seed=1)
    >>> result = run_point(spec)
    >>> result.offered_rate
    0.1
    >>> result.packets_delivered > 0
    True
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..config import SimConfig
from ..topology.hyperx import HyperX

if TYPE_CHECKING:  # pragma: no cover
    from ..core.base import RoutingAlgorithm
    from ..obs import TraceOptions
    from ..topology.base import Topology
    from ..traffic.base import TrafficPattern
    from ..traffic.sizes import SizeDistribution
    from .memo import SweepMemo
    from .sweep import PointResult

#: progress callback: (index, total, result) — invoked in submission order.
ProgressFn = Callable[[int, int, "PointResult"], None]

#: fewest rates :func:`run_points` dispatches past the newest confirmed-stable one
MIN_SPECULATION = 2


@dataclass(frozen=True)
class PointSpec:
    """Picklable description of one ``measure_point`` work unit.

    Carries names and parameters rather than live objects: the worker
    rebuilds the topology, algorithm, and pattern from them, which keeps the
    spec small on the wire and sidesteps pickling simulator internals.
    """

    widths: tuple[int, ...]
    terminals_per_router: int
    algorithm: str
    pattern: str
    rate: float
    total_cycles: int = 6000
    seed: int = 1
    cfg: SimConfig | None = None
    size_dist: "SizeDistribution | None" = None
    algorithm_kwargs: tuple[tuple[str, Any], ...] = field(default=())
    #: declarative faults (LinkFault/RouterFault/DegradedLink, all frozen
    #: and picklable); non-empty means the worker wraps the topology in a
    #: DegradedTopology built from exactly these faults.
    faults: tuple = ()
    #: attach the repro.check runtime sanitizer inside the worker
    check: bool = False
    #: attach the repro.obs lifecycle tracer inside the worker (TraceOptions
    #: is a frozen dataclass of primitives, so the spec stays picklable);
    #: per-point artifacts land under trace.out_dir with deterministic names
    trace: "TraceOptions | None" = None
    #: run the point on the sharded engine (repro.network.shard) with this
    #: many worker processes; 0 keeps the single-process path.  Sharding is
    #: an execution detail, not a simulation parameter — results are
    #: byte-identical for every value (the shard-on-vs-off oracle proves
    #: it), so this field is excluded from the memo key.
    shards: int = 0

    def build(
        self, mid_run_faults: bool = False
    ) -> "tuple[Topology, RoutingAlgorithm, TrafficPattern]":
        """Fresh live ``(topology, algorithm, pattern)`` from the names.

        Pool workers, shard workers, the service, the CLI and
        :func:`repro.quick_simulation` all come through here.
        ``mid_run_faults`` wraps even a fault-free topology in an (empty)
        :class:`~repro.faults.degraded.DegradedTopology`: a
        :class:`~repro.faults.model.FaultSchedule` needs one to mutate.
        """
        from ..core.registry import make_algorithm
        from ..traffic.patterns import pattern_by_name

        topo: "Topology" = HyperX(tuple(self.widths), self.terminals_per_router)
        if self.faults or mid_run_faults:
            from ..faults.degraded import DegradedTopology
            from ..faults.model import FaultSet

            topo = DegradedTopology(topo, FaultSet(list(self.faults)))
        algorithm = make_algorithm(
            self.algorithm, topo, **dict(self.algorithm_kwargs)
        )
        return topo, algorithm, pattern_by_name(self.pattern, topo)


def run_point(spec: PointSpec) -> "PointResult":
    """Reconstruct one point from its spec and measure it (worker entry)."""
    from .sweep import measure_point

    if spec.shards:
        from ..network.shard import run_point_sharded, shard_fallback_reason

        if shard_fallback_reason(spec) is None:
            return run_point_sharded(spec)

    return measure_point(
        *spec.build(),
        spec.rate,
        total_cycles=spec.total_cycles,
        cfg=spec.cfg,
        size_dist=spec.size_dist,
        seed=spec.seed,
        check=spec.check,
        trace=spec.trace,
    )


def point_specs(
    topology: "Topology",
    algorithm: "RoutingAlgorithm",
    pattern: "TrafficPattern",
    rates: Sequence[float],
    total_cycles: int = 6000,
    cfg: SimConfig | None = None,
    size_dist: "SizeDistribution | None" = None,
    seed: int = 1,
    check: bool = False,
    trace: "TraceOptions | None" = None,
    shards: int = 0,
) -> list[PointSpec]:
    """Turn live sweep arguments into one spec per offered load.

    Raises ``ValueError`` when the arguments cannot be expressed as a
    picklable spec: non-HyperX topologies, algorithms not in the registry,
    patterns :func:`~repro.traffic.patterns.pattern_by_name` cannot rebuild,
    or a degraded topology whose live fault state has drifted from the
    declarative FaultSet it was built from (a mid-run injector mutated it —
    the spec would rebuild a different surviving graph).  Those
    combinations still work on the serial path.
    """
    from ..core.registry import algorithm_names
    from ..faults.degraded import DegradedTopology
    from ..traffic.patterns import pattern_by_name

    faults: tuple = ()
    if isinstance(topology, DegradedTopology):
        if topology.faultset is None:
            raise ValueError(
                "parallel sweeps need the DegradedTopology's declarative "
                "FaultSet; one built directly on a FaultState cannot be "
                "reconstructed in a worker"
            )
        if topology.faults.epoch != topology.resolved_epoch:
            raise ValueError(
                "the DegradedTopology's fault state was mutated after "
                "construction (mid-run injection?); its FaultSet no longer "
                "describes the surviving graph, so workers cannot rebuild it"
            )
        faults = tuple(topology.faultset)
        topology = topology.base
    if not isinstance(topology, HyperX):
        raise ValueError(
            "parallel sweeps reconstruct the topology in the worker and "
            f"support HyperX only, not {type(topology).__name__}"
        )
    if algorithm.name not in algorithm_names():
        raise ValueError(
            f"algorithm {algorithm.name!r} is not in the registry; the "
            "worker cannot reconstruct it"
        )
    algo_kwargs: dict[str, Any] = {}
    deroutes = getattr(algorithm, "deroutes", None)
    if deroutes is not None and deroutes != topology.num_dims:
        algo_kwargs["deroutes"] = deroutes
    # Fail fast in the parent if the pattern name does not round-trip.
    pattern_by_name(pattern.name, topology)
    return [
        PointSpec(
            widths=tuple(topology.widths),
            terminals_per_router=topology.terminals_per_router,
            algorithm=algorithm.name,
            pattern=pattern.name,
            rate=rate,
            total_cycles=total_cycles,
            cfg=cfg,
            size_dist=size_dist,
            seed=seed,
            algorithm_kwargs=tuple(sorted(algo_kwargs.items())),
            faults=faults,
            check=check,
            trace=trace,
            shards=shards,
        )
        for rate in rates
    ]


def run_points(
    specs: Sequence[PointSpec],
    workers: int = 1,
    stop_on_unstable: bool = False,
    progress: ProgressFn | None = None,
    memo: "SweepMemo | None" = None,
) -> list["PointResult"]:
    """Run specs in order, optionally in parallel, collecting ordered results.

    With ``stop_on_unstable`` the returned list ends at the first unstable
    point, exactly like the serial sweep.  In parallel mode the runner keeps
    ``workers + max(workers, MIN_SPECULATION)`` futures outstanding
    (speculatively dispatching rates past the newest confirmed-stable one)
    and cancels everything not yet started once the first unstable point is
    known; results for cancelled or discarded rates are never returned, so
    output is identical for any worker count.

    ``memo`` (a :class:`~repro.analysis.memo.SweepMemo`) replays memoised
    points from disk and persists freshly simulated ones.  A spec determines
    its result exactly (the determinism the oracles enforce), so memoised
    and simulated results are interchangeable: output is identical with or
    without the memo, for any worker count.  In parallel mode cache hits
    never occupy a worker — only misses are dispatched to the pool.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = len(specs)
    if n == 0:
        return []

    results: list["PointResult"] = []
    if workers == 1:
        for i, spec in enumerate(specs):
            point = memo.get(spec) if memo is not None else None
            if point is None:
                point = run_point(spec)
                if memo is not None:
                    memo.put(spec, point)
            if progress is not None:
                progress(i, n, point)
            results.append(point)
            if stop_on_unstable and not point.stable:
                break
        return results

    window = workers + max(workers, MIN_SPECULATION)
    # Built on the first memo miss: a fully memoised sweep starts no worker.
    pool: ProcessPoolExecutor | None = None

    def submit(i: int):
        """A memo hit is carried as a plain result, a miss as a future."""
        nonlocal pool
        if memo is not None:
            cached = memo.get(specs[i])
            if cached is not None:
                return (cached, None)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=workers)
        return (None, pool.submit(run_point, specs[i]))

    futures: dict = {}
    try:
        for i in range(min(window, n)):
            futures[i] = submit(i)
        next_submit = len(futures)
        for i in range(n):
            cached, fut = futures.pop(i)
            if fut is None:
                point = cached
            else:
                point = fut.result()
                if memo is not None:
                    memo.put(specs[i], point)
            if progress is not None:
                progress(i, n, point)
            results.append(point)
            if stop_on_unstable and not point.stable:
                break
            if next_submit < n:
                futures[next_submit] = submit(next_submit)
                next_submit += 1
    finally:
        for _, fut in futures.values():
            if fut is not None:
                fut.cancel()
        if pool is not None:
            pool.shutdown()
    return results


class SweepProgress:
    """Simple progress/timing reporter for :func:`run_points`.

    Prints one line per completed point — index, rate, verdict, and the
    point's wall-clock — to ``write`` (default: stderr via ``print``).
    """

    def __init__(self, label: str = "", write: Callable[[str], None] | None = None):
        self.label = label
        self._write = write
        self._started = time.perf_counter()

    def __call__(self, index: int, total: int, point: "PointResult") -> None:
        status = "stable" if point.stable else f"SATURATED ({point.reason})"
        elapsed = time.perf_counter() - self._started
        line = (
            f"[{self.label or 'sweep'}] point {index + 1}/{total} "
            f"rate={point.offered_rate:.3f} {status} "
            f"point={point.wall_clock_s:.2f}s elapsed={elapsed:.2f}s"
        )
        if self._write is not None:
            self._write(line)
        else:  # pragma: no cover - console convenience
            import sys

            print(line, file=sys.stderr)
