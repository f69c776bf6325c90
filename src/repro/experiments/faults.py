"""Fault transient: how does routing respond to mid-run link/router failure?

The robustness counterpart of the pattern-switch transient
(:mod:`repro.experiments.transient`): inject uniform-random traffic, fail
``k`` links (and optionally routers) at a known cycle via a
:class:`~repro.faults.inject.FaultInjector`, and record windowed mean
latency and deroute rate.  A fault-tolerant adaptive algorithm should
(a) deliver every packet — including the ones mid-flight when the links die
— and (b) settle at a stable post-fault latency; the settling time *is* the
recovery transient.  DOR, with only a fallback deroute class, either
recovers or reports unreachable pairs via
:class:`~repro.core.base.NoRouteError` (captured in ``routing_error``) —
never hangs.

Randomly sampled fault sets preserve connectivity by construction
(:func:`repro.faults.model.random_faults`), so 100% delivery is the
expected outcome for the weighted-adaptive algorithms; see docs/FAULTS.md
for the worked example and EXPERIMENTS.md for measured numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..analysis.report import format_table
from ..analysis.sweep import PointRun
from ..core.base import NoRouteError
from ..core.registry import make_algorithm
from ..faults.degraded import DegradedTopology
from ..faults.model import FaultSchedule, random_faults
from ..network.telemetry import TelemetryProbe
from ..traffic.patterns import UniformRandom, UniformRandomSubset
from .common import Scale, get_scale
from .transient import TransientSeries

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import TraceOptions


@dataclass
class FaultTransientResult:
    """Outcome of one fault-transient run."""

    algorithm: str
    scale: str
    fail_links: int
    fail_routers: int
    fault_cycle: int
    series: TransientSeries
    injected_packets: int
    delivered_packets: int
    drained: bool
    routing_error: str | None = None
    fault_counters: dict[str, int] = field(default_factory=dict)

    @property
    def delivered_fraction(self) -> float:
        if self.injected_packets == 0:
            return float("nan")
        return self.delivered_packets / self.injected_packets

    def settling_time(self, tolerance: float = 1.3) -> int | None:
        """Cycles from the fault event to latency settling (None = never)."""
        return self.series.settling_time(tolerance)


def run_fault_transient(
    algorithm: str,
    scale: str | Scale = "smoke",
    rate: float = 0.2,
    window: int = 250,
    pre_windows: int = 4,
    post_windows: int = 10,
    fail_links: int = 2,
    fail_routers: int = 0,
    fault_seed: int = 7,
    seed: int = 4,
    schedule: FaultSchedule | None = None,
    topology=None,
    check: bool = False,
    trace: "TraceOptions | None" = None,
) -> FaultTransientResult:
    """Run one algorithm through a mid-run fault injection.

    Faults fire at ``pre_windows * window`` cycles.  When ``schedule`` is
    None, ``fail_links`` link failures and ``fail_routers`` router failures
    are sampled with :func:`~repro.faults.model.random_faults` (connectivity
    preserved).  ``topology`` overrides the scale's topology (used by the
    docs' 8x8 example).  Traffic is uniform random over the terminals of
    surviving routers — terminals of scheduled-to-fail routers are excluded
    from generation so the delivered fraction measures *routing*, not
    endpoint loss.

    ``check`` and ``trace`` are :class:`~repro.analysis.sweep.PointRun`'s
    observers, attached across the fault event and the drain — the paths
    the sanitizer's credit-reconciliation and conservation checks were
    built to cover, and where per-packet visibility matters most.  With
    ``trace.out_dir`` set the stream is exported as
    ``trace_fault_<algorithm>_<scale>.jsonl`` (plus Chrome trace JSON when
    ``trace.chrome``).
    """
    sc = get_scale(scale)
    base = topology if topology is not None else sc.topology()
    topo = DegradedTopology(base)  # faults arrive via the schedule
    algo = make_algorithm(algorithm, topo)
    if not algo.fault_aware:
        raise ValueError(f"{algorithm} is not fault-aware; see docs/FAULTS.md")
    fault_cycle = pre_windows * window
    total = (pre_windows + post_windows) * window

    if schedule is None:
        fset = random_faults(
            base, links=fail_links, routers=fail_routers, seed=fault_seed
        )
        schedule = FaultSchedule.from_faultset(fset, cycle=fault_cycle)
    else:
        # Report what the supplied schedule actually contains, not the
        # (ignored) random-sample knobs.
        fail_links = sum(1 for e in schedule.events if e.kind == "link")
        fail_routers = len(schedule.failed_router_ids())
    doomed_routers = schedule.failed_router_ids()
    alive = None
    pattern = UniformRandom(base.num_terminals)
    if doomed_routers:
        tpr = base.num_terminals // base.num_routers
        alive = [
            t for t in range(base.num_terminals) if t // tpr not in doomed_routers
        ]
        pattern = UniformRandomSubset(base.num_terminals, alive)
    drained = False
    routing_error: str | None = None
    with PointRun(
        topo, algo, pattern, rate, cfg=sc.sim_config(), seed=seed, check=check,
        trace=trace, schedule=schedule, sources=alive,
    ) as run:
        sim, traffic, stats = run.sim, run.traffic, run.stats
        probe = TelemetryProbe(run.net)
        try:
            sim.run(total)
            traffic.stop()
            drained = sim.drain(max_cycles=1_000_000)
        except NoRouteError as e:
            routing_error = str(e)
            traffic.stop()
        # After a clean drain every credit must be home and every output VC
        # released; after a NoRouteError the network holds stranded traffic,
        # so only the always-true invariants are audited.
        run.close(
            f"trace_fault_{algorithm}_{sc.name}",
            require_quiescent=drained and routing_error is None,
        )
        fault_counters = probe.fault_counters()
    return FaultTransientResult(
        algorithm=algorithm,
        scale=sc.name,
        fail_links=fail_links,
        fail_routers=fail_routers,
        fault_cycle=fault_cycle,
        series=TransientSeries.from_samples(
            algorithm, window, fault_cycle, total, stats.samples
        ),
        injected_packets=traffic.packets_generated,
        delivered_packets=stats.packets_delivered,
        drained=drained,
        routing_error=routing_error,
        fault_counters=fault_counters,
    )


def run(
    algorithms: tuple[str, ...] = ("DOR", "DimWAR", "OmniWAR"),
    scale: str | Scale = "smoke",
    **kwargs,
) -> dict[str, FaultTransientResult]:
    """Run the fault transient for several algorithms (CLI entry point)."""
    return {name: run_fault_transient(name, scale, **kwargs) for name in algorithms}


def render(results: dict[str, FaultTransientResult]) -> str:
    rows = []
    for name, res in results.items():
        st = res.settling_time()
        if res.routing_error is not None:
            outcome = "unreachable reported"
        elif res.drained and res.delivered_packets == res.injected_packets:
            outcome = "delivered all"
        else:
            outcome = "incomplete"
        rows.append(
            [
                name,
                f"{res.fail_links}L+{res.fail_routers}R",
                f"{res.delivered_fraction:.4f}",
                str(st) if st is not None else "did not settle",
                str(res.fault_counters.get("masked_candidates", 0)),
                str(res.fault_counters.get("revoked_routes", 0)),
                outcome,
            ]
        )
    header = format_table(
        [
            "algorithm",
            "faults",
            "delivered frac",
            "settling (cycles)",
            "masked cands",
            "revoked",
            "outcome",
        ],
        rows,
        title="Fault transient: mid-run link/router failure",
    )
    detail_rows = []
    for name, res in results.items():
        for start, lat, der, n in res.series.windows:
            mark = "<- fault" if start == res.fault_cycle else ""
            detail_rows.append([name, start, f"{lat:.1f}", f"{der:.2f}", n, mark])
    detail = format_table(
        ["algorithm", "window start", "mean latency", "deroutes/pkt", "packets", ""],
        detail_rows,
    )
    return header + "\n\n" + detail
