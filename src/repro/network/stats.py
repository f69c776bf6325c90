"""Measurement: latency sampling, throughput, and stability detection.

The paper's methodology (Section 6.1): warm the network up until packet
latency stabilizes, then measure; if latency never stops growing the network
is *saturated* at that load and no point is plotted.  :class:`LatencyMonitor`
implements that with batch means — latencies are grouped into fixed-size
batches and the run is declared stable when consecutive batch means stop
trending upward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .types import Packet


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile ``sorted(values)[ceil(q n) - 1]``, clamped to
    the last element; ``nan`` for no values.

    The one percentile estimator of the package.  (The truncating form
    ``sorted(values)[int(q n)]`` reads one rank high whenever ``q n`` is an
    integer: at n=100 its p99 is the maximum.)
    """
    if not values:
        return math.nan
    idx = min(len(values) - 1, math.ceil(q * len(values)) - 1)
    return float(sorted(values)[idx])


@dataclass
class LatencySample:
    create_cycle: int
    latency: int
    hops: int
    deroutes: int


class PacketStats:
    """Collects per-packet telemetry via terminal delivery listeners."""

    def __init__(self) -> None:
        self.samples: list[LatencySample] = []
        self.flits_delivered = 0
        self.packets_delivered = 0

    def on_delivery(self, packet: Packet, cycle: int) -> None:
        self.packets_delivered += 1
        self.flits_delivered += packet.size
        self.samples.append(
            LatencySample(
                packet.create_cycle, packet.latency, packet.hops, packet.deroutes
            )
        )

    # -- summaries ----------------------------------------------------

    def latencies(self, since: int = 0, until: int | None = None) -> list[int]:
        return [
            s.latency
            for s in self.samples
            if s.create_cycle >= since and (until is None or s.create_cycle < until)
        ]

    def mean_latency(self, since: int = 0, until: int | None = None) -> float:
        ls = self.latencies(since, until)
        return sum(ls) / len(ls) if ls else math.nan

    def mean_hops(self, since: int = 0) -> float:
        hs = [s.hops for s in self.samples if s.create_cycle >= since]
        return sum(hs) / len(hs) if hs else math.nan

    def mean_deroutes(self, since: int = 0) -> float:
        ds = [s.deroutes for s in self.samples if s.create_cycle >= since]
        return sum(ds) / len(ds) if ds else math.nan

    def latency_by_hops(self, since: int = 0) -> dict[int, float]:
        """Mean latency bucketed by router-hop count — separates the
        serialization/queueing component from the distance component."""
        buckets: dict[int, list[int]] = {}
        for s in self.samples:
            if s.create_cycle >= since:
                buckets.setdefault(s.hops, []).append(s.latency)
        return {h: sum(v) / len(v) for h, v in sorted(buckets.items())}

    def deroute_histogram(self, since: int = 0) -> dict[int, int]:
        """Packet counts by number of deroutes taken."""
        out: dict[int, int] = {}
        for s in self.samples:
            if s.create_cycle >= since:
                out[s.deroutes] = out.get(s.deroutes, 0) + 1
        return dict(sorted(out.items()))


@dataclass
class StabilityVerdict:
    stable: bool
    reason: str
    mean_latency: float = math.nan
    accepted_rate: float = math.nan  # flits/cycle/terminal actually delivered


class LatencyMonitor:
    """Batch-means latency-stabilization detector.

    ``growth_tolerance`` bounds how much the late-half batch mean may exceed
    the early-half batch mean before the run is declared unstable (latency
    still growing == saturated in the paper's methodology).
    """

    def __init__(self, growth_tolerance: float = 1.25, min_samples: int = 50):
        self.growth_tolerance = growth_tolerance
        self.min_samples = min_samples

    def verdict(
        self,
        stats: PacketStats,
        measure_start: int,
        measure_end: int,
        num_terminals: int,
        offered_rate: float,
        undelivered_backlog: int = 0,
        offered_flits: int | None = None,
    ) -> StabilityVerdict:
        window = [
            s
            for s in stats.samples
            if measure_start <= s.create_cycle < measure_end
        ]
        span = measure_end - measure_start
        if not window:
            return StabilityVerdict(False, "no packets delivered", math.nan, 0.0)
        if len(window) < self.min_samples:
            return StabilityVerdict(
                False, f"only {len(window)} samples (<{self.min_samples})"
            )
        mid = measure_start + span // 2
        early = [s.latency for s in window if s.create_cycle < mid]
        late = [s.latency for s in window if s.create_cycle >= mid]
        if not early or not late:
            return StabilityVerdict(False, "lopsided sample window")
        mean_early = sum(early) / len(early)
        mean_late = sum(late) / len(late)
        mean_all = sum(s.latency for s in window) / len(window)
        if mean_late > mean_early * self.growth_tolerance:
            return StabilityVerdict(
                False,
                f"latency growing ({mean_early:.1f} -> {mean_late:.1f})",
                mean_all,
            )
        # Source queues that keep growing mean the network cannot accept the
        # offered load even if delivered-packet latency looks flat.
        offered_window_flits = offered_rate * span * num_terminals
        if offered_window_flits > 0 and undelivered_backlog > 0.10 * offered_window_flits:
            return StabilityVerdict(
                False,
                f"source backlog {undelivered_backlog} flits "
                f"(> 10% of offered window)",
                mean_all,
            )
        return StabilityVerdict(True, "stable", mean_all)


def accepted_rate(
    flits_delivered_window: int, span: int, num_terminals: int
) -> float:
    """Delivered flits per cycle per terminal."""
    return flits_delivered_window / (span * num_terminals)
