"""Transient response: how fast does an algorithm adapt to a pattern change?

An extension experiment the paper motivates but does not plot: Section 6.2
notes the stencil's rapid alternation between bandwidth-bound and latency-
bound phases means "adaptive routing algorithms need to quickly adapt to
changing network conditions" and that all evaluated adaptive algorithms
were "tuned to react quickly to change".

The experiment injects benign UR traffic, switches to adversarial BC at a
known cycle, and records windowed mean latency and windowed deroute rate.
An incremental algorithm should (a) keep near-zero deroutes before the
switch, (b) ramp deroutes right after it, and (c) settle at a stable
post-switch latency — the settling time *is* the transient response.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import format_table
from ..analysis.sweep import frozen_build
from ..config import default_config
from ..core.registry import make_algorithm
from ..network.network import Network
from ..network.simulator import Simulator
from ..network.stats import PacketStats
from ..traffic.patterns import BitComplement, UniformRandom
from ..traffic.switching import PhasedTraffic
from .common import Scale, get_scale


@dataclass
class TransientSeries:
    algorithm: str
    window: int
    switch_cycle: int
    #: per-window (start_cycle, mean latency, mean deroutes, packets)
    windows: list[tuple[int, float, float, int]] = field(default_factory=list)

    @classmethod
    def from_samples(cls, algorithm: str, window: int, switch_cycle: int,
                     total: int, samples) -> "TransientSeries":
        """Bucket delivered-packet samples by creation cycle into
        ``window``-cycle bins over ``[0, total)``."""
        series = cls(algorithm=algorithm, window=window, switch_cycle=switch_cycle)
        for start in range(0, total, window):
            bucket = [s for s in samples if start <= s.create_cycle < start + window]
            if bucket:
                lat = sum(s.latency for s in bucket) / len(bucket)
                der = sum(s.deroutes for s in bucket) / len(bucket)
            else:
                lat, der = float("nan"), float("nan")
            series.windows.append((start, lat, der, len(bucket)))
        return series

    def settling_window(self, tolerance: float = 1.3) -> int | None:
        """First post-switch window whose latency stays within ``tolerance``
        x the final (settled) latency for the rest of the run."""
        post = [w for w in self.windows if w[0] >= self.switch_cycle and w[3] > 0]
        if len(post) < 2:
            return None
        settled = post[-1][1]
        for i, (start, lat, _, _) in enumerate(post):
            if all(w[1] <= tolerance * settled for w in post[i:]):
                return start
        return None

    def settling_time(self, tolerance: float = 1.3) -> int | None:
        w = self.settling_window(tolerance)
        return None if w is None else w - self.switch_cycle

    def pre_switch_deroutes(self) -> float:
        pre = [w for w in self.windows if w[0] < self.switch_cycle and w[3] > 0]
        return sum(w[2] for w in pre) / len(pre) if pre else float("nan")

    def post_switch_deroutes(self) -> float:
        post = [w for w in self.windows if w[0] >= self.switch_cycle and w[3] > 0]
        return sum(w[2] for w in post) / len(post) if post else float("nan")


def run_transient(
    algorithm: str,
    scale: str | Scale = "smoke",
    rate: float = 0.3,
    window: int = 250,
    pre_windows: int = 6,
    post_windows: int = 10,
    seed: int = 4,
) -> TransientSeries:
    sc = get_scale(scale)
    topo = sc.topology()
    algo = make_algorithm(algorithm, topo)
    switch = pre_windows * window
    total = (pre_windows + post_windows) * window
    stats = PacketStats()
    with frozen_build(lambda: Network(topo, algo, sc.sim_config())) as net:
        sim = Simulator(net)
        traffic = PhasedTraffic(
            net,
            phases=[
                (0, UniformRandom(topo.num_terminals)),
                (switch, BitComplement(topo.num_terminals)),
            ],
            rate=rate,
            seed=seed,
        )
        sim.processes.append(traffic)
        for t in net.terminals:
            t.delivery_listeners.append(stats.on_delivery)
        sim.run(total)
        traffic.stop()
        sim.drain(max_cycles=1_000_000)

    return TransientSeries.from_samples(
        algorithm, window, switch, total, stats.samples
    )


def run(
    algorithms: tuple[str, ...] = ("UGAL", "DimWAR", "OmniWAR"),
    scale: str | Scale = "smoke",
    **kwargs,
) -> dict[str, TransientSeries]:
    return {name: run_transient(name, scale, **kwargs) for name in algorithms}


def render(results: dict[str, TransientSeries]) -> str:
    rows = []
    for name, series in results.items():
        st = series.settling_time()
        rows.append(
            [
                name,
                f"{series.pre_switch_deroutes():.3f}",
                f"{series.post_switch_deroutes():.3f}",
                str(st) if st is not None else "did not settle",
            ]
        )
    header = format_table(
        ["algorithm", "deroutes/pkt pre-switch", "post-switch", "settling time (cycles)"],
        rows,
        title="Transient response: UR -> BC switch",
    )
    detail_rows = []
    for name, series in results.items():
        for start, lat, der, n in series.windows:
            mark = "<- switch" if start == series.switch_cycle else ""
            detail_rows.append(
                [name, start, f"{lat:.1f}", f"{der:.2f}", n, mark]
            )
    detail = format_table(
        ["algorithm", "window start", "mean latency", "deroutes/pkt", "packets", ""],
        detail_rows,
    )
    return header + "\n\n" + detail
