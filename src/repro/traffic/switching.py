"""Time-phased traffic: the pattern changes while the network runs.

The paper's stencil analysis (Section 6.2) stresses that real workloads
switch between phases (bandwidth-bound halo exchange, latency-bound
collectives) and that "adaptive routing algorithms need to quickly adapt to
changing network conditions".  :class:`PhasedTraffic` provides the synthetic
version: an injection process whose destination pattern switches at
scheduled cycles (e.g. benign UR -> adversarial BC), used by the transient-
response experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .base import TrafficPattern
from .injection import _ScanningTraffic
from .sizes import SizeDistribution, UniformSize

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network


class PhasedTraffic(_ScanningTraffic):
    """Open-loop injection whose pattern follows a phase schedule.

    ``phases`` is a list of ``(start_cycle, pattern)`` with strictly
    increasing start cycles; the first phase must start at cycle 0.

    Skip-ahead compatible via :class:`~repro.traffic.injection._ScanningTraffic`;
    the phase is resolved at *apply* time (when a scanned hit's cycle
    executes), so scanning ahead across a phase boundary still stamps each
    packet with the pattern of its injection cycle.
    """

    def __init__(
        self,
        network: "Network",
        phases: list[tuple[int, TrafficPattern]],
        rate: float,
        size_dist: SizeDistribution | None = None,
        seed: int = 1,
    ):
        if not phases or phases[0][0] != 0:
            raise ValueError("the first phase must start at cycle 0")
        starts = [s for s, _ in phases]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("phase start cycles must be strictly increasing")
        if not 0.0 <= rate <= 1.0:
            raise ValueError("offered rate is in flits/cycle/terminal, [0, 1]")
        n = network.topology.num_terminals
        for _, pattern in phases:
            if pattern.num_terminals != n:
                raise ValueError("pattern sized for a different network")
        self.network = network
        self.phases = list(phases)
        self.rate = rate
        self.size_dist = size_dist or UniformSize(1, 16)
        self.rng = np.random.default_rng(seed)
        self._init_scan()
        self._p = rate / self.size_dist.mean
        self._num_terminals = n
        self._phase_idx = 0

    def current_pattern(self, cycle: int) -> TrafficPattern:
        while (
            self._phase_idx + 1 < len(self.phases)
            and cycle >= self.phases[self._phase_idx + 1][0]
        ):
            self._phase_idx += 1
        return self.phases[self._phase_idx][1]

    def _dormant(self) -> bool:
        return self._p <= 0.0

    def _scan_block(self, cycle: int) -> np.ndarray:
        draws = self.rng.random(self._num_terminals)
        return np.nonzero(draws < self._p)[0]
