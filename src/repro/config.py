"""Configuration dataclasses and presets.

All latencies and rates are expressed in flit cycles.  The paper's evaluation
uses 50 ns router-to-router channels (10 m), 5 ns router-to-terminal channels
(1 m), a 50 ns crossbar, 8 VCs, and "enough buffering to cover more than the
credit round trip" — :func:`paper_scale` reproduces that configuration.  The
scaled default (:func:`default_config`) shortens the latencies proportionally
so that a pure-Python simulation finishes quickly while keeping the same
credit-round-trip-to-buffer-depth relationship that governs back-pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .core.weights import congestion_terms


@dataclass
class RouterConfig:
    """Parameters of the combined input/output-queued (CIOQ) router."""

    num_vcs: int = 8
    buffer_depth: int = 16  # flits per input VC
    xbar_latency: int = 4  # cycles through the internal datapath
    input_speedup: int = 4  # flits/cycle an input port may forward (CIOQ speedup)
    output_queue_depth: int = 16  # flits staged at each output (per VC)
    arbiter: str = "age"  # "age" (paper) or "round_robin"
    #: "credit", "queue" or "credit_queue" (see core/weights.py); the
    #: estimate always covers the whole output port, the shared channel.
    congestion_mode: str = "credit_queue"
    #: Clos-AD's sequential allocator (Section 4.1): within a cycle, each
    #: routing decision sees the commitments already made by other inputs.
    #: Architecturally infeasible in high-radix routers — the paper (and our
    #: default) evaluates without it; enabling it is an ablation.
    sequential_allocation: bool = False


@dataclass
class NetworkConfig:
    """Parameters of the interconnect fabric around the routers."""

    channel_latency_rr: int = 8  # router-to-router channel, cycles
    channel_latency_rt: int = 2  # router-to-terminal channel, cycles


@dataclass
class SimConfig:
    """Top-level simulation configuration."""

    router: RouterConfig = field(default_factory=RouterConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    seed: int = 12345

    @property
    def credit_round_trip(self) -> int:
        """Cycles from consuming a credit to seeing it restored (approx.)."""
        return 2 * self.network.channel_latency_rr + self.router.xbar_latency

    def validated(self) -> "SimConfig":
        r, n = self.router, self.network
        if r.arbiter not in ("age", "round_robin"):
            raise ValueError(f"unknown arbiter {r.arbiter!r}")
        congestion_terms(r.congestion_mode)  # raises naming the field
        if r.num_vcs < 1:
            raise ValueError("need at least one VC")
        if r.buffer_depth < 1 or r.output_queue_depth < 1:
            raise ValueError("buffers must hold at least one flit")
        if n.channel_latency_rr < 1 or n.channel_latency_rt < 1:
            raise ValueError("channel latencies must be >= 1 cycle")
        return self


def default_config(**overrides) -> SimConfig:
    """Scaled-down default: short channels, buffers covering the round trip."""
    cfg = SimConfig()
    return replace(cfg, **overrides).validated() if overrides else cfg.validated()


def paper_scale(**overrides) -> SimConfig:
    """The paper's latencies: 50-cycle router-to-router channels and crossbar,
    5-cycle terminal channels, 8 VCs, buffering beyond the credit round trip.
    """
    cfg = SimConfig(
        router=RouterConfig(
            num_vcs=8,
            buffer_depth=160,  # > credit round trip of 150 cycles
            xbar_latency=50,
            input_speedup=4,
            output_queue_depth=32,
            arbiter="age",
        ),
        network=NetworkConfig(channel_latency_rr=50, channel_latency_rt=5),
    )
    return replace(cfg, **overrides).validated() if overrides else cfg.validated()
