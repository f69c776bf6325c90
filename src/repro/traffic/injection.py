"""Open-loop synthetic injection process.

Each terminal independently starts a new packet each cycle with probability
``rate / mean_packet_size``, so that the *offered load* equals ``rate`` flits
per cycle per terminal (1.0 = terminal-channel capacity).  Generation is
open-loop: packets keep accumulating in the source queue even when the
network cannot accept them, which is what the saturation detector observes.

The per-cycle Bernoulli draws are vectorized over terminals with NumPy (the
generation loop showed up in profiles of early versions; see the optimization
guide's "vectorize the measured bottleneck" rule).

**Skip-ahead support.**  The cycle-compressing engine
(:mod:`repro.network.skip`) only calls a process on cycles where something
can happen, so an injection process must be able to *bound* its next
injection without being ticked through the gap.  :class:`_ScanningTraffic`
provides that for every generator here: draws are pinned to cycle numbers
via a scan cursor (``_scan_cycle`` = highest cycle whose per-cycle RNG block
has been drawn), ``next_wakeup`` scans blocks forward — in exact per-cycle
order, one block per cycle — until it finds a hit (buffered in ``_pending``
with its destination/size draws deferred to apply time) or exhausts a small
lookahead window, and ``__call__`` applies the buffered hit when its cycle
executes.  The RNG consumption order is therefore *identical* to per-cycle
operation: one Bernoulli block per cycle in cycle order, with dest/size
draws interleaved exactly at hit cycles — which is what keeps skip-on and
skip-off runs (and the pre-skip golden traces) byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..network.types import Packet, _next_packet_id
from .base import TrafficPattern
from .sizes import SizeDistribution, UniformSize

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network


class _ScanningTraffic:
    """Shared machinery making an injection process skip-safe.

    Subclasses implement ``_scan_block(cycle) -> ndarray`` (draw exactly the
    RNG block per-cycle operation would draw for ``cycle`` and return the
    hit sources, possibly empty), may override ``current_pattern(cycle)``
    (the destination pattern of an injection cycle; ``self.pattern`` by
    default), and may override ``_dormant()`` for configurations that
    provably never inject (those must not consume RNG, matching per-cycle
    behaviour).  :meth:`_apply` draws each hit's destination and size and
    offers the packet — the only point that touches network state.

    The scan cursor anchors lazily at first contact (``__call__`` or
    ``next_wakeup``), so a process attached mid-run behaves exactly like the
    pre-scan code: its first block is drawn for its first observed cycle.
    """

    #: Cycles next_wakeup scans past ``cycle`` before settling for the
    #: conservative "might inject right after the window" bound.  Purely a
    #: work/precision trade-off — any value is correct.
    _lookahead = 64

    def _init_scan(self) -> None:
        self.enabled = True
        self.packets_generated = 0
        self.flits_generated = 0
        # Highest cycle whose per-cycle RNG block has been drawn; None
        # until the first contact anchors the cursor.
        self._scan_cycle: int | None = None
        # At most one buffered scan hit: (cycle, sources).  Dest/size draws
        # happen at apply time, preserving per-cycle RNG order.
        self._pending: tuple[int, np.ndarray] | None = None

    def _dormant(self) -> bool:
        return False

    def _scan_block(self, cycle: int) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def current_pattern(self, cycle: int) -> TrafficPattern:
        return self.pattern

    def _apply(self, cycle: int, srcs: np.ndarray) -> None:
        pattern = self.current_pattern(cycle)
        terminals = self.network.terminals
        for src in srcs:
            src = int(src)
            dst = pattern.dest(src, self.rng)
            size = self.size_dist.sample(self.rng)
            if terminals[src] is None:
                # Unowned source of a partial (sharded) build: this shard
                # replays the full RNG stream for pid/stream alignment but
                # only its own terminals inject.  Consume the packet id the
                # owning shard assigns so pids stay aligned across shards.
                _next_packet_id()
                continue
            terminals[src].offer(Packet(src, dst, size, create_cycle=cycle))
            self.packets_generated += 1
            self.flits_generated += size

    def __call__(self, cycle: int) -> None:
        if not self.enabled or self._dormant():
            return
        if self._scan_cycle is None:
            self._scan_cycle = cycle - 1
        p = self._pending
        if p is not None:
            if p[0] == cycle:
                self._pending = None
                self._apply(cycle, p[1])
                return
            if p[0] < cycle:
                raise RuntimeError(
                    f"engine skipped past a buffered injection at cycle "
                    f"{p[0]} (now at {cycle}): next_wakeup contract violated"
                )
            return  # buffered hit lies ahead; nothing to do this cycle
        while self._scan_cycle < cycle:
            c = self._scan_cycle + 1
            srcs = self._scan_block(c)
            self._scan_cycle = c
            if len(srcs):
                if c < cycle:
                    raise RuntimeError(
                        f"engine skipped an injection at cycle {c} (now at "
                        f"{cycle}): next_wakeup contract violated"
                    )
                self._apply(c, srcs)

    def next_wakeup(self, cycle: int) -> int | None:
        """Earliest cycle >= ``cycle`` at which this process may inject.

        Scans (and thereby draws) Bernoulli blocks forward up to
        ``_lookahead`` cycles; a hit is buffered for ``__call__`` to apply
        when its cycle executes.  Returns a conservative bound — one past
        the scanned range — when the window is dry.
        """
        if not self.enabled or self._dormant():
            return None
        if self._scan_cycle is None:
            self._scan_cycle = cycle - 1
        p = self._pending
        if p is not None:
            return p[0]
        limit = cycle + self._lookahead
        while self._scan_cycle < limit:
            c = self._scan_cycle + 1
            srcs = self._scan_block(c)
            self._scan_cycle = c
            if len(srcs):
                self._pending = (c, srcs)
                return c
        return self._scan_cycle + 1

    def stop(self) -> None:
        self.enabled = False


class SyntheticTraffic(_ScanningTraffic):
    """A simulator process generating synthetic traffic on every terminal."""

    def __init__(
        self,
        network: "Network",
        pattern: TrafficPattern,
        rate: float,
        size_dist: SizeDistribution | None = None,
        seed: int = 1,
        sources: "list[int] | None" = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("offered rate is in flits/cycle/terminal, [0, 1]")
        if pattern.num_terminals != network.topology.num_terminals:
            raise ValueError("pattern sized for a different network")
        self.network = network
        self.pattern = pattern
        self.rate = rate
        self.size_dist = size_dist or UniformSize(1, 16)
        self.rng = np.random.default_rng(seed)
        self._init_scan()
        self._num_terminals = network.topology.num_terminals
        #: restrict generation to these terminals (fault experiments exclude
        #: the detached terminals of statically-failed routers); None keeps
        #: the default all-terminals path byte-identical.
        self._sources = None
        if sources is not None:
            self._sources = np.array(sorted(set(int(s) for s in sources)))
            if self._sources.size == 0:
                raise ValueError("sources must name at least one terminal")
            if self._sources[0] < 0 or self._sources[-1] >= self._num_terminals:
                raise ValueError("source terminal id out of range")
        self._p = rate / self.size_dist.mean

    def _dormant(self) -> bool:
        return self._p <= 0.0

    def _scan_block(self, cycle: int) -> np.ndarray:
        if self._sources is None:
            draws = self.rng.random(self._num_terminals)
            return np.nonzero(draws < self._p)[0]
        draws = self.rng.random(self._sources.size)
        return self._sources[draws < self._p]


class BurstyTraffic(_ScanningTraffic):
    """On/off (two-state Markov) injection process.

    Each terminal alternates between an *on* state, injecting at
    ``rate / duty_cycle`` (capped at channel rate), and an *off* state,
    injecting nothing; state dwell times are geometric with mean
    ``burst_length`` (on) and ``burst_length * (1 - duty) / duty`` (off),
    so the long-run offered load equals ``rate``.  Burstiness stresses the
    adaptive algorithms' transient behaviour beyond what the Bernoulli
    process of :class:`SyntheticTraffic` exercises.

    The on/off state evolves one step per scanned cycle (never dormant —
    even at rate 0 the flip draws must tick, exactly as per-cycle
    operation consumes them), so ``fraction_on`` reflects the highest
    scanned cycle, which may run ahead of the simulator clock by up to the
    scan lookahead while the network is quiet.
    """

    def __init__(
        self,
        network: "Network",
        pattern: TrafficPattern,
        rate: float,
        duty_cycle: float = 0.25,
        burst_length: float = 64.0,
        size_dist: SizeDistribution | None = None,
        seed: int = 1,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("offered rate is in flits/cycle/terminal, [0, 1]")
        if not 0.0 < duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be in (0, 1]")
        if burst_length < 1.0:
            raise ValueError("burst_length must be >= 1 cycle")
        if rate / duty_cycle > 1.0:
            raise ValueError(
                f"on-state rate {rate / duty_cycle:.2f} exceeds channel "
                "capacity; raise duty_cycle or lower rate"
            )
        if pattern.num_terminals != network.topology.num_terminals:
            raise ValueError("pattern sized for a different network")
        self.network = network
        self.pattern = pattern
        self.rate = rate
        self.duty_cycle = duty_cycle
        self.burst_length = burst_length
        self.size_dist = size_dist or UniformSize(1, 16)
        self.rng = np.random.default_rng(seed)
        self._init_scan()
        n = network.topology.num_terminals
        self._on = self.rng.random(n) < duty_cycle  # stationary start
        self._p_on = rate / duty_cycle / self.size_dist.mean
        self._leave_on = 1.0 / burst_length
        off_length = burst_length * (1.0 - duty_cycle) / duty_cycle
        self._leave_off = 1.0 / max(1.0, off_length)
        self._num_terminals = n

    def _scan_block(self, cycle: int) -> np.ndarray:
        flips = self.rng.random(self._num_terminals)
        leave = np.where(self._on, self._leave_on, self._leave_off)
        self._on = np.logical_xor(self._on, flips < leave)
        draws = self.rng.random(self._num_terminals)
        return np.nonzero(np.logical_and(self._on, draws < self._p_on))[0]

    @property
    def fraction_on(self) -> float:
        return float(np.mean(self._on))
