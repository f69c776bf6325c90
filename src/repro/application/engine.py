"""The application engine: drives the stencil model over the simulator.

Implements the per-rank state machine of the paper's Figure 7 pseudo-code
with compute time set to zero (as in the paper's experiments)::

    for iteration in range(iterations):
        exchange()      # 26-neighbour halo, wait for all receives
        compute()       # zero cycles
        collective()    # dissemination rounds, each round blocks on 2 recvs

Messages are segmented into packets (max 16 flits, the paper's packet-size
cap), offered to the source terminal's queue, and tracked via delivery
listeners.  Because ranks run asynchronously, messages from a neighbour's
*future* phase can arrive early; receives are therefore bucketed by an
``(iteration, phase, round)`` tag and a rank only consumes its own bucket.

``mode`` selects the Figure 8 variants: ``"full"`` (8c), ``"halo"`` — halo
exchanges only (8b), ``"collective"`` — collectives only (8a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..network.types import Message, Packet
from .collective import DisseminationCollective
from .placement import Placement
from .stencil import StencilDecomposition

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network
    from ..network.simulator import Simulator

MAX_PACKET_FLITS = 16  # the paper's evaluation packetizes at <= 16 flits


@dataclass
class RankState:
    iteration: int = 0
    phase: str = "exchange"  # "exchange" | "collective" | "done"
    round: int = 0
    received: dict[tuple, int] = field(default_factory=dict)
    done_cycle: int | None = None


class StencilApplication:
    """Runs the 27-point stencil application model on a simulated network."""

    def __init__(
        self,
        network: "Network",
        decomposition: StencilDecomposition,
        placement: Placement,
        iterations: int = 1,
        mode: str = "full",
        collective_flits: int = 1,
    ):
        if mode not in ("full", "halo", "collective"):
            raise ValueError(f"unknown mode {mode!r}")
        if iterations < 1:
            raise ValueError("need at least one iteration")
        if placement.num_ranks != decomposition.num_ranks:
            raise ValueError("placement sized for a different decomposition")
        if placement.num_terminals != network.topology.num_terminals:
            raise ValueError("placement sized for a different network")
        self.network = network
        self.decomp = decomposition
        self.placement = placement
        self.iterations = iterations
        self.mode = mode
        self.collective = DisseminationCollective(
            decomposition.num_ranks, collective_flits
        )
        self.states = [RankState() for _ in range(decomposition.num_ranks)]
        self._ranks_done = 0  # counted in _iteration_complete
        self.messages_sent = 0
        self.packets_sent = 0
        #: optional hook called as (cycle, src_terminal, dst_terminal,
        #: size_flits, tag) for every message posted — used by trace capture
        self.message_hook = None
        self._started = False
        self._pending_actions: list[tuple[str, int]] = []
        self._current_cycle = 0
        if mode == "collective":
            for s in self.states:
                s.phase = "collective"
        for terminal in network.terminals:
            terminal.delivery_listeners.append(self._on_delivery)

    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._ranks_done == len(self.states)

    @property
    def execution_time(self) -> int | None:
        """Cycle the last rank finished, or None while running."""
        if not self.done:
            return None
        return max(s.done_cycle for s in self.states)

    def ranks_done(self) -> int:
        return self._ranks_done

    # ------------------------------------------------------------------
    # Simulator process protocol
    # ------------------------------------------------------------------

    def __call__(self, cycle: int) -> None:
        self._current_cycle = cycle
        if not self._started:
            self._started = True
            for rank in range(self.decomp.num_ranks):
                self._enter_phase(rank)
        # Phase transitions triggered by deliveries are deferred to the next
        # compute phase so that all sends happen inside the process hook.
        actions, self._pending_actions = self._pending_actions, []
        for kind, rank in actions:
            if kind == "advance":
                self._advance(rank)

    def next_wakeup(self, cycle: int) -> int | None:
        """``cycle`` while there are sends to make (the start-up burst or a
        deferred phase transition), else None: every other change of
        application state is a delivery, which the network's own
        channel / router bounds already cover."""
        if not self._started or self._pending_actions:
            return cycle
        return None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _send(self, src_rank: int, dst_rank: int, flits: int, tag: tuple) -> None:
        src_t = self.placement.terminal_of(src_rank)
        dst_t = self.placement.terminal_of(dst_rank)
        msg = Message(
            src_terminal=src_t,
            dst_terminal=dst_t,
            size_flits=flits,
            tag=tag,
            create_cycle=self._current_cycle,
        )
        remaining = flits
        while remaining > 0:
            size = min(MAX_PACKET_FLITS, remaining)
            pkt = Packet(
                src_terminal=src_t,
                dst_terminal=dst_t,
                size=size,
                create_cycle=self._current_cycle,
                message=msg,
            )
            msg.packets_total += 1
            self.network.terminals[src_t].offer(pkt)
            remaining -= size
            self.packets_sent += 1
        self.messages_sent += 1
        if self.message_hook is not None:
            self.message_hook(self._current_cycle, src_t, dst_t, flits, tag)

    def _enter_phase(self, rank: int) -> None:
        state = self.states[rank]
        if state.phase == "exchange":
            for nbr in self.decomp.neighbors(rank):
                self._send(
                    rank, nbr.rank, nbr.size_flits, ("halo", state.iteration)
                )
            if self.decomp.neighbor_count(rank) == 0:
                self._exchange_complete(rank)
                return
        elif state.phase == "collective":
            for send in self.collective.sends(rank, state.round):
                self._send(
                    rank,
                    send.dst_rank,
                    self.collective.message_flits,
                    ("coll", state.iteration, state.round),
                )
        # A faster neighbour may have delivered this phase's receives before
        # we entered it; without this check the rank would stall forever.
        if self._bucket_complete(rank):
            self._pending_actions.append(("advance", rank))

    # ------------------------------------------------------------------
    # Receiving / progress
    # ------------------------------------------------------------------

    def _on_delivery(self, packet: Packet, cycle: int) -> None:
        msg = packet.message
        if msg is None or not msg.complete or msg.deliver_cycle != cycle:
            return  # synthetic packet, or message not yet fully delivered
        dst_rank = self.placement.rank_of(msg.dst_terminal)
        if dst_rank is None:
            return
        state = self.states[dst_rank]
        state.received[msg.tag] = state.received.get(msg.tag, 0) + 1
        self._current_cycle = cycle
        if self._bucket_complete(dst_rank):
            self._pending_actions.append(("advance", dst_rank))

    def _bucket_complete(self, rank: int) -> bool:
        state = self.states[rank]
        if state.phase == "exchange":
            tag = ("halo", state.iteration)
            return state.received.get(tag, 0) >= self.decomp.neighbor_count(rank)
        if state.phase == "collective":
            tag = ("coll", state.iteration, state.round)
            expected = self.collective.expected_receives(rank, state.round)
            return state.received.get(tag, 0) >= expected
        return False

    def _advance(self, rank: int) -> None:
        """Move the rank's state machine forward after a completed bucket."""
        state = self.states[rank]
        if state.phase == "done" or not self._bucket_complete(rank):
            return
        if state.phase == "exchange":
            self._exchange_complete(rank)
        elif state.phase == "collective":
            state.round += 1
            if state.round < self.collective.num_rounds:
                self._enter_phase(rank)
            else:
                self._iteration_complete(rank)

    def _exchange_complete(self, rank: int) -> None:
        state = self.states[rank]
        if self.mode == "halo":
            self._iteration_complete(rank)
        else:
            state.phase = "collective"
            state.round = 0
            self._enter_phase(rank)

    def _iteration_complete(self, rank: int) -> None:
        state = self.states[rank]
        state.iteration += 1
        state.round = 0
        if state.iteration >= self.iterations:
            state.phase = "done"
            state.done_cycle = self._current_cycle
            self._ranks_done += 1
            return
        state.phase = "collective" if self.mode == "collective" else "exchange"
        self._enter_phase(rank)

    # ------------------------------------------------------------------

    def run(self, sim: "Simulator", max_cycles: int = 2_000_000) -> int:
        """Attach to ``sim``, run to completion, return execution time."""
        sim.processes.append(self)
        finished = sim.run_until(lambda: self.done, max_cycles, check_every=32)
        if not finished:
            raise RuntimeError(
                f"stencil application did not finish within {max_cycles} cycles "
                f"({self.ranks_done()}/{self.decomp.num_ranks} ranks done)"
            )
        return self.execution_time
