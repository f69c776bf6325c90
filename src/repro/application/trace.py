"""Message traces: record a workload once, replay it anywhere.

The paper's application model is driven by "a user specified traffic matrix"
(Section 6.2) — production systems drive such models from captured traces.
Since real production traces are proprietary, we provide the equivalent
machinery and generate traces from the stencil model itself:

* :func:`record_stencil_trace` runs the stencil application once and records
  every message as ``(post_cycle, src_terminal, dst_terminal, flits, tag)``;
* :class:`MessageTrace` serializes to/from JSON-lines files;
* :class:`TraceReplay` is a simulator process that re-posts the messages at
  their recorded cycles (timed, open-loop replay), so the *same* captured
  workload can be replayed against any topology/algorithm/configuration of
  equal endpoint count and the completion times compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..network.types import Message, Packet
from .engine import MAX_PACKET_FLITS, StencilApplication

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network
    from ..network.simulator import Simulator


@dataclass(frozen=True)
class TracedMessage:
    post_cycle: int
    src_terminal: int
    dst_terminal: int
    size_flits: int
    tag: str


class MessageTrace:
    """An ordered list of timed messages."""

    def __init__(self, messages: list[TracedMessage] | None = None,
                 num_terminals: int = 0):
        self.messages = messages or []
        self.num_terminals = num_terminals

    def append(self, msg: TracedMessage) -> None:
        self.messages.append(msg)

    def __len__(self) -> int:
        return len(self.messages)

    @property
    def total_flits(self) -> int:
        return sum(m.size_flits for m in self.messages)

    @property
    def span_cycles(self) -> int:
        if not self.messages:
            return 0
        return max(m.post_cycle for m in self.messages) + 1

    def validate(self) -> None:
        for m in self.messages:
            if not (0 <= m.src_terminal < self.num_terminals):
                raise ValueError(f"source terminal out of range: {m}")
            if not (0 <= m.dst_terminal < self.num_terminals):
                raise ValueError(f"destination terminal out of range: {m}")
            if m.size_flits < 1 or m.post_cycle < 0:
                raise ValueError(f"bad message: {m}")

    # -- serialization ---------------------------------------------------

    def dumps(self) -> str:
        lines = [json.dumps({"num_terminals": self.num_terminals})]
        for m in self.messages:
            lines.append(
                json.dumps(
                    [m.post_cycle, m.src_terminal, m.dst_terminal,
                     m.size_flits, m.tag]
                )
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "MessageTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty trace")
        header = json.loads(lines[0])
        trace = cls(num_terminals=int(header["num_terminals"]))
        for ln in lines[1:]:
            cyc, src, dst, flits, tag = json.loads(ln)
            trace.append(TracedMessage(cyc, src, dst, flits, str(tag)))
        trace.validate()
        return trace

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.dumps())

    @classmethod
    def load(cls, path: str) -> "MessageTrace":
        with open(path) as f:
            return cls.loads(f.read())


def record_stencil_trace(app: StencilApplication, sim: "Simulator",
                         max_cycles: int = 2_000_000) -> MessageTrace:
    """Run ``app`` to completion while recording every posted message."""
    trace = MessageTrace(num_terminals=app.network.topology.num_terminals)

    def hook(cycle, src_t, dst_t, flits, tag):
        trace.append(TracedMessage(cycle, src_t, dst_t, flits, str(tag)))

    app.message_hook = hook
    app.run(sim, max_cycles=max_cycles)
    return trace


class TraceReplay:
    """Simulator process that re-posts a trace at its recorded cycles."""

    def __init__(self, network: "Network", trace: MessageTrace):
        if trace.num_terminals != network.topology.num_terminals:
            raise ValueError(
                f"trace recorded on {trace.num_terminals} terminals; this "
                f"network has {network.topology.num_terminals}"
            )
        trace.validate()
        self.network = network
        self.trace = trace
        self.messages: list[Message] = []
        # Sorted schedule + cursor (``posted``), as in FaultInjector.  The
        # sort is stable: same-cycle messages keep their recorded order.
        self._schedule = sorted(trace.messages, key=lambda m: m.post_cycle)
        self.posted = 0

    def next_wakeup(self, cycle: int) -> int | None:
        """Cycle of the next unposted message; None once all are posted."""
        if self.all_posted:
            return None
        return self._schedule[self.posted].post_cycle

    def __call__(self, cycle: int) -> None:
        # Everything due at or before ``cycle``: a replay attached to a
        # clock already past some post_cycle catches up on its first call.
        schedule = self._schedule
        while self.posted < len(schedule) and schedule[self.posted].post_cycle <= cycle:
            m = schedule[self.posted]
            self.posted += 1
            msg = Message(
                src_terminal=m.src_terminal,
                dst_terminal=m.dst_terminal,
                size_flits=m.size_flits,
                tag=m.tag,
                create_cycle=cycle,
            )
            remaining = m.size_flits
            while remaining > 0:
                size = min(MAX_PACKET_FLITS, remaining)
                pkt = Packet(
                    m.src_terminal, m.dst_terminal, size,
                    create_cycle=cycle, message=msg,
                )
                msg.packets_total += 1
                self.network.terminals[m.src_terminal].offer(pkt)
                remaining -= size
            self.messages.append(msg)

    @property
    def all_posted(self) -> bool:
        return self.posted >= len(self._schedule)

    @property
    def complete(self) -> bool:
        return self.all_posted and all(m.complete for m in self.messages)

    def completion_cycle(self) -> int | None:
        if not self.complete:
            return None
        return max(m.deliver_cycle for m in self.messages)

    def run(self, sim: "Simulator", max_cycles: int = 2_000_000) -> int:
        """Attach, replay to completion, return the completion cycle."""
        sim.processes.append(self)
        ok = sim.run_until(lambda: self.complete, max_cycles, check_every=32)
        if not ok:
            raise RuntimeError(
                f"trace replay incomplete after {max_cycles} cycles "
                f"({self.posted}/{len(self.trace)} messages posted)"
            )
        return self.completion_cycle()
