"""Core datatypes of the flit-level simulator: packets, flits, messages.

The simulator models *flit-granularity* transfer with credit-based virtual-
channel flow control, matching the modelling level of the paper's SuperSim
simulator.  A :class:`Packet` is injected by a terminal, segmented into
:class:`Flit` s, wormhole-routed through the network, and reassembled at the
destination terminal; a credit travels upstream as its bare VC id.  A
:class:`Message` groups packets for the application model (halo exchanges,
collectives).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

_packet_ids = itertools.count()


def _next_packet_id() -> int:
    return next(_packet_ids)


@dataclass
class Message:
    """An application-level message, segmented into one or more packets.

    Used by :mod:`repro.application`; synthetic traffic uses bare packets.
    """

    src_terminal: int
    dst_terminal: int
    size_flits: int
    tag: Any = None
    create_cycle: int = 0
    packets_total: int = 0
    packets_delivered: int = 0
    deliver_cycle: int | None = None

    @property
    def complete(self) -> bool:
        return self.packets_total > 0 and self.packets_delivered >= self.packets_total


class Packet:
    """A network packet.

    ``routing_state`` is scratch space used by routing algorithms that must
    carry state in the packet (UGAL / Clos-AD / Valiant intermediate
    addresses).  DimWAR and OmniWAR never touch it — their entire routing
    state is encoded in the VC identifier, which is the paper's practicality
    claim (Table 1: "Packet Contents: none").  The backing dict is created
    lazily on first access, so the common DimWAR/OmniWAR packet never
    allocates one.

    A ``__slots__`` class rather than a dataclass: packets are constructed
    and have their fields read on the simulator's per-flit hot paths
    (arbitration age keys, tail-flit checks), where slot access is
    measurably cheaper than instance-dict access.
    """

    __slots__ = (
        "src_terminal",
        "dst_terminal",
        "size",  # flits, head and tail inclusive
        "create_cycle",
        "pid",
        "message",
        # -- telemetry ----------------------------------------------------
        "inject_cycle",  # head flit left the terminal
        "eject_cycle",  # tail flit consumed at destination
        "hops",  # router-to-router hops taken
        "deroutes",  # non-minimal hops taken
        "_routing_state",
    )

    def __init__(
        self,
        src_terminal: int,
        dst_terminal: int,
        size: int,
        create_cycle: int,
        pid: int | None = None,
        message: Message | None = None,
    ):
        if size < 1:
            raise ValueError("packet size must be >= 1 flit")
        self.src_terminal = src_terminal
        self.dst_terminal = dst_terminal
        self.size = size
        self.create_cycle = create_cycle
        self.pid = _next_packet_id() if pid is None else pid
        self.message = message
        self.inject_cycle: int | None = None
        self.eject_cycle: int | None = None
        self.hops = 0
        self.deroutes = 0
        self._routing_state: dict[str, Any] | None = None

    @property
    def routing_state(self) -> dict[str, Any]:
        """Algorithm scratch space (counts against Table 1 "packet contents")."""
        rs = self._routing_state
        if rs is None:
            rs = self._routing_state = {}
        return rs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(pid={self.pid}, {self.src_terminal}->{self.dst_terminal}, "
            f"size={self.size}, t={self.create_cycle})"
        )

    @property
    def age_key(self) -> tuple[int, int]:
        """Sort key for age-based arbitration (older packets first)."""
        return (self.create_cycle, self.pid)

    @property
    def latency(self) -> int | None:
        """Total packet latency (creation to tail ejection), if delivered."""
        if self.eject_cycle is None:
            return None
        return self.eject_cycle - self.create_cycle

    def flits(self) -> list["Flit"]:
        """Segment the packet into its flits."""
        return [Flit(self, i) for i in range(self.size)]


class Flit:
    """One flit of a packet.  Lightweight: hot-path object.

    ``tail`` is precomputed at construction: the tail test runs once per
    flit on both the switch-allocation and the ejection hot paths, where a
    stored slot is cheaper than re-deriving ``index == packet.size - 1``.
    """

    __slots__ = ("packet", "index", "tail")

    def __init__(self, packet: Packet, index: int):
        self.packet = packet
        self.index = index
        self.tail = index == packet.size - 1

    @property
    def is_head(self) -> bool:
        return self.index == 0

    @property
    def is_tail(self) -> bool:
        return self.tail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        if self.is_head and self.is_tail:
            kind = "HT"
        return f"Flit(p{self.packet.pid}#{self.index}{kind})"
