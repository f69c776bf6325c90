"""Dissemination collective (Hensgen/Finkel/Manber barrier; Figure 7c).

The paper's collective() models an ``MPI_AllReduce`` with the *dissemination*
algorithm: ``ceil(log2 N)`` rounds; in round ``k`` every rank sends to
``rank + 2^k (mod N)`` **and** ``rank - 2^k (mod N)`` and waits for the
matching two receives before entering round ``k+1``.  It is topology
agnostic (unlike recursive doubling) and extremely latency sensitive — the
property that makes the full stencil application stress an adaptive routing
algorithm's ability to *stop* load-balancing quickly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CollectiveSend:
    round: int
    dst_rank: int


class DisseminationCollective:
    """Static send/receive schedule of one dissemination collective."""

    def __init__(self, num_ranks: int, message_flits: int = 1):
        if num_ranks < 2:
            raise ValueError("a collective needs at least two ranks")
        if message_flits < 1:
            raise ValueError("collective messages carry at least one flit")
        self.num_ranks = num_ranks
        self.message_flits = message_flits
        self.num_rounds = max(1, math.ceil(math.log2(num_ranks)))
        # (rank, round) -> its send tuple, filled by the first sends() call.
        self._sends: dict[tuple[int, int], tuple[CollectiveSend, ...]] = {}

    def sends(self, rank: int, rnd: int) -> tuple[CollectiveSend, ...]:
        """Destinations rank must send to in round ``rnd`` (ID+2^k, ID-2^k);
        derived on the first call for a (rank, round), looked up thereafter."""
        sends = self._sends.get((rank, rnd))
        if sends is None:
            if not 0 <= rnd < self.num_rounds:
                raise ValueError(f"round {rnd} out of range")
            d = 1 << rnd
            n = self.num_ranks
            dsts = {(rank + d) % n, (rank - d) % n}
            dsts.discard(rank)
            sends = self._sends[rank, rnd] = tuple(
                CollectiveSend(rnd, dst) for dst in sorted(dsts)
            )
        return sends

    def expected_receives(self, rank: int, rnd: int) -> int:
        """Messages rank must receive before leaving round ``rnd``.

        By symmetry of the +-2^k exchange this equals the number of sends.
        """
        return len(self.sends(rank, rnd))
