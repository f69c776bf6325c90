"""Congestion estimation and route weighting.

The paper scores every valid route with ``weight = congestion x hopcount``
(Sections 5.1 step 3 and 5.2 step 4), where congestion is *locally detected*:
a router can observe how many credits it has consumed toward each downstream
input buffer (i.e. how full the next hop's buffer is, including flits in
flight) and how many flits are staged in its own output queues.

Three estimator modes are provided (the choice is an ablation bench):

``credit``        downstream occupancy only (credits consumed),
``queue``         local output-queue occupancy only,
``credit_queue``  their sum — the default, closest to what a real high-radix
                  router can observe and what SuperSim-style models use.

Each mode is a pair of integer terms ``(occ_term, stg_term)``: the router's
estimate is ``(occupied * occ_term + staged * stg_term) / (num_vcs *
buffer_depth)`` over the whole output port, yielding ~0 for an idle port and
~1 for a full downstream buffer.  The normalization sets the adaptive
threshold: a deroute (hops+1) wins over a congested minimal hop only when the
minimal candidate's buffers are substantially occupied — one in-flight packet
must not trigger global load balancing (the paper's bipolar-UGAL critique
cuts both ways).
"""

from __future__ import annotations

#: mode -> (occupied-slots term, staged-flits term)
_TERMS: dict[str, tuple[int, int]] = {
    "credit": (1, 0),
    "queue": (0, 1),
    "credit_queue": (1, 1),
}


def congestion_terms(mode: str) -> tuple[int, int]:
    """The ``(occ_term, stg_term)`` row of an estimator mode."""
    try:
        return _TERMS[mode]
    except KeyError:
        raise ValueError(
            f"unknown congestion_mode {mode!r}; choose from {sorted(_TERMS)}"
        ) from None


def estimator_modes() -> list[str]:
    return sorted(_TERMS)


def route_weight(congestion: float, hops: int, bias: float = 1.0) -> float:
    """The paper's weight: estimated latency to destination.

    ``bias`` adds one flit-time of base latency per hop so that a completely
    idle network still prefers shorter paths (congestion of 0 would otherwise
    make every candidate weight 0 and the choice arbitrary).
    """
    return (congestion + bias) * hops
