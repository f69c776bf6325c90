"""Routing-algorithm interface.

Every routing algorithm — the paper's DimWAR and OmniWAR as well as the
DOR/VAL/UGAL/Clos-AD baselines — implements :class:`RoutingAlgorithm`.  At
each router, the algorithm is handed a :class:`RouteContext` describing the
packet at the head of an input VC and returns the set of *valid*
:class:`RouteCandidate` s (output port + resource class + remaining-hop
estimate).  The router then scores each candidate with the paper's weight
function ``weight = congestion x hopcount`` using locally observable state
(credits consumed downstream plus output-queue occupancy) and dispatches the
packet on the minimum-weight feasible candidate.

Resource classes are *virtual* VC indices; :class:`repro.core.vcmap.VcMap`
spreads them over the physically available VCs so that algorithms needing
fewer classes than the router has VCs use the spares for head-of-line-blocking
reduction — exactly the paper's evaluation methodology (footnote 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Protocol, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..network.types import Packet
    from ..topology.base import Topology


class NoRouteError(RuntimeError):
    """No viable candidate exists for a packet at a router.

    Raised by the router when an algorithm returns an empty candidate list —
    on a pristine topology that is a bug, but under injected faults it is the
    defined way for an algorithm to report an unreachable (or
    restriction-blocked) destination instead of hanging.  The fault transient
    experiment catches it and reports the affected pair.
    """


class RouterView(Protocol):
    """The slice of router state a routing algorithm may observe: where the
    packet is, and nothing else.

    An algorithm names the *valid* candidates; only the router scores them
    by local congestion (Sec 5.1 step 3).  Source-adaptive and incremental
    algorithms differ in *where along the path* that scoring happens, not in
    what the algorithm itself reads.
    """

    router_id: int


class RouteCandidate:
    """One routing option offered by an algorithm at one router.

    ``hops`` is the estimated number of router-to-router hops remaining on
    the path *including* the candidate hop itself; multiplied by the local
    congestion estimate it forms the paper's route weight.

    Value semantics (equality, hashing) match the frozen dataclass this
    class used to be; it is hand-rolled with ``__slots__`` because candidate
    construction is the cache-fill hot path of every routing decision and
    the frozen-dataclass ``object.__setattr__`` protocol tripled its cost.
    Treat instances as immutable — cached candidate lists are shared across
    routing decisions.
    """

    __slots__ = ("out_port", "vc_class", "hops", "deroute")

    def __init__(self, out_port: int, vc_class: int, hops: int,
                 deroute: bool = False):
        if hops < 1:
            raise ValueError("a candidate always includes at least its own hop")
        self.out_port = out_port
        self.vc_class = vc_class
        self.hops = hops
        self.deroute = deroute

    def __repr__(self) -> str:
        return (
            f"RouteCandidate(out_port={self.out_port}, "
            f"vc_class={self.vc_class}, hops={self.hops}, "
            f"deroute={self.deroute})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RouteCandidate):
            return NotImplemented
        return (
            self.out_port == other.out_port
            and self.vc_class == other.vc_class
            and self.hops == other.hops
            and self.deroute == other.deroute
        )

    def __hash__(self) -> int:
        return hash((self.out_port, self.vc_class, self.hops, self.deroute))


@dataclass
class RouteContext:
    """Everything an algorithm may use to route one packet at one router."""

    router: "RouterView"
    packet: "Packet"
    input_port: int
    input_vc_class: int  # resource class of the VC the packet arrived on
    from_terminal: bool  # True at the packet's source router


class RoutingAlgorithm:
    """Base class for routing algorithms.

    Subclasses set :attr:`num_classes` (resource classes required for deadlock
    freedom) and implement :meth:`candidates`.  ``commit`` is invoked exactly
    once per hop, when the router actually dispatches the packet on a chosen
    candidate — algorithms that carry state in the packet update it there.
    """

    #: short name used in tables and the registry
    name: str = "base"
    #: resource classes required (the "VCs Required" column of Table 1)
    num_classes: int = 1
    #: True for incremental algorithms (adaptive decision at every hop)
    incremental: bool = False
    #: True when the algorithm traverses dimensions in a fixed order
    dimension_ordered: bool = True
    #: deadlock-avoidance mechanisms used (Table 1 "Deadlock Handling")
    deadlock_handling: str = "restricted routes"
    #: per-packet state the algorithm stores (Table 1 "Packet Contents")
    packet_contents: str = "none"
    #: special router architecture requirements (Table 1)
    architecture_requirements: str = "none"
    #: True when the algorithm masks failed ports from a
    #: ``repro.faults.DegradedTopology`` in :meth:`candidates`
    fault_aware: bool = False
    #: True when deadlock freedom rests on distance classes — the VC class
    #: must advance by exactly one per hop (``VC_out = VC_in + 1``, class 0
    #: at injection).  Declared here so the repro.check sanitizer can verify
    #: the rule mechanically on every hop without knowing the algorithm.
    distance_classes: bool = False
    #: Optional per-class weights for the VC partition
    #: (:class:`repro.core.vcmap.VcMap`): algorithms whose classes are used
    #: unevenly — e.g. FTHX's rarely-entered escape classes — declare a
    #: weight per resource class so spare VCs go where traffic actually
    #: flows.  ``None`` keeps the even split.
    class_weights: "tuple[int, ...] | None" = None
    #: Optional constructive deadlock-freedom certificate: a callable
    #: ``channel_rank(router, out_port, vc_class) -> comparable`` that
    #: strictly increases along every legal channel dependency.  Verified
    #: edge-by-edge by :func:`repro.core.deadlock.verify_rank_certificate`;
    #: ``None`` means the algorithm only offers the cycle-search proof.
    channel_rank = None

    def __init__(self, topology: "Topology"):
        self.topology = topology

    # ------------------------------------------------------------------

    def injection_classes(self, packet: "Packet") -> Sequence[int]:
        """Resource classes a terminal may inject this packet on."""
        return (0,)

    def candidates(self, ctx: RouteContext) -> list[RouteCandidate]:
        """Valid routing options for the packet at this router.

        Must be non-empty whenever the packet is not at its destination
        router; the router guarantees ``ctx`` is only built in that case.
        """
        raise NotImplementedError

    def commit(self, ctx: RouteContext, chosen: RouteCandidate) -> None:
        """Called once when the router dispatches the packet on ``chosen``."""

    def cache_key(self, ctx: RouteContext, dest_router: int) -> Hashable | None:
        """Key under which :meth:`candidates` may be memoised per router.

        A non-None key asserts that the candidate list is a pure function of
        the key for this router — no per-packet state, no randomness, no
        congestion reads.  The router then caches the (immutable) candidate
        list and only re-scores congestion weights while a head packet waits.
        Stateful algorithms return None (the default) and are never cached.
        """
        return None

    def route_discipline_error(
        self, ctx: RouteContext, cand: RouteCandidate
    ) -> str | None:
        """Explain why a committed candidate violates the algorithm's VC
        discipline, or return None when it is legal.

        The repro.check sanitizer calls this on every committed route, so
        each algorithm carries its own machine-checkable model of the
        invariant its deadlock-freedom proof rests on.  The default
        implements the distance-class rule for algorithms that declare
        :attr:`distance_classes`; schemes with richer disciplines (FTHX's
        escape subnetwork, VCFree's up*/down* order) override it.
        """
        if self.distance_classes:
            expected = 0 if ctx.from_terminal else ctx.input_vc_class + 1
            if cand.vc_class != expected:
                return (
                    f"distance-class rule violated — arrived on class "
                    f"{ctx.input_vc_class} (from_terminal="
                    f"{ctx.from_terminal}) but departs on class "
                    f"{cand.vc_class}, expected {expected} "
                    f"(VC_out = VC_in + 1)"
                )
        return None

    # ------------------------------------------------------------------

    def describe(self) -> dict[str, object]:
        """Table-1 style metadata row."""
        return {
            "name": self.name,
            "dimension_ordered": self.dimension_ordered,
            "routing_style": "incremental" if self.incremental else "source",
            "vcs_required": self.num_classes,
            "deadlock_handling": self.deadlock_handling,
            "architecture_requirements": self.architecture_requirements,
            "packet_contents": self.packet_contents,
        }
