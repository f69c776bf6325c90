"""Fault model: declarative fault sets, resolved fault state, and schedules.

The fault layer separates *what* is broken from *when* it breaks and *how*
the rest of the system reacts:

* a :class:`FaultSet` is a declarative, topology-independent list of faults
  (failed links, failed routers, degraded-bandwidth links) that can be built
  by hand, loaded from a schedule file, or sampled with
  :func:`random_link_faults`;
* :meth:`FaultSet.resolve` expands it against a concrete topology into a
  :class:`FaultState` — the mutable runtime object the
  :class:`~repro.faults.degraded.DegradedTopology` wrapper and the routing
  layer consult.  Resolution expands every fault to *directed port* granularity
  and always keeps the set symmetric (both directions of a link fail
  together), so a single ``(router, port) in failed_ports`` lookup answers
  "may I route through this port?";
* a :class:`FaultSchedule` is a list of timestamped :class:`FaultEvent` s the
  :class:`~repro.faults.inject.FaultInjector` applies mid-run.

Semantics: **fail-stop at routing granularity with lossless drain**.  A fault
instantly masks the link for *new* routing decisions; flits of packets whose
transfer already started keep draining over the (physically still present)
channel.  This models the window between a link being administratively
drained and its traffic ceasing, and keeps the simulator's conservation
invariants intact.

Example::

    >>> from repro.topology.hyperx import HyperX
    >>> from repro.faults.model import FaultSet
    >>> topo = HyperX((3, 3), 1)
    >>> state = FaultSet().fail_link(0, 0).resolve(topo)
    >>> sorted(state.failed_ports)          # both directions of the link
    [(0, 0), (1, 0)]
    >>> state.active
    True
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from ..topology.base import Topology


@dataclass(frozen=True)
class LinkFault:
    """One failed router-to-router link, named by either endpoint port."""

    router: int
    port: int


@dataclass(frozen=True)
class RouterFault:
    """A failed router: every one of its links (and its terminals) goes down."""

    router: int


@dataclass(frozen=True)
class DegradedLink:
    """A link running at ``1/factor`` of its bandwidth (one flit per
    ``factor`` cycles instead of one per cycle), named by either endpoint."""

    router: int
    port: int
    factor: int


#: the fault classes, keyed by the name their JSON form spells them with
FAULT_CLASSES = {
    "LinkFault": LinkFault,
    "RouterFault": RouterFault,
    "DegradedLink": DegradedLink,
}


def faults_to_json(faults: Iterable[object]) -> list:
    """The JSON form of declarative faults: ``[class-name, fields]`` pairs,
    fields sorted by name.  This is the spelling inside every memo-key and
    job-id preimage, so changing it renames every archived result."""
    return [[type(f).__name__, dict(sorted(asdict(f).items()))] for f in faults]


def faults_from_json(raw: object) -> tuple:
    """Parse ``[class-name, fields]`` pairs back into frozen fault objects.

    The inverse of :func:`faults_to_json`, and the door untrusted request
    bodies come through: field values are coerced to ``int`` and every
    rejection is a ``ValueError`` naming the offending entry.
    """
    if not isinstance(raw, (list, tuple)):
        raise ValueError("faults must be a list of [class-name, fields] pairs")
    faults = []
    for i, entry in enumerate(raw):
        try:
            name, fields = entry
            cls = FAULT_CLASSES[name]
            faults.append(cls(**{k: int(v) for k, v in fields.items()}))
        except KeyError:
            raise ValueError(
                f"fault #{i}: unknown class {entry[0]!r}; "
                f"choose from {sorted(FAULT_CLASSES)}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"fault #{i}: {exc}") from None
    return tuple(faults)


class FaultSet:
    """A declarative, topology-independent collection of faults.

    Builder methods return ``self`` so fault sets chain::

        FaultSet().fail_link(0, 0).fail_router(5).degrade_link(9, 2, factor=4)
    """

    def __init__(self, faults: Iterable[object] | None = None):
        self.faults: list[object] = list(faults or [])

    def fail_link(self, router: int, port: int) -> "FaultSet":
        self.faults.append(LinkFault(router, port))
        return self

    def fail_router(self, router: int) -> "FaultSet":
        self.faults.append(RouterFault(router))
        return self

    def degrade_link(self, router: int, port: int, factor: int) -> "FaultSet":
        if factor < 1:
            raise ValueError("bandwidth-degradation factor must be >= 1")
        self.faults.append(DegradedLink(router, port, int(factor)))
        return self

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def resolve(self, topology: "Topology") -> "FaultState":
        """Expand against ``topology`` into a runtime :class:`FaultState`."""
        state = FaultState(topology)
        for f in self.faults:
            if isinstance(f, LinkFault):
                state.fail_link(f.router, f.port)
            elif isinstance(f, RouterFault):
                state.fail_router(f.router)
            elif isinstance(f, DegradedLink):
                state.degrade_link(f.router, f.port, f.factor)
            else:
                raise TypeError(f"unknown fault {f!r}")
        return state


class FaultState:
    """Resolved, mutable fault state over one concrete topology.

    ``failed_ports`` holds *directed* ``(router, port)`` pairs and is always
    symmetric — :meth:`fail_link` inserts both directions, and
    :meth:`fail_router` expands to every port of the router plus every
    reverse direction pointing at it.  ``epoch`` increments on every
    connectivity-changing mutation so the
    :class:`~repro.faults.degraded.DegradedTopology` can invalidate its
    shortest-path caches.  The counters (``masked_candidates``,
    ``revoked_routes``, ``events_applied``) are the per-fault telemetry
    surfaced by :meth:`repro.network.telemetry.TelemetryProbe.fault_counters`.
    """

    def __init__(self, topology: "Topology"):
        self.topology = topology
        self.failed_ports: set[tuple[int, int]] = set()
        self.failed_routers: set[int] = set()
        #: directed (router, port) -> minimum cycles between flits
        self.degraded: dict[tuple[int, int], int] = {}
        self.epoch = 0
        self.num_failed_links = 0
        # telemetry counters (see repro.network.telemetry.fault_counters)
        self.masked_candidates = 0
        self.revoked_routes = 0
        self.events_applied = 0

    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when any fault is present."""
        return bool(self.failed_ports or self.failed_routers or self.degraded)

    def _link_endpoints(self, router: int, port: int) -> tuple[tuple[int, int], tuple[int, int]]:
        peer = self.topology.peer(router, port)
        if not peer.is_router:
            raise ValueError(
                f"router {router} port {port} is not a router-to-router link"
            )
        rp = peer.router_port
        return (router, port), (rp.router, rp.port)

    # ------------------------------------------------------------------
    # Mutations (used by resolve() and, mid-run, by the FaultInjector)
    # ------------------------------------------------------------------

    def fail_link(self, router: int, port: int) -> set[tuple[int, int]]:
        """Fail both directions of a link; returns the directed ports added."""
        a, b = self._link_endpoints(router, port)
        added = {a, b} - self.failed_ports
        if added:
            self.failed_ports |= added
            self.num_failed_links += 1
            self.epoch += 1
        return added

    def fail_router(self, router: int) -> set[tuple[int, int]]:
        """Fail a router: every port of it, in both directions.

        Terminal-facing ports fail too, so the router's endpoints become
        unreachable (see ``DegradedTopology.terminal_alive``).
        """
        if router in self.failed_routers:
            return set()
        added: set[tuple[int, int]] = set()
        for port, peer in self.topology.router_ports(router):
            added.add((router, port))
            if peer.is_router:
                rp = peer.router_port
                added.add((rp.router, rp.port))
        added -= self.failed_ports
        self.failed_ports |= added
        self.failed_routers.add(router)
        self.epoch += 1
        return added

    def degrade_link(self, router: int, port: int, factor: int) -> dict[tuple[int, int], int]:
        """Degrade both directions of a link to ``1/factor`` bandwidth;
        returns the directed ``(router, port) -> min_gap`` entries set.
        Connectivity is unchanged, so the epoch is not bumped."""
        if factor < 1:
            raise ValueError("bandwidth-degradation factor must be >= 1")
        a, b = self._link_endpoints(router, port)
        entries = {a: int(factor), b: int(factor)}
        self.degraded.update(entries)
        return entries

    # ------------------------------------------------------------------

    def describe(self) -> dict[str, int]:
        """Summary counts (the static half of the fault telemetry)."""
        return {
            "failed_links": self.num_failed_links,
            "failed_routers": len(self.failed_routers),
            "degraded_links": len(self.degraded) // 2,
            "failed_ports": len(self.failed_ports),
        }


# ----------------------------------------------------------------------
# Scheduled faults
# ----------------------------------------------------------------------

_EVENT_KINDS = ("link", "router", "degrade")


@dataclass(frozen=True)
class FaultEvent:
    """One timestamped fault: a link/router failure or a link degradation."""

    cycle: int
    kind: str
    router: int
    port: int | None = None
    factor: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _EVENT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use {_EVENT_KINDS}")
        if self.kind in ("link", "degrade") and self.port is None:
            raise ValueError(f"{self.kind!r} fault needs a port")
        if self.kind == "degrade" and (self.factor is None or self.factor < 1):
            raise ValueError("degrade fault needs factor >= 1")
        if self.cycle < 0:
            raise ValueError("fault cycle must be >= 0")


@dataclass
class FaultSchedule:
    """Timestamped fault events, applied mid-run by the FaultInjector."""

    events: list[FaultEvent] = field(default_factory=list)

    @classmethod
    def from_faultset(cls, faultset: FaultSet, cycle: int) -> "FaultSchedule":
        """Schedule every fault of ``faultset`` to fire at ``cycle``."""
        events = []
        for f in faultset:
            if isinstance(f, LinkFault):
                events.append(FaultEvent(cycle, "link", f.router, f.port))
            elif isinstance(f, RouterFault):
                events.append(FaultEvent(cycle, "router", f.router))
            elif isinstance(f, DegradedLink):
                events.append(
                    FaultEvent(cycle, "degrade", f.router, f.port, f.factor)
                )
            else:
                raise TypeError(f"unknown fault {f!r}")
        return cls(events)

    def sorted_events(self) -> list[FaultEvent]:
        return sorted(self.events, key=lambda e: e.cycle)

    def failed_router_ids(self) -> set[int]:
        return {e.router for e in self.events if e.kind == "router"}

    # -- JSON persistence (the CLI's ``--schedule`` file format) --------

    def to_json(self) -> str:
        return json.dumps(
            {
                "events": [
                    {
                        "cycle": e.cycle,
                        "kind": e.kind,
                        "router": e.router,
                        **({"port": e.port} if e.port is not None else {}),
                        **({"factor": e.factor} if e.factor is not None else {}),
                    }
                    for e in self.sorted_events()
                ]
            },
            indent=2,
        )

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        with open(path) as f:
            data = json.load(f)
        events = []
        for i, e in enumerate(data["events"]):
            try:
                events.append(
                    FaultEvent(
                        cycle=int(e["cycle"]),
                        kind=e["kind"],
                        router=int(e["router"]),
                        port=None if e.get("port") is None else int(e["port"]),
                        factor=None if e.get("factor") is None else int(e["factor"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                # Schedule files are hand-written; point at the exact event.
                raise ValueError(
                    f"{path}: invalid fault event #{i}: {exc}"
                ) from exc
        return cls(events)


# ----------------------------------------------------------------------
# Random fault sampling
# ----------------------------------------------------------------------


def _router_links(topology: "Topology") -> list[tuple[int, int]]:
    """One (router, port) handle per undirected router-to-router link."""
    links = []
    for r in range(topology.num_routers):
        for port, peer in topology.router_ports(r):
            if peer.is_router and (
                peer.router_port.router > r
                or (peer.router_port.router == r and peer.router_port.port > port)
            ):
                links.append((r, port))
    return links


def _surviving_connected(topology: "Topology", state: FaultState) -> bool:
    """BFS connectivity of non-failed routers over surviving links."""
    alive = [
        r for r in range(topology.num_routers) if r not in state.failed_routers
    ]
    if not alive:
        return False
    seen = {alive[0]}
    frontier = [alive[0]]
    while frontier:
        r = frontier.pop()
        for port, peer in topology.router_ports(r):
            if not peer.is_router or (r, port) in state.failed_ports:
                continue
            nbr = peer.router_port.router
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return len(seen) == len(alive)


def random_faults(
    topology: "Topology",
    links: int = 0,
    routers: int = 0,
    seed: int = 0,
    require_connected: bool = True,
    max_attempts: int = 200,
) -> FaultSet:
    """Sample a random fault set, optionally preserving connectivity.

    Draws ``links`` distinct undirected link failures and ``routers``
    distinct router failures.  With ``require_connected`` (the default) the
    draw is rejected and retried until the surviving routers form one
    connected component — the precondition under which the adaptive
    algorithms must deliver 100% of traffic.
    """
    import numpy as np

    all_links = _router_links(topology)
    if links > len(all_links):
        raise ValueError(f"only {len(all_links)} links exist, cannot fail {links}")
    if routers >= topology.num_routers:
        raise ValueError("cannot fail every router")
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        fset = FaultSet()
        for r in sorted(
            int(x) for x in rng.choice(topology.num_routers, size=routers, replace=False)
        ):
            fset.fail_router(r)
        for i in sorted(
            int(x) for x in rng.choice(len(all_links), size=links, replace=False)
        ):
            fset.fail_link(*all_links[i])
        if not require_connected:
            return fset
        if _surviving_connected(topology, fset.resolve(topology)):
            return fset
    raise RuntimeError(
        f"no connectivity-preserving fault set found in {max_attempts} draws"
    )


def random_link_faults(
    topology: "Topology",
    k: int,
    seed: int = 0,
    require_connected: bool = True,
) -> FaultSet:
    """Sample ``k`` random failed links (connectivity-preserving by default)."""
    return random_faults(
        topology, links=k, seed=seed, require_connected=require_connected
    )
