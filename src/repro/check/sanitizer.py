"""The runtime sanitizer: cross-component invariant audits for a live run.

A :class:`Sanitizer` attaches to a :class:`~repro.network.simulator.Simulator`
as an ordinary process (:meth:`~repro.network.simulator.Simulator.add_process`)
plus, for VC-legality, a per-router route-observation hook.  The process call
site — the start of the compute phase, after channel deliveries settled — is a
consistency point: every credit consume/restore and buffer push/pop pair has
completed, so the invariants below hold *exactly*, not approximately.

Checkers (each individually switchable):

* **conservation** — every flit ever injected is either ejected or still in
  flight somewhere (channel pipelines, input buffers, staging queues, a
  terminal's arrived flit).  Faults never drop flits in this simulator
  (fail-stop at routing granularity with lossless drain), so the
  dropped-by-fault term is structurally zero and the identity is strict.
* **credits** — per credit-flow-controlled hop (the network's
  :class:`~repro.network.network.LinkRecord` wiring map,
  :attr:`~repro.network.network.Network.links`), per VC::

      tracker.occupied(vc) == upstream staged flits + data flits in flight
                              + downstream buffer occupancy
                              + credits in flight back upstream

  where the last term is the credit calendar's census
  (:meth:`~repro.network.network.Network.credits_returning`, taken once
  per audit), plus the tracker's internal consistency (incremental
  ``occupied_total`` against the per-VC counters).  This covers the fault
  paths too: a link that failed mid-run keeps its record and must still
  reconcile while its wormholes drain, and ``revoke_unstarted_routes``
  must not touch credits.
* **deadlock** — a stall-horizon watchdog over a global progress counter
  (injections + ejections + router forwards + data channel pushes).  When no
  progress happens for ``stall_horizon`` cycles while flits are in flight,
  the sanitizer builds the wait-for graph over committed routes and raises
  with the dependency cycle (router, port, VC, packet id, age) instead of
  letting the run hang silently.
* **vc_legality** — on every committed route: the chosen output VC belongs
  to the candidate's resource class, and the hop obeys the algorithm's own
  VC discipline (``RoutingAlgorithm.route_discipline_error``) — the
  distance-class rule ``VC_out = VC_in + 1`` for OmniWAR, the one-way
  escape-subnetwork order for FTHX, the up*/down* channel order for
  VCFree.  Each algorithm carries its own machine-checkable model of the
  invariant its deadlock-freedom proof rests on; the sanitizer just asks.

Overhead: zero when not attached (the hooks are a list and a ``None`` field);
attached with the default 64-cycle window it is a few percent on a loaded
4x4 run — numbers in docs/TESTING.md.

Example::

    >>> from repro.topology.hyperx import HyperX
    >>> from repro.core.dimwar import DimWAR
    >>> from repro.config import default_config
    >>> from repro.network.network import Network
    >>> from repro.network.simulator import Simulator
    >>> from repro.traffic.injection import SyntheticTraffic
    >>> from repro.traffic.patterns import UniformRandom
    >>> from repro.check import Sanitizer
    >>> topo = HyperX((2, 2), 1)
    >>> net = Network(topo, DimWAR(topo), default_config())
    >>> sim = Simulator(net)
    >>> sim.processes.append(SyntheticTraffic(net, UniformRandom(4), 0.1, seed=1))
    >>> san = Sanitizer(sim).attach()
    >>> sim.run(500)                    # audits run inside the cycle loop
    >>> san.audits > 0
    True
    >>> san.final_check()               # one last full audit
    >>> san.detach()
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..network.simulator import Simulator


class SanitizerError(AssertionError):
    """An invariant violation caught by the runtime sanitizer.

    ``checker`` names the check that fired (``"conservation"``,
    ``"credits"``, ``"deadlock"``, or ``"vc_legality"``) so tests — and the
    mutation self-test — can assert that a seeded bug trips the *right*
    checker, not merely any checker.
    """

    def __init__(self, checker: str, message: str):
        super().__init__(f"[{checker}] {message}")
        self.checker = checker


class Sanitizer:
    """Attachable runtime invariant auditor for one simulator.

    Parameters
    ----------
    sim:
        The simulator to watch.
    window:
        Cycles between periodic audits.  Smaller windows localise a
        violation more tightly in time but cost more; the default (64)
        matches ``run_until``'s check cadence.
    stall_horizon:
        Cycles without global forward progress before the deadlock checker
        fires.  Must comfortably exceed the worst legitimate stall —
        a credit round trip times the maximum wormhole length; the default
        (4096) is ~25x the scaled-default round trip.
    conservation, credits, deadlock, vc_legality:
        Individual checker switches (all on by default).
    """

    def __init__(
        self,
        sim: "Simulator",
        *,
        window: int = 64,
        stall_horizon: int = 4096,
        conservation: bool = True,
        credits: bool = True,
        deadlock: bool = True,
        vc_legality: bool = True,
    ):
        if window < 1:
            raise ValueError("audit window must be >= 1 cycle")
        if stall_horizon < window:
            raise ValueError("stall horizon must be >= the audit window")
        self.sim = sim
        self.network = sim.network
        self.window = window
        self.stall_horizon = stall_horizon
        self.check_conservation = conservation
        self.check_credits = credits
        self.check_deadlock = deadlock
        self.check_vc_legality = vc_legality

        self._attached = False
        self._next_audit = sim.cycle
        self._last_progress = -1
        self._last_progress_cycle = sim.cycle
        # audit telemetry (surfaced by the self-test and docs)
        self.audits = 0
        self.routes_checked = 0

        net = self.network
        self._num_vcs = net.cfg.router.num_vcs
        # (router, out_port) -> (downstream router, downstream port), from
        # the wiring map: the edge relation of the wait-for graph.
        self._down_of = {
            rec.src: rec.dst for rec in net.links if rec.kind == "rr"
        }
        # Bound once: the algorithm's own VC-discipline model (distance
        # classes, escape ordering, up*/down* order, ...).
        self._discipline = net.algorithm.route_discipline_error

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self) -> "Sanitizer":
        """Register with the simulator (process + route hooks); chainable."""
        if self._attached:
            raise RuntimeError("sanitizer already attached")
        self.sim.add_process(self)
        if self.check_vc_legality:
            for r in self.network.routers:
                r.add_route_hook(self._on_route)
        self._attached = True
        self._next_audit = self.sim.cycle
        return self

    def detach(self) -> None:
        """Unregister every hook; the simulator runs at full speed again."""
        if not self._attached:
            return
        self.sim.remove_process(self)
        if self.check_vc_legality:
            for r in self.network.routers:
                if self._on_route in r._route_hooks:
                    r.remove_route_hook(self._on_route)
        self._attached = False

    # ------------------------------------------------------------------
    # Per-cycle process (the simulator calls this every compute phase).
    # Deliberately no next_wakeup: a sanitized run executes every cycle,
    # which makes it the skip oracle's reference arm.
    # ------------------------------------------------------------------

    def __call__(self, cycle: int) -> None:
        if cycle >= self._next_audit:
            self.audit(cycle)
            self._next_audit = cycle + self.window

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------

    def audit(self, cycle: int) -> None:
        """Run every enabled checker once, at one consistency point."""
        self.audits += 1
        if self.check_conservation:
            self._audit_conservation(cycle)
        if self.check_credits:
            self._audit_credits(cycle)
        if self.check_deadlock:
            self._audit_progress(cycle)

    def final_check(self, require_quiescent: bool = False) -> None:
        """One last audit at the current cycle.

        With ``require_quiescent`` the network must also be fully drained:
        no flit in flight, every credit restored, every output VC released,
        and injected == ejected exactly.  Use it after
        :meth:`~repro.network.simulator.Simulator.drain`; the default is
        lenient because measurement runs end with injection still on.
        """
        cycle = self.sim.cycle
        self.audit(cycle)
        if not require_quiescent:
            return
        net = self.network
        if not net.quiescent():
            raise SanitizerError(
                "conservation", f"cycle {cycle}: network not quiescent at final check"
            )
        inj, ej = net.total_injected_flits(), net.total_ejected_flits()
        if inj != ej:
            raise SanitizerError(
                "conservation",
                f"cycle {cycle}: drained but injected {inj} != ejected {ej}",
            )
        for rec in net.links:
            if rec.tracker.total_occupied() != 0:
                raise SanitizerError(
                    "credits",
                    f"cycle {cycle}: link {rec.label} drained but "
                    f"{rec.tracker.total_occupied()} credits still consumed",
                )
        for r in net.routers:
            for port, owners in enumerate(r.out_vc_owner):
                for vc, owner in enumerate(owners):
                    if owner is not None:
                        in_port, in_vc = divmod(owner, r.num_vcs)
                        raise SanitizerError(
                            "credits",
                            f"cycle {cycle}: router {r.router_id} port {port} "
                            f"VC {vc} still held by input port {in_port} "
                            f"VC {in_vc} after drain",
                        )

    # -- flit conservation ---------------------------------------------

    def _audit_conservation(self, cycle: int) -> None:
        net = self.network
        inj = net.total_injected_flits()
        ej = net.total_ejected_flits()
        in_flight = net.flits_in_flight()
        if inj != ej + in_flight:
            raise SanitizerError(
                "conservation",
                f"cycle {cycle}: injected {inj} != ejected {ej} + "
                f"in-flight {in_flight} (delta {inj - ej - in_flight:+d}); "
                f"a flit was created or destroyed outside the protocol",
            )

    # -- credit accounting ---------------------------------------------

    def _audit_credits(self, cycle: int) -> None:
        num_vcs = self._num_vcs
        returning = self.network.credits_returning()  # once per audit
        for rec in self.network.links:
            tracker = rec.tracker
            if not tracker.consistent():
                raise SanitizerError(
                    "credits",
                    f"cycle {cycle}: link {rec.label}: tracker internally "
                    f"inconsistent (credits {tracker.credits}, "
                    f"occupied_total {tracker.occupied_total})",
                )
            data_counts = [0] * num_vcs
            for vc, _flit in rec.data.pending_payloads():
                data_counts[vc] += 1
            credit_counts = [returning[tracker, vc] for vc in range(num_vcs)]
            staged = rec.staged
            buffered = rec.downstream.occupancy
            for vc in range(num_vcs):
                expected = (
                    data_counts[vc]
                    + credit_counts[vc]
                    + buffered(vc)
                    + (len(staged[vc]) if staged is not None else 0)
                )
                have = tracker.occupied(vc)
                if have != expected:
                    raise SanitizerError(
                        "credits",
                        f"cycle {cycle}: link {rec.label} VC {vc}: tracker "
                        f"says {have} slots consumed but "
                        f"staged+in-flight+buffered+returning = {expected} "
                        f"({len(staged[vc]) if staged is not None else 0}+"
                        f"{data_counts[vc]}+{buffered(vc)}+"
                        f"{credit_counts[vc]}); a credit leaked or a flit "
                        f"bypassed flow control",
                    )

    # -- deadlock / stall watchdog -------------------------------------

    def _progress_counter(self) -> int:
        net = self.network
        n = net.total_injected_flits() + net.total_ejected_flits()
        for r in net.routers:
            n += r.flits_forwarded
        for ch in net.channels:
            n += ch.utilization_count
        return n

    def _audit_progress(self, cycle: int) -> None:
        progress = self._progress_counter()
        if progress != self._last_progress:
            self._last_progress = progress
            self._last_progress_cycle = cycle
            return
        stalled_for = cycle - self._last_progress_cycle
        if stalled_for < self.stall_horizon:
            return
        if self.network.flits_in_flight() == 0:
            # Nothing in the network: an idle simulator is not a deadlock.
            self._last_progress_cycle = cycle
            return
        self._raise_deadlock(cycle, stalled_for)

    def find_wait_cycle(self):
        """Cyclic dependency in the wait-for graph, or None.

        Nodes are ``(router, input port, VC)`` triples holding a committed
        route; each waits on the downstream input VC its route targets.
        Returns the node list of one cycle (in dependency order) when the
        graph is cyclic.  Exposed for tests and post-mortem debugging.
        """
        edges = {}
        for r in self.network.routers:
            rid = r.router_id
            nv = r.num_vcs
            for key, route in enumerate(r.routes):
                if route is None:
                    continue
                down = self._down_of.get((rid, route.out_port))
                if down is not None:  # ejection hops leave the graph
                    port, vc = divmod(key, nv)
                    edges[(rid, port, vc)] = (down[0], down[1], route.out_vc)
        # Iterative DFS with tri-colouring over the (out-degree <= 1) graph:
        # follow each chain until it terminates, repeats, or hits a settled
        # node.
        DONE = object()
        colour: dict = {}
        for start in edges:
            if colour.get(start) is DONE:
                continue
            path: list = []
            on_path: dict = {}
            node = start
            while True:
                if node in on_path:
                    return path[on_path[node]:]  # the cycle
                if node not in edges or colour.get(node) is DONE:
                    break
                on_path[node] = len(path)
                path.append(node)
                node = edges[node]
            for n in path:
                colour[n] = DONE
        return None

    def _describe_node(self, node, cycle: int) -> str:
        rid, port, vc = node
        r = self.network.routers[rid]
        key = port * r.num_vcs + vc
        route = r.routes[key]
        fifo = r.fifos[key]
        head = fifo[0] if fifo else None
        if head is not None:
            pkt = head.packet
            age = cycle - pkt.create_cycle
            who = f"packet {pkt.pid} (age {age})"
        else:
            who = "no head flit"
        tgt = f"-> port {route.out_port} VC {route.out_vc}" if route else ""
        return f"router {rid} port {port} VC {vc}: {who} {tgt}"

    def _raise_deadlock(self, cycle: int, stalled_for: int) -> None:
        wait_cycle = self.find_wait_cycle()
        if wait_cycle is not None:
            lines = [self._describe_node(n, cycle) for n in wait_cycle]
            raise SanitizerError(
                "deadlock",
                f"cycle {cycle}: no forward progress for {stalled_for} "
                f"cycles; cyclic wait ({len(wait_cycle)} nodes):\n  "
                + "\n  ".join(lines),
            )
        # No wait cycle: a stall (e.g. a starved resource), still fatal.
        heads = (
            (r.router_id, *divmod(key, r.num_vcs))
            for r in self.network.routers
            for key, fifo in enumerate(r.fifos)
            if fifo
        )
        blocked = [self._describe_node(n, cycle) for n in islice(heads, 10)]
        raise SanitizerError(
            "deadlock",
            f"cycle {cycle}: no forward progress for {stalled_for} cycles "
            f"with {self.network.flits_in_flight()} flits in flight; no "
            f"wait cycle found (livelock or starved resource).  Blocked "
            f"heads:\n  " + "\n  ".join(blocked or ["(none)"]),
        )

    # -- VC-class legality (router route hook) -------------------------

    def _on_route(self, cycle, router, port, vc, ctx, cand, out_vc, scored=None) -> None:
        self.routes_checked += 1
        vc_map = self.network.vc_map
        out_class = vc_map.class_of(out_vc)
        if out_class != cand.vc_class:
            raise SanitizerError(
                "vc_legality",
                f"cycle {cycle}: router {router.router_id} packet "
                f"{ctx.packet.pid}: output VC {out_vc} is in class "
                f"{out_class}, but the candidate declared class "
                f"{cand.vc_class}",
            )
        problem = self._discipline(ctx, cand)
        if problem is not None:
            raise SanitizerError(
                "vc_legality",
                f"cycle {cycle}: router {router.router_id} packet "
                f"{ctx.packet.pid}: {problem}",
            )
