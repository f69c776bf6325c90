"""The combined input/output-queued (CIOQ) router model.

This reproduces the router architecture of the paper's evaluation (Section 6):

* per-input-port, per-VC buffered inputs with credit-based flow control,
* a routing stage that asks the configured :class:`RoutingAlgorithm` for the
  valid candidates and scores each with the paper's weight
  ``congestion x hopcount`` from locally observable state,
* wormhole virtual-channel allocation (an output VC is held by one packet
  from head to tail),
* an internal datapath with *speedup* so that the crossbar is not the
  bottleneck ("sufficient speedup to ensure the internal router datapath is
  not a bottleneck"), modelled as per-input-port forwarding speedup into
  per-output staging queues,
* a fixed crossbar traversal latency,
* age-based arbitration for the output channel (the oldest packet in the
  network wins), as used for both VC and crossbar scheduling in the paper.

Routing decisions for adaptive algorithms are re-evaluated every cycle while
a packet waits, which is precisely what allows incremental algorithms to react
to congestion at every hop.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from ..core.base import NoRouteError, RouteCandidate, RouteContext
from ..core.weights import congestion_terms
from .buffers import NEVER_USED, CreditTracker, InputUnit, VcRoute
from .channel import Channel
from .types import Flit

if TYPE_CHECKING:  # pragma: no cover
    from ..config import SimConfig
    from ..core.base import RoutingAlgorithm
    from ..core.vcmap import VcMap
    from ..topology.base import Topology


#: Length of every router's tie-break jitter ring (a power of two: the
#: scoring loop wraps its index with a mask).
JITTER_RING = 4096


def _hook_fanout(hooks: list):
    """Collapse a hook list into the single-slot fast-path representation:
    None when empty, the hook itself when alone, a dispatch closure else."""
    if not hooks:
        return None
    if len(hooks) == 1:
        return hooks[0]
    frozen = tuple(hooks)

    def dispatch(*args):
        for h in frozen:
            h(*args)

    return dispatch


class Router:
    """One router of the simulated network."""

    def __init__(
        self,
        router_id: int,
        topology: "Topology",
        algorithm: "RoutingAlgorithm",
        vc_map: "VcMap",
        cfg: "SimConfig",
        rng: np.random.Generator,
        dest_router: list[int] | None = None,
        ports: "list[tuple[int, object]] | None" = None,
    ):
        self.router_id = router_id
        self.vc_map = vc_map
        self.rng = rng
        rc = cfg.router
        self.num_vcs = rc.num_vcs
        self.radix = topology.radix(router_id)

        # Which ports face terminals (ejection targets / injection sources).
        # The Network builder passes its own (port, peer) walk in via
        # ``ports`` so topology.peer() runs once per port per build instead
        # of twice; standalone routers (unit tests) walk it themselves.
        self._is_term_port = [False] * self.radix
        self.terminal_of_port: dict[int, int] = {}
        self.port_of_terminal: dict[int, int] = {}
        for port, peer in (ports if ports is not None
                           else topology.router_ports(router_id)):
            if peer.is_terminal:
                self._is_term_port[port] = True
                self.terminal_of_port[port] = peer.terminal
                self.port_of_terminal[peer.terminal] = port

        # Input side: each port's InputUnit is its flit sink over the flat
        # tables fifos / routes (see reset).
        self.inputs = [
            InputUnit(self, p, rc.buffer_depth) for p in range(self.radix)
        ]
        self._credit_return: list[CreditTracker | None] = [None] * self.radix

        # Output side.  The per-port lists that others hold are allocated
        # empty here and filled by reset: out_vc_owner[port] (the port's
        # tracker holds it), staged[port] (a LinkRecord holds it) and
        # _staged_live[port].
        self.credit_trackers: list[CreditTracker | None] = [None] * self.radix
        self.out_channels: list[Channel | None] = [None] * self.radix
        self.out_vc_owner: list[list[int | None]] = [[] for _ in range(self.radix)]
        self.staged: list[list] = [[] for _ in range(self.radix)]
        self._staged_live: list[list[int]] = [[] for _ in range(self.radix)]
        # Sleeping flat input keys, as in _active_in; each sleeper owns the
        # output VC it waits on, which is how its tracker's restore() finds
        # it (every tracker of the router holds this set).
        self._asleep: set[int] = set()

        # Sequential allocation (Section 4.1): flits committed by routing
        # decisions earlier in the SAME cycle, visible to later decisions.
        self._sequential = rc.sequential_allocation
        # Output arbitration: age-based (the paper's choice) or round-robin.
        self._age_arbitration = rc.arbiter == "age"

        # Hot-path hoists: resolve config/attribute chains once instead of on
        # every cycle (profiled; the lookups dominate loaded-cycle cost).
        self._speedup = rc.input_speedup
        self._xbar_lat = rc.xbar_latency
        self._stage_cap = rc.output_queue_depth * self.num_vcs
        # Shared references into the VcMap's own tables: identical for every
        # router of a network, read-only on this side, and rebuilding them
        # per router was a measurable slice of large-network construction.
        self._vcs_of = vc_map._groups
        self._class_of = vc_map._class_of
        # Destination router per terminal, tabulated: _compute_route resolves
        # the dest router with one list index instead of a topology call per
        # routing decision.  The table is identical for every router of a
        # network, so the Network builder computes it once and shares it —
        # tabulating it per router made construction O(routers x terminals)
        # and was the dominant cost of building large networks.  Standalone
        # routers (unit tests) tabulate their own.
        self._dest_router = dest_router if dest_router is not None else [
            topology.router_of_terminal(t) for t in range(topology.num_terminals)
        ]

        # Tie-break jitter: a ring of JITTER_RING draws from this router's
        # generator, one consumed per feasible candidate scored, wrapping.
        # _grow_jitter draws it as it is consumed (Generator.random(n) takes
        # one 64-bit output per double and the rng feeds nothing else, so
        # the chunks concatenate to rng.random(JITTER_RING)): a router pays
        # for the draws its decisions use, an idle router for none.
        self._jitter: list[float] = []
        # Bound on the route cache (see reset), so paper-scale runs stay
        # bounded.
        self._route_cache_cap = 8192

        # Scoring-loop hoists (see _choose): the configured mode's two
        # integer terms and the port's integer slot count.
        self._occ_term, self._stg_term = congestion_terms(rc.congestion_mode)
        self._port_denom = self.num_vcs * rc.buffer_depth

        # Simulator activity registry and credit calendar.  The owning
        # Network replaces both with its shared ones before wiring;
        # standalone routers (unit tests) keep private throwaway ones.
        self._wake_registry: dict["Router", None] = {}
        self._calendar: list[list] = [[]]
        self.reset(algorithm, cfg)

    def reset(self, algorithm: "RoutingAlgorithm", cfg: "SimConfig") -> None:
        """The run state, wiring kept: ``__init__`` calls it, and so does
        :meth:`~repro.network.network.Network.reset` for a point on an
        equal scenario.

        The per-port lists a tracker or a link record holds
        (``out_vc_owner[port]``, ``staged[port]``) are filled in place, and
        ``_asleep`` is emptied in place.  The jitter ring is kept and read from its start
        again: it is a prefix of this router's one draw stream, the same
        draws a fresh router would make, and ``rng`` stands where the ring
        ends."""
        self.algorithm = algorithm
        self.cfg = cfg
        nv, radix = self.num_vcs, self.radix
        # Input side: two flat tables with one slot per input VC at the flat
        # key ``port * num_vcs + vc``: fifos[key] (NEVER_USED until the VC's
        # first flit, then a deque) and routes[key] (the head packet's
        # VcRoute, None while unrouted).
        self.fifos: list = [NEVER_USED] * (radix * nv)
        self.routes: list[VcRoute | None] = [None] * (radix * nv)
        # out_vc_owner[port][vc]: flat key (in_port * num_vcs + in_vc) of the
        # input VC holding it head to tail, None while free; the port's
        # tracker reads it to wake that input VC on a credit.
        # staged[port][vc]: deque of (ready_cycle, flit) past the crossbar;
        # NEVER_USED until _step_inputs first stages a flit there.  Whoever
        # needs a port's queues later (a LinkRecord) holds the
        # staged[port] *list*, never its elements.
        # _staged_live[port]: the port's VCs with staged payload, sorted.
        free, never = (None,) * nv, (NEVER_USED,) * nv
        for owner, per_port, live in zip(self.out_vc_owner, self.staged,
                                         self._staged_live):
            owner[:] = free
            per_port[:] = never
            live.clear()
        for tracker in self.credit_trackers:
            if tracker is not None:
                tracker.reset()
        self._staged_count = [0] * radix

        # Active-set bookkeeping.  _active_in is a *sorted* list of live
        # flat input keys; the input pass iterates it in ascending
        # (port, vc) order and reads fifos[key] / routes[key].  Keeping the
        # schedule canonical — a static property of the wiring, not of arrival
        # history — makes every within-cycle delivery interleaving
        # observationally equivalent, which is what lets the sharded engine
        # (repro.network.shard) reproduce single-process arbitration
        # byte-for-byte from per-shard state alone.
        self._active_in: list[int] = []
        # _active_out is an ordered set (dict keys) of output ports with
        # staged flits.  Insertion order is the order the input pass first
        # stages to each port — a function of the canonical input schedule,
        # so it is reproducible too.
        self._active_out: dict[int, None] = {}

        # Sequential allocation: flits committed per output port earlier in
        # this cycle.
        self._pending_commit = [0] * radix
        self._rr_next = [0] * radix  # per-port rotating VC priority (round-robin)

        # Telemetry.
        self.flits_forwarded = 0
        self.routes_computed = 0
        self.route_stalls = 0  # cycles a head packet had no feasible candidate

        # Per-cycle scratch, allocated once and reset sparsely via the
        # touched lists (see _step_inputs).
        self._port_budget = [0] * radix
        self._budget_touched: list[int] = []
        self._commit_touched: list[int] = []

        self._jitter_idx = 0  # the next jitter draw, an index into the ring

        # Memoised candidate *skeletons* for stateless algorithms (see
        # RoutingAlgorithm.cache_key and _build_skeleton): each entry
        # pre-resolves, per candidate, everything the scoring loop needs —
        # hops, the VC group of its class, and the output port's credit
        # tracker / VC-owner list — so a cache hit scores congestion x
        # precomputed-hops without re-deriving any of it.
        # Bounded by _route_cache_cap; on overflow the oldest key is
        # evicted in insertion (clock) order, O(1) and with zero
        # bookkeeping on the hit path.  Algorithms whose cache_key is None
        # build a throwaway skeleton per decision and touch neither the
        # cache nor its counters.  Cleared here since the algorithm may
        # differ.
        self._route_cache: dict = {}
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self.route_cache_evictions = 0

        # Event-driven stage scheduling (see _step_inputs/_step_outputs):
        # an input VC whose committed route is blocked on downstream credits
        # goes to sleep (_asleep) and is woken by the credit sink
        # (CreditTracker.restore) the cycle the credit returns; per output
        # port, only VCs with staged payload are scanned and a port whose
        # staged heads are all still in the crossbar (or whose degraded link
        # is in its min_gap window) is skipped until `_stage_ready`.  The
        # output pass itself is armed, not polled:
        # `_out_wake` never exceeds the earliest `_stage_ready` over the
        # active ports, and step() enters _step_outputs only at or past it.
        # Staging onto an empty port sets that port's bound to the flit's
        # crossbar exit and lowers the wake to it; a pass that emitted (or
        # any round-robin pass) resets the wake to "now"; an age-arbitrated
        # pass that emitted nothing has just refreshed every active port's
        # bound and recomputes the wake from them.
        # Cycle skip-ahead (repro.network.skip) reuses these structures as
        # its router-level event bound: awake `_active_in` entries and
        # `_active_out` ports with an empty staging queue (cleanup pending)
        # veto jumping entirely; otherwise the min over `_stage_ready` of
        # active ports bounds when this router can next do work.  The
        # round-robin arbiter leaves `_stage_ready` untouched on a no-grant
        # pass, keeping it <= cycle — a standing veto, so staleness is
        # conservative there too.
        self._asleep.clear()
        self._stage_ready = [0] * radix
        self._out_wake = 0
        # Reusable deferred-deletion scratch for the step loops: marking dead
        # keys and deleting after the pass lets the loops iterate the active
        # sets directly instead of copying them every cycle (nothing inserts
        # into these sets during the compute phase).
        self._dead_in: list[int] = []
        self._dead_out: list[int] = []

        # Route observation hooks (repro.check VC-legality sanitizer,
        # repro.obs tracer): registered via add_route_hook(), called as
        # (cycle, router, in_port, in_vc, ctx, cand, out_vc, scored) for
        # every committed route, where ``scored`` lists every candidate
        # considered as (cand, out_vc_or_None, weight_or_None).  The fast
        # path keeps a single slot: None when no hooks, the sole hook when
        # one, a fan-out closure otherwise — one is-None test per routing
        # decision when disabled.
        self._route_hook = None
        self._route_hooks: list = []
        # Switch-allocation observation hook: fired from _step_inputs as
        # (cycle, router, in_port, in_vc, out_port, out_vc, flit) every time
        # a flit crosses the crossbar into the staged output queue.
        self._forward_hook = None
        self._forward_hooks: list = []

    # ------------------------------------------------------------------
    # Wiring (called by the network builder)
    # ------------------------------------------------------------------

    def attach_output(self, port: int, data: Channel, credits: CreditTracker) -> None:
        self.out_channels[port] = data
        self.credit_trackers[port] = credits
        credits.owner = self.out_vc_owner[port]
        credits.asleep = self._asleep

    # ------------------------------------------------------------------
    # Observation hooks (repro.check sanitizer, repro.obs tracer)
    # ------------------------------------------------------------------

    def add_route_hook(self, hook) -> None:
        """Register a route-observation hook.

        Hooks are called after every committed route decision as
        ``hook(cycle, router, in_port, in_vc, ctx, cand, out_vc, scored)``
        in registration order.  Registering the same hook twice (bound
        methods compare by ``__self__`` and ``__func__``, so a re-bound
        method of the same object still counts) is an error — it is the
        detach-residue bug class this API exists to prevent.
        """
        if hook in self._route_hooks:
            raise ValueError(f"route hook {hook!r} already registered")
        self._route_hooks.append(hook)
        self._route_hook = _hook_fanout(self._route_hooks)

    def remove_route_hook(self, hook) -> None:
        """Unregister a hook added by :meth:`add_route_hook`."""
        self._route_hooks.remove(hook)
        self._route_hook = _hook_fanout(self._route_hooks)

    def add_forward_hook(self, hook) -> None:
        """Register a switch-allocation hook, fired per forwarded flit as
        ``hook(cycle, router, in_port, in_vc, out_port, out_vc, flit)``."""
        if hook in self._forward_hooks:
            raise ValueError(f"forward hook {hook!r} already registered")
        self._forward_hooks.append(hook)
        self._forward_hook = _hook_fanout(self._forward_hooks)

    def remove_forward_hook(self, hook) -> None:
        """Unregister a hook added by :meth:`add_forward_hook`."""
        self._forward_hooks.remove(hook)
        self._forward_hook = _hook_fanout(self._forward_hooks)

    def active_input_keys(self) -> list[tuple[int, int]]:
        """The live input VCs as (port, vc) pairs, in schedule order
        (introspection for tests and tools; the hot path keeps flat keys)."""
        nv = self.num_vcs
        return [divmod(k, nv) for k in self._active_in]

    # ------------------------------------------------------------------
    # Per-cycle pipeline
    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        # Sleeping input VCs (blocked on downstream credits) stay in
        # _active_in so the router keeps stepping, but when *every* active
        # entry is asleep the whole input pass is a no-op and is skipped.
        active_in = self._active_in
        if active_in and len(self._asleep) < len(active_in):
            self._step_inputs(cycle)
        if self._active_out and cycle >= self._out_wake:
            self._step_outputs(cycle)

    @property
    def idle(self) -> bool:
        return not self._active_in and not self._active_out

    def _step_inputs(self, cycle: int) -> None:
        speedup = self._speedup
        budget = self._port_budget
        touched = self._budget_touched
        if touched:  # zero only the entries the previous cycle dirtied
            for p in touched:
                budget[p] = 0
            touched.clear()
        if self._sequential:
            ct = self._commit_touched
            if ct:
                pc = self._pending_commit
                for p in ct:
                    pc[p] = 0
                ct.clear()
        active = self._active_in
        fifos = self.fifos
        routes = self.routes
        nv = self.num_vcs
        asleep = self._asleep
        trackers = self.credit_trackers
        staged_count = self._staged_count
        stage_cap = self._stage_cap
        xbar_lat = self._xbar_lat
        staged = self.staged
        staged_live = self._staged_live
        stage_ready = self._stage_ready
        active_out = self._active_out
        credit_return = self._credit_return
        calendar = self._calendar
        mask = len(calendar) - 1
        forward_hook = self._forward_hook
        dead = self._dead_in
        forwarded = 0
        # Keys enter _asleep only from inside this loop, and a key just put
        # to sleep is never revisited in the same pass — so when the set is
        # empty at loop entry the membership test can be skipped entirely.
        check_asleep = bool(asleep)
        for key in active:
            if check_asleep and key in asleep:
                continue  # blocked on credits; the credit sink wakes it
            fifo = fifos[key]
            if not fifo:
                dead.append(key)
                continue
            port = key // nv
            if budget[port] >= speedup:
                continue
            route = routes[key]
            if route is None:
                head = fifo[0]
                if not head.is_head:
                    raise RuntimeError("non-head flit with no route: VC protocol bug")
                route = self._compute_route(cycle, port, key - port * nv, head)
                if route is None:
                    self.route_stalls += 1
                    continue
                routes[key] = route
            # Switch allocation + crossbar traversal, inlined (this is the
            # per-flit hot path; it was a _try_forward method once).
            out_port = route.out_port
            out_vc = route.out_vc
            tracker = trackers[out_port]
            if tracker.credits[out_vc] <= 0:
                # Sleep until the credit sink restores this exact (port, VC);
                # this key owns it, so restore() knows whom to wake.
                asleep.add(key)
                continue
            sc = staged_count[out_port]
            if sc >= stage_cap:
                continue  # frees locally via _step_outputs; keep polling
            flit = fifo.popleft()
            # CreditTracker.consume inlined; the underflow check is the
            # credit test a few lines up.
            tracker.credits[out_vc] -= 1
            tracker.occupied_total += 1
            sq = staged[out_port][out_vc]
            if not sq:
                if sq is NEVER_USED:
                    sq = staged[out_port][out_vc] = deque()
                insort(staged_live[out_port], out_vc)
            sq.append((cycle + xbar_lat, flit))
            staged_count[out_port] = sc + 1
            if sc == 0:
                # Empty->busy transition: the port cannot emit before this
                # flit leaves the crossbar (it emptied at or past its old
                # bound), so arm the output pass for then, and register the
                # port.  Re-assigning an already-present key never moves it
                # in a dict, so storing only on the transition leaves the
                # (deterministic) port iteration order exactly as before.
                ready = stage_ready[out_port] = cycle + xbar_lat
                if not active_out or ready < self._out_wake:
                    self._out_wake = ready
                active_out[out_port] = None
            forwarded += 1
            if budget[port] == 0:
                touched.append(port)
            budget[port] += 1
            vc = key - port * nv
            # Return a credit upstream for the freed input slot.
            up = credit_return[port]
            if up is not None:
                calendar[(cycle + up.latency) & mask].append((up, vc))
            if forward_hook is not None:
                forward_hook(cycle, self, port, vc, out_port, out_vc, flit)
            if flit.tail:
                self.out_vc_owner[out_port][out_vc] = None
                routes[key] = None
            if not fifo:
                dead.append(key)
        if forwarded:
            self.flits_forwarded += forwarded
        if dead:
            for key in dead:
                active.remove(key)
            dead.clear()

    def _step_outputs(self, cycle: int) -> None:
        staged_count = self._staged_count
        active = self._active_out
        stage_ready = self._stage_ready
        dead = self._dead_out
        out_channels = self.out_channels
        staged_all = self.staged
        staged_live = self._staged_live
        age = self._age_arbitration
        # Round-robin leaves _stage_ready stale on a no-grant pass (a
        # standing veto by design), so it never sleeps the pass either.
        emitted = not age
        for port in active:
            if staged_count[port] == 0:
                dead.append(port)
                continue
            # Event-driven skip: _stage_ready holds a proven lower bound on
            # the next cycle this port can emit (earliest staged head still
            # in the crossbar, or the end of a degraded link's min_gap
            # window).  The bound stays valid under pushes because a newly
            # staged flit is never ready earlier than heads staged before it.
            if cycle < stage_ready[port]:
                continue
            ch = out_channels[port]
            staged = staged_all[port]
            live = staged_live[port]
            # Degraded-bandwidth link (fault injection): at most one flit
            # every min_gap cycles.  Healthy channels short-circuit on the
            # first comparison.
            if ch.min_gap > 1 and cycle - ch._last_push_cycle < ch.min_gap:
                stage_ready[port] = ch._last_push_cycle + ch.min_gap
                continue
            best_vc = -1
            if age:
                if len(live) == 1:
                    # Overwhelmingly common under load: one VC with staged
                    # payload — no arbitration, just the crossbar-exit check.
                    v = live[0]
                    if staged[v][0][0] > cycle:
                        stage_ready[port] = staged[v][0][0]
                        continue
                    best_vc = v
                else:
                    # Age arbitration over the live VCs' ready heads.  The
                    # (create_cycle, pid) age key is compared as two ints to
                    # avoid a tuple per candidate; pids are unique so the
                    # lexicographic order is total.
                    bc = bp = 0
                    next_ready = -1
                    for v in live:
                        ready, flit = staged[v][0]
                        if ready <= cycle:
                            p = flit.packet
                            c = p.create_cycle
                            if (
                                best_vc < 0
                                or c < bc
                                or (c == bc and p.pid < bp)
                            ):
                                bc = c
                                bp = p.pid
                                best_vc = v
                        elif next_ready < 0 or ready < next_ready:
                            next_ready = ready
                    if best_vc < 0:
                        # Every staged head is still in the crossbar: sleep
                        # the port until the earliest one emerges.
                        if next_ready > 0:
                            stage_ready[port] = next_ready
                        continue
            else:  # round-robin over VCs with a ready head flit
                base = self._rr_next[port]
                for off in range(self.num_vcs):
                    v = (base + off) % self.num_vcs
                    q = staged[v]
                    if q and q[0][0] <= cycle:
                        best_vc = v
                        self._rr_next[port] = (v + 1) % self.num_vcs
                        break
                if best_vc < 0:
                    continue  # nothing past the crossbar yet this cycle
            emitted = True
            q = staged[best_vc]
            _, flit = q.popleft()
            if not q:
                live.remove(best_vc)
            staged_count[port] -= 1
            ch.push(cycle, (best_vc, flit))
            if staged_count[port] == 0:
                dead.append(port)
        if dead:
            for port in dead:
                del active[port]
            dead.clear()
        # Re-arm (see __init__): poll again next cycle after an emission;
        # otherwise every surviving port's bound was just proven > cycle.
        self._out_wake = cycle if emitted else min(
            map(stage_ready.__getitem__, active), default=cycle
        )

    # ------------------------------------------------------------------
    # Route computation
    # ------------------------------------------------------------------

    def _compute_route(self, cycle: int, port: int, vc: int, head: Flit) -> VcRoute | None:
        packet = head.packet
        self.routes_computed += 1
        dest_router = self._dest_router[packet.dst_terminal]
        if dest_router == self.router_id:
            return self._route_ejection(port, vc, packet)

        from_terminal = self._is_term_port[port]
        ctx = RouteContext(
            router=self,
            packet=packet,
            input_port=port,
            input_vc_class=0 if from_terminal else self._class_of[vc],
            from_terminal=from_terminal,
        )
        algorithm = self.algorithm
        # A None key (stateful algorithm) is never stored, so it always
        # misses: those algorithms score a fresh, un-memoised skeleton.
        ck = algorithm.cache_key(ctx, dest_router)
        cache = self._route_cache
        skel = cache.get(ck)
        if skel is None:
            cands = algorithm.candidates(ctx)
            if not cands:
                raise NoRouteError(
                    f"{algorithm.name} returned no candidates at router "
                    f"{self.router_id} for packet {packet.pid}"
                )
            skel = self._build_skeleton(cands)
            if ck is not None:
                self.route_cache_misses += 1
                if len(cache) >= self._route_cache_cap:
                    del cache[next(iter(cache))]
                    self.route_cache_evictions += 1
                cache[ck] = skel
        else:
            self.route_cache_hits += 1
        return self._choose(cycle, port, vc, ctx, skel)

    def _build_skeleton(self, cands: list[RouteCandidate]) -> list[tuple]:
        """Pre-resolve everything the scoring loop reads per candidate.

        Built once per cache fill (once per decision for an algorithm with
        no cache key); the referenced trackers / owner lists are the
        router's own long-lived mutable objects, so a cached skeleton
        always observes current congestion state.
        """
        vcs_of = self._vcs_of
        trackers = self.credit_trackers
        owners = self.out_vc_owner
        return [
            (
                c,
                c.out_port,
                vcs_of[c.vc_class],
                c.hops,
                trackers[c.out_port],
                owners[c.out_port],
            )
            for c in cands
        ]

    def _choose(self, cycle: int, port: int, vc: int, ctx: RouteContext,
                skel: list[tuple]) -> VcRoute | None:
        """The scoring loop: weight every feasible candidate of a skeleton
        and commit the minimum (Sec 5.1 step 3, Sec 5.2 step 4).

        Per candidate: the free VC of its class group with the most credits
        (as :meth:`_allocate_vc`), and the (congestion + 1.0) * hops weight
        of :func:`repro.core.weights.route_weight`, one formula for every
        estimator mode: the port's consumed credits and staged flits, each
        times its integer term of the configured mode
        (:func:`repro.core.weights.congestion_terms`), over the port's
        ``num_vcs * buffer_depth`` slots; one jitter draw per
        *feasible* candidate (the ring is grown once per call to cover the
        whole skeleton, never tested per candidate).  The reference
        functions in ``tests/test_scoring_kernel.py`` re-score every
        decision from router state and demand bit-equal weights, so keep
        the two in step.
        """
        seq = self._sequential
        pending = self._pending_commit
        staged_count = self._staged_count
        occ_term = self._occ_term
        stg_term = self._stg_term
        denom = self._port_denom
        jitter = self._jitter
        jidx = self._jitter_idx
        if jidx + len(skel) > len(jitter):
            self._grow_jitter(jidx + len(skel))
        jmask = JITTER_RING - 1
        hook = self._route_hook
        scored: list | None = [] if hook is not None else None
        best_cand: RouteCandidate | None = None
        best_out_vc = -1
        best_w = best_j = 0.0
        for cand, out_port, vcs, hops, tracker, owner in skel:
            credits = tracker.credits
            best_vc = -1
            bc = 0
            for v in vcs:
                if owner[v] is None:
                    c = credits[v]
                    if c > bc:
                        bc = c
                        best_vc = v
            if best_vc < 0:
                if scored is not None:
                    scored.append((cand, None, None))
                continue
            stg = staged_count[out_port]
            if seq:
                stg += pending[out_port]
            w = ((tracker.occupied_total * occ_term + stg * stg_term) / denom + 1.0) * hops
            j = jitter[jidx]
            jidx = (jidx + 1) & jmask
            if scored is not None:
                scored.append((cand, best_vc, w))
            if best_cand is None or w < best_w or (w == best_w and j < best_j):
                best_cand = cand
                best_out_vc = best_vc
                best_w = w
                best_j = j
        self._jitter_idx = jidx
        if best_cand is None:
            return None
        # Commit: algorithm state, VC ownership, telemetry, observers.
        packet = ctx.packet
        out_port = best_cand.out_port
        self.algorithm.commit(ctx, best_cand)
        self.out_vc_owner[out_port][best_out_vc] = port * self.num_vcs + vc
        if seq:
            if pending[out_port] == 0:
                self._commit_touched.append(out_port)
            pending[out_port] += packet.size
        packet.hops += 1
        if best_cand.deroute:
            packet.deroutes += 1
        if hook is not None:
            hook(cycle, self, port, vc, ctx, best_cand, best_out_vc, scored)
        return VcRoute(out_port, best_out_vc, deroute=best_cand.deroute)

    def _grow_jitter(self, need: int) -> None:
        """Extend the jitter ring to cover ``need`` draws (64, 128, ... up
        to the full ring; a decision that runs past the full ring wraps)."""
        jitter = self._jitter
        have = len(jitter)
        if have < JITTER_RING:
            size = max(2 * have, 64)
            while size < need:
                size *= 2
            jitter.extend(self.rng.random(min(size, JITTER_RING) - have).tolist())

    def revoke_unstarted_routes(self, ports: set[int]) -> int:
        """Un-commit routes through ``ports`` whose wormhole has not started.

        Called by the fault injector when output ports fail mid-run.  A route
        is revocable only while its head flit is still first in the input
        FIFO (``index == 0`` at the head means zero flits were forwarded, so
        zero downstream credits were consumed): the output-VC ownership is
        released, the packet's hop/deroute telemetry is un-counted, and the
        input VC is re-woken so the next cycle recomputes a route over the
        surviving candidates.  Routes whose transfer already started are left
        alone — the flits drain over the physically-present channel
        (fail-stop at routing granularity, lossless drain).  Returns the
        number of routes revoked.
        """
        revoked = 0
        routes, fifos = self.routes, self.fifos
        for key, route in enumerate(routes):
            if route is None or route.out_port not in ports:
                continue
            fifo = fifos[key]
            head = fifo[0] if fifo else None
            if head is None or not head.is_head or head.index != 0:
                continue  # transfer started (or head already moved on): drain
            self.out_vc_owner[route.out_port][route.out_vc] = None
            # The revoked route may be asleep waiting on a credit that will
            # never matter again; wake it so the re-route runs.
            self._asleep.discard(key)
            routes[key] = None
            packet = head.packet
            packet.hops -= 1
            if route.deroute:
                packet.deroutes -= 1
            # A revocable head implies a non-empty FIFO, so the key is
            # already live; the check is defensive (cold path; a
            # hand-crafted route on a VC filled by InputUnit.receive).
            if key not in self._active_in:
                insort(self._active_in, key)
            self._wake_registry[self] = None
            revoked += 1
        return revoked

    def _allocate_vc(self, out_port: int, vc_class: int) -> int | None:
        """Pick a free, credited VC in the class group; None when infeasible."""
        credits = self.credit_trackers[out_port].credits
        owner = self.out_vc_owner[out_port]
        best_vc = None
        best_credits = 0
        for v in self._vcs_of[vc_class]:
            if owner[v] is None:
                c = credits[v]
                if c > best_credits:
                    best_credits = c
                    best_vc = v
        return best_vc

    def _route_ejection(self, port: int, vc: int, packet) -> VcRoute | None:
        dst = packet.dst_terminal
        out_port = self.port_of_terminal.get(dst)
        if out_port is None:
            raise RuntimeError(
                f"packet {packet.pid} for terminal {dst} reached router "
                f"{self.router_id}, which does not host it"
            )
        # Any free VC with credit; the ejection channel has no deadlock cycle.
        for klass in range(self.vc_map.num_classes):
            best_vc = self._allocate_vc(out_port, klass)
            if best_vc is not None:
                break
        if best_vc is None:
            return None
        self.out_vc_owner[out_port][best_vc] = port * self.num_vcs + vc
        return VcRoute(out_port, best_vc)
