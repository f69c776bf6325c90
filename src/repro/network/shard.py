"""Sharded multi-process simulation engine.

Large HyperX instances (16x16x16 = 4096 routers, 64k terminals at 16
terminals/router) are too much work for one Python process: the per-cycle
compute is serial.  This module partitions the routers of one simulation
across worker processes — one *shard* each — and advances the shards in
lock-stepped bounded-cycle chunks, exchanging the flits and credits that
cross shard boundaries over pipes.

**Partitioning.**  :class:`ShardPlan` slices the topology along its widest
dimension into contiguous coordinate blocks, one per shard; a shard owns
every router whose coordinate in that dimension falls in its block (and the
terminals of those routers).  Each worker is the same
:class:`~repro.analysis.sweep.PointRun` assembly ``measure_point`` runs,
built over a *partial* :class:`~repro.network.network.Network`
(``owned_routers=``): unowned routers are ``None`` holes and cross-shard
links terminate in boundary ends (:attr:`Network.boundary_out` /
:attr:`Network.boundary_in`).

**Chunk protocol.**  The conservative lookahead is the router-to-router
channel latency ``L = channel_latency_rr``: a flit or credit sent across a
boundary at cycle ``u`` cannot be delivered before ``u + L``, so a chunk of
at most ``L`` cycles can run with no mid-chunk communication — every
boundary crossing sent inside chunk ``[t, t+l)``, ``l <= L``, has ready
cycle ``u + L >= t + L > t + l - 1`` and is still parked (a flit in its
export channel, a credit in the calendar) when the chunk ends.  The
coordinator then drains each shard's exports and injects them into the
importing shard at the start of the next chunk, timestamps intact: the
receiving shard delivers each item at exactly the cycle the unsharded
simulator would.  Exports end in a
:class:`~repro.network.network.BoundaryExport`, which raises on delivery,
so any protocol violation raises instead of corrupting state.

**Skip-ahead composition.**  Each worker reports, with its exports, a bound
from :meth:`~repro.network.simulator.Simulator.next_event_cycle` — the
earliest cycle its shard can change state absent external input.  When the
minimum of those bounds (and of the ready cycles of any exports in flight)
exceeds ``t + L``, nothing anywhere can happen in between and the
coordinator issues one long chunk straight to the bound: global quiescence
compresses to a single round trip, composing with each worker's own
in-chunk cycle skip-ahead.  A ``None`` bound (a process without
``next_wakeup``) vetoes long chunks; correctness never depends on jumping.

**Determinism.**  Every worker runs the *full* traffic process against the
same seed, replaying the complete RNG stream; sources owned by other shards
consume their packet id and inject nothing (see
:mod:`repro.traffic.injection`), so packet ids and Bernoulli draws are
aligned across shards and with the unsharded run.  Cross-shard flits are
re-materialized from wire descriptors onto per-shard *replica* packets
(refcounted by transit, evicted when the tail passes), so a packet's
telemetry (hops, deroutes, create cycle) travels with its head flit.
Merged statistics are byte-identical to single-process runs for any shard
count — the ``shard-on-vs-off`` differential oracle in ``repro.check``
enforces it.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from typing import TYPE_CHECKING, Any

from ..config import default_config
from .buffers import NEVER_USED
from .network import BoundaryExport
from .stats import LatencySample, PacketStats
from .types import Flit, Packet

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.parallel import PointSpec
    from ..analysis.sweep import PointResult
    from ..faults.model import FaultSchedule
    from ..topology.base import Topology

#: boundary-channel key: ("d" | "c", pushing_router, pushing_port)
BoundaryKey = tuple

#: Longest the coordinator waits for one worker reply before it declares the
#: worker hung.  Generous on purpose: the handshake reply follows a whole
#: partition build (tens of seconds at 16x16x16); every later reply follows
#: one chunk.
_REPLY_DEADLINE_S = 600.0


class ShardPlan:
    """Partition of a topology's routers into contiguous dimension slices.

    The partition dimension is the widest one (ties break to the lowest
    index), split into ``shards`` contiguous coordinate blocks whose sizes
    differ by at most one.  More shards than the widest dimension has
    coordinates cannot be placed (a block would be empty) and raises.
    """

    def __init__(self, topology: "Topology", shards: int):
        widths = tuple(topology.widths)
        if shards < 1:
            raise ValueError("shards must be >= 1")
        dim = max(range(len(widths)), key=widths.__getitem__)
        if shards > widths[dim]:
            raise ValueError(
                f"{shards} shards exceed the widest dimension ({widths[dim]})"
            )
        base, extra = divmod(widths[dim], shards)
        blocks: list[tuple[int, int]] = []
        start = 0
        for s in range(shards):
            stop = start + base + (1 if s < extra else 0)
            blocks.append((start, stop))
            start = stop
        self.topology = topology
        self.shards = shards
        self.dim = dim
        #: per-shard [lo, hi) coordinate blocks along :attr:`dim`
        self.blocks = tuple(blocks)

    def shard_of_router(self, router: int) -> int:
        c = self.topology.coords(router)[self.dim]
        for s, (lo, hi) in enumerate(self.blocks):
            if lo <= c < hi:
                return s
        raise ValueError(f"router {router} coordinate {c} outside every block")

    def owned_routers(self, shard: int) -> frozenset[int]:
        lo, hi = self.blocks[shard]
        dim = self.dim
        topo = self.topology
        return frozenset(
            r for r in range(topo.num_routers) if lo <= topo.coords(r)[dim] < hi
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _WorkerState:
    """One shard's live simulation plus the cross-shard packet replica map."""

    def __init__(self, spec: "PointSpec", owned: frozenset[int], schedule):
        from ..analysis.sweep import PointRun

        #: the same assembly ``measure_point`` runs, over this shard's routers
        self.point = PointRun(
            *spec.build(mid_run_faults=schedule is not None), spec.rate,
            cfg=spec.cfg, size_dist=spec.size_dist, seed=spec.seed,
            owned_routers=owned, schedule=schedule,
        )
        self.net, self.sim = self.point.net, self.point.sim
        # pid -> [replica Packet, transits-in-flight]; a head import creates
        # or refreshes the replica, the matching tail import drops the ref.
        self._replicas: dict[int, list] = {}

    # -- chunk boundary ------------------------------------------------

    def apply_imports(self, imports: list) -> None:
        """Queue the peer shards' exports: flits onto our boundary-in
        channels, credits into the calendar bucket of their ready cycle.

        Items keep the ready cycles stamped at push time, so delivery
        happens at exactly the unsharded cycle.  Entries already in a
        pipe (from earlier chunks) are strictly earlier — an old entry's
        ready precedes the previous chunk's start plus ``L``, a new one's
        follows it — so appending preserves the pipe's ready ordering.
        """
        net = self.net
        boundary_in = net.boundary_in
        active = net._active_channels
        calendar = net._calendar
        replicas = self._replicas
        for key, items in imports:
            ch = boundary_in[key]
            if key[0] == "c":  # ch is the tracker these credits restore
                for ready, vc in items:
                    calendar[ready % len(calendar)].append((ch, vc))
                continue
            pipe = ch._pipe
            was_empty = not pipe
            if pipe is NEVER_USED:  # this boundary's first import
                pipe = ch._pipe = deque()
            for ready, vc, index, info in items:
                if index == 0:
                    src, dst, size, cc, pid, inj, hops, der, rs = info
                    ent = replicas.get(pid)
                    if ent is None:
                        ent = replicas[pid] = [
                            Packet(src, dst, size, cc, pid=pid), 0
                        ]
                    pkt = ent[0]
                    pkt.inject_cycle = inj
                    pkt.hops = hops
                    pkt.deroutes = der
                    pkt._routing_state = rs
                    ent[1] += 1
                else:
                    ent = replicas.get(info)
                    if ent is None:
                        raise RuntimeError(
                            f"body flit of unknown packet {info} crossed "
                            f"the shard boundary before its head"
                        )
                    pkt = ent[0]
                flit = Flit(pkt, index)
                if flit.tail:
                    ent[1] -= 1
                    if ent[1] <= 0:
                        del replicas[pkt.pid]
                pipe.append((ready, (vc, flit)))
            if was_empty and pipe:
                ch._next_ready = pipe[0][0]
                active[ch] = None

    def drain_exports(self) -> list:
        """Pop every parked boundary export, encoded for the wire.

        A head flit carries the packet's full descriptor (the importer
        builds or refreshes its replica from it); body and tail flits carry
        just ``(pid, index)``, a credit ``(ready, vc)``.  The descriptor is
        taken at drain time, after the chunk completed — safe, because once
        a head is parked in an export channel no router in *this* shard can
        touch its packet again (the next route decision belongs to the
        importing shard).
        """
        out = []
        net = self.net
        active = net._active_channels
        for key, ch in net.boundary_out.items():
            if key[0] == "c":
                continue  # filed in the calendar, lifted out below
            pipe = ch._pipe
            if not pipe:
                continue
            items = []
            for ready, (vc, flit) in pipe:
                p = flit.packet
                if flit.index == 0:
                    items.append((ready, vc, 0, (
                        p.src_terminal, p.dst_terminal, p.size,
                        p.create_cycle, p.pid, p.inject_cycle,
                        p.hops, p.deroutes, p._routing_state,
                    )))
                else:
                    items.append((ready, vc, flit.index, p.pid))
            pipe.clear()
            active.pop(ch, None)
            out.append((key, items))
        # Exported credits, in ready order: a pending entry's bucket names
        # the one cycle of [now, now + W) it falls due.
        credits: dict[tuple, list] = {}
        calendar, now = net._calendar, self.sim.cycle
        for ready in range(now, now + len(calendar)):
            bucket = calendar[ready % len(calendar)]
            kept = [ent for ent in bucket if type(ent[0]) is not BoundaryExport]
            if len(kept) < len(bucket):
                for up, vc in bucket:
                    if type(up) is BoundaryExport:
                        credits.setdefault(up.key, []).append((ready, vc))
                bucket[:] = kept
        out.extend(credits.items())
        return out

    # -- end of run ----------------------------------------------------

    def report(self) -> dict[str, Any]:
        """This shard's :meth:`PointRun.finish`, flattened for the pipe
        (:func:`run_point_sharded` folds the reports back together)."""
        done = self.point.finish()
        stats = done["stats"]
        return {
            "samples": [
                (s.create_cycle, s.latency, s.hops, s.deroutes)
                for s in stats.samples
            ],
            "packets_delivered": stats.packets_delivered,
            "flits_delivered": stats.flits_delivered,
            "ejected": done["ejected_total"],
            "backlog": done["undelivered_backlog"],
            "routes_computed": done["routes_computed"],
            "route_stalls": done["route_stalls"],
        }


def _shard_worker(conn, spec: "PointSpec", owned: frozenset[int],
                  schedule) -> None:
    """Worker process entry: build one shard, then serve chunk requests."""
    try:
        state = _WorkerState(spec, owned, schedule)
        net, sim = state.net, state.sim
        conn.send(("ok", (list(net.boundary_in), list(net.boundary_out))))
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "chunk":
                _, end, imports = msg
                state.apply_imports(imports)
                sim.run(end - sim.cycle)
                exports = state.drain_exports()
                conn.send(("ok", (exports, sim.next_event_cycle())))
            elif op == "ejected":
                conn.send(("ok", net.total_ejected_flits()))
            elif op == "finish":
                conn.send(("ok", state.report()))
            elif op == "stop":
                return
            else:
                raise RuntimeError(f"unknown shard op {op!r}")
    except BaseException:  # report the failure instead of dying silently
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


class ShardEngine:
    """Coordinates one sharded simulation across forked worker processes.

    The public surface is the one
    :func:`~repro.analysis.sweep.run_half_half` drives on a single-process
    :class:`~repro.analysis.sweep.PointRun` too: :meth:`run` to advance the
    global clock, :meth:`total_ejected` for the mid-run throughput snapshot,
    :meth:`finish` for the per-shard end-of-run reports — plus :meth:`close`
    to tear the workers down.

    Workers are forked (never spawned): fork shares the parent's packet-id
    counter position, which keeps pids aligned with an unsharded run in the
    same process, and skips re-importing the simulator in each worker.
    """

    def __init__(self, spec: "PointSpec", shards: int,
                 schedule: "FaultSchedule | None" = None):
        topo = spec.build()[0]
        self.plan = ShardPlan(topo, shards)
        self.shards = shards
        self.num_terminals = topo.num_terminals
        cfg = spec.cfg or default_config()
        #: conservative chunk length: the cross-shard channel latency
        self._chunk_cycles = cfg.network.channel_latency_rr
        ctx = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        for s in range(shards):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker,
                args=(child, spec, self.plan.owned_routers(s), schedule),
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        # Handshake: each worker names its import/export keys; a shard's
        # export key is the importing shard's import key by construction,
        # which yields the export -> destination-shard routing tables.
        import_owner: dict[BoundaryKey, int] = {}
        export_keys: list[list[BoundaryKey]] = []
        for s in range(shards):
            imports, exports = self._recv(s, "handshake")
            for key in imports:
                import_owner[key] = s
            export_keys.append(exports)
        self._export_dst: list[dict[BoundaryKey, int]] = []
        for s in range(shards):
            table = {}
            for key in export_keys[s]:
                owner = import_owner.get(key)
                if owner is None:
                    raise RuntimeError(
                        f"boundary export {key!r} has no importing shard"
                    )
                table[key] = owner
            self._export_dst.append(table)
        # Exports drained from one chunk, awaiting injection with the next.
        self._pending: list[list] = [[] for _ in range(shards)]
        self._cycle = 0
        # min over worker next-event bounds and pending-import ready
        # cycles; None = unknown (vetoes long chunks).
        self._bound: int | None = None

    # -- plumbing ------------------------------------------------------

    def _recv(self, shard: int, op: str):
        """Worker ``shard``'s reply to ``op``.  A dead worker reads as EOF;
        a hung one is only caught by the deadline."""
        conn = self._conns[shard]
        if not conn.poll(_REPLY_DEADLINE_S):
            self._terminate()
            raise RuntimeError(
                f"shard worker {shard} did not answer {op!r} within "
                f"{_REPLY_DEADLINE_S:g} s; every worker was terminated"
            )
        try:
            msg = conn.recv()
        except EOFError:
            raise RuntimeError(
                f"shard worker {shard} died without reporting an error"
            ) from None
        if msg[0] == "error":
            raise RuntimeError(f"shard worker {shard} failed:\n{msg[1]}")
        if msg[0] != "ok":
            raise RuntimeError(
                f"unexpected reply {msg[0]!r} from shard worker {shard}"
            )
        return msg[1]

    # -- public surface ------------------------------------------------

    @property
    def cycle(self) -> int:
        return self._cycle

    def run(self, cycles: int) -> None:
        """Advance every shard by ``cycles`` cycles, chunk by chunk.

        Each round trip covers ``min(L, remaining)`` cycles — or jumps
        straight to the global next-event bound when that bound clears
        ``t + L``, in which case no shard can push anything in the gap
        (the bound says no state changes before it, and there are no
        imports in flight, or the bound would not clear ``t + L``).
        """
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        target = self._cycle + cycles
        L = self._chunk_cycles
        conns = self._conns
        pending = self._pending
        export_dst = self._export_dst
        while self._cycle < target:
            t = self._cycle
            bound = self._bound
            if bound is not None and bound > t + L:
                end = min(bound, target)
            else:
                end = min(t + L, target)
            for s, conn in enumerate(conns):
                conn.send(("chunk", end, pending[s]))
                pending[s] = []
            bounds: list[int | None] = []
            for s in range(len(conns)):
                exports, b = self._recv(s, "chunk")
                bounds.append(b)
                dst = export_dst[s]
                for key, items in exports:
                    pending[dst[key]].append((key, items))
            self._cycle = end
            gb: int | None = None
            valid = True
            for b in bounds:
                if b is None:
                    valid = False
                    break
                if gb is None or b < gb:
                    gb = b
            if valid:
                for batch in pending:
                    for _key, items in batch:
                        first = items[0][0]  # items are ready-ordered
                        if gb is None or first < gb:
                            gb = first
                self._bound = gb
            else:
                self._bound = None

    def total_ejected(self) -> int:
        """Flits consumed at terminals so far, summed across shards."""
        for conn in self._conns:
            conn.send(("ejected",))
        return sum(self._recv(s, "ejected") for s in range(self.shards))

    def finish(self) -> list[dict[str, Any]]:
        """Collect every shard's end-of-run report (in shard order)."""
        for conn in self._conns:
            conn.send(("finish",))
        return [self._recv(s, "finish") for s in range(self.shards)]

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
        self._terminate()
        for conn in self._conns:
            conn.close()

    def _terminate(self) -> None:
        """Kill whatever is still alive (a clean ``stop`` leaves nothing)."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=10)

    def __enter__(self) -> "ShardEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Spec-level entry points
# ----------------------------------------------------------------------


def shard_fallback_reason(spec: "PointSpec") -> str | None:
    """Why this spec cannot run sharded, or None when it can.

    Mirrors the ``skip_fallback_reason`` convention: a non-None reason
    routes the point to the single-process path, and results are identical
    either way — sharding only changes wall-clock and memory.
    """
    if spec.check:
        return "sanitizer audits complete credit loops, which shard boundaries split"
    if spec.trace is not None:
        return (
            "traced points take the single-process path: a tracer reads "
            "the whole network"
        )
    if max(spec.widths) < spec.shards:
        return (
            f"{spec.shards} shards need a dimension at least that wide "
            f"(widest is {max(spec.widths)})"
        )
    if "fork" not in multiprocessing.get_all_start_methods():
        return "no fork start method on this platform"
    return None


def run_point_sharded(spec: "PointSpec") -> "PointResult":
    """Measure one load point on the sharded engine.

    The schedule is ``measure_point``'s own
    (:func:`~repro.analysis.sweep.run_half_half`); the per-shard reports
    are folded into one :class:`~repro.network.stats.PacketStats` and exact
    integer sums, so :func:`~repro.analysis.sweep.finalize_point` returns
    the single-process point byte for byte.
    """
    from ..analysis.sweep import finalize_point, run_half_half

    started = time.perf_counter()
    with ShardEngine(spec, spec.shards) as engine:
        ejected_at_half, reports = run_half_half(engine, spec.total_cycles)
    stats = PacketStats()
    for rep in reports:
        stats.samples.extend(LatencySample(*t) for t in rep["samples"])
        stats.packets_delivered += rep["packets_delivered"]
        stats.flits_delivered += rep["flits_delivered"]
    return finalize_point(
        rate=spec.rate,
        total_cycles=spec.total_cycles,
        num_terminals=engine.num_terminals,
        stats=stats,
        ejected_total=sum(r["ejected"] for r in reports),
        ejected_at_half=ejected_at_half,
        undelivered_backlog=sum(r["backlog"] for r in reports),
        routes_computed=sum(r["routes_computed"] for r in reports),
        route_stalls=sum(r["route_stalls"] for r in reports),
        started=started,
    )
