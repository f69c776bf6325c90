"""Mutation self-test: prove every checker fires on its seeded bug.

A sanitizer that silently passes everything is worse than none — it buys
false confidence.  This module therefore tests the checkers themselves, in
three stages (this is what ``python -m repro check`` runs):

1. **negative controls** — sanitized reference runs (4x4 HyperX under DOR,
   DimWAR, OmniWAR, FTHX, and VCFree, plus fault transients) must pass
   cleanly;
2. **differential oracles** — every replay comparison of
   :mod:`repro.check.oracle` must report byte-identical results, and the
   comparator itself must flag a deliberately tampered result;
3. **mutation canaries** — one deliberately seeded bug per checker, each of
   which must raise :class:`~repro.check.sanitizer.SanitizerError` from the
   *right* checker:

   * a credit silently consumed mid-run        -> ``credits``
   * a flit deleted from an input buffer       -> ``conservation``
   * a hand-built cyclic wait between routers  -> ``deadlock`` (wait-for graph)
   * every data channel throttled to a crawl   -> ``deadlock`` (stall horizon)
   * a distance-class algorithm forced to keep
     VC class 0 past the first hop             -> ``vc_legality``
   * FTHX forced to keep class 0 past the
     first hop (adaptive-layer distance rule)  -> ``vc_legality``
   * VCFree forced to take an up hop after a
     down hop (the up*/down* order's one rule) -> ``vc_legality``

:func:`run_selftest` prints one verdict line per stage entry and returns
True only when everything passed.
"""

from __future__ import annotations

import copy

from ..analysis.sweep import measure_point, sweep_load
from ..config import default_config
from ..core.base import RouteCandidate
from ..core.registry import make_algorithm
from ..experiments.faults import run_fault_transient
from ..network.buffers import VcRoute
from ..network.network import Network
from ..network.simulator import Simulator
from ..network.types import Flit, Packet
from ..topology.hyperx import HyperX
from ..traffic.injection import SyntheticTraffic
from ..traffic.patterns import UniformRandom
from .oracle import compare_sweeps, run_all_oracles
from .sanitizer import Sanitizer, SanitizerError


def _build_sim(algorithm: str, widths=(2, 2), tpr: int = 1, rate: float = 0.3,
               seed: int = 3):
    topo = HyperX(widths, tpr)
    algo = make_algorithm(algorithm, topo)
    net = Network(topo, algo, default_config())
    sim = Simulator(net)
    traffic = SyntheticTraffic(
        net, UniformRandom(topo.num_terminals), rate, seed=seed
    )
    sim.processes.append(traffic)
    return sim, net, algo


def _expect_error(checker: str, run) -> tuple[bool, str]:
    """Run ``run()`` and demand a SanitizerError from ``checker``."""
    try:
        run()
    except SanitizerError as e:
        if e.checker == checker:
            return True, f"caught by {checker!r}"
        return False, f"wrong checker: expected {checker!r}, got {e.checker!r}"
    except Exception as e:  # noqa: BLE001 - verdict, not control flow
        return False, f"wrong error type: {type(e).__name__}: {e}"
    return False, "seeded bug was NOT detected"


# ----------------------------------------------------------------------
# Mutation canaries (one per checker)
# ----------------------------------------------------------------------

def canary_credit_leak() -> tuple[bool, str]:
    """Silently consume one downstream credit; the reconciliation must see
    a slot 'occupied' that no flit accounts for."""
    sim, net, _ = _build_sim("DimWAR")
    Sanitizer(sim, window=16).attach()
    sim.run(200)  # clean warm-up: audits pass

    def seed_and_run():
        rec = next(r for r in net.links if r.kind == "rr")
        vc = next(
            v for v in range(net.cfg.router.num_vcs)
            if rec.tracker.credits[v] > 0
        )
        rec.tracker.consume(vc)  # the "leak": no flit moved
        sim.run(64)

    return _expect_error("credits", seed_and_run)


def canary_flit_drop() -> tuple[bool, str]:
    """Delete a buffered flit outright; injected != ejected + in-flight.

    Near saturation with multi-flit packets some input FIFO always holds a
    wormhole body; dropping its tail-most flit cannot trip the VC-protocol
    checks before the conservation audit (16 cycles away at most) fires.
    """
    from ..traffic.sizes import UniformSize

    topo = HyperX((2, 2), 1)
    algo = make_algorithm("DimWAR", topo)
    net = Network(topo, algo, default_config())
    sim = Simulator(net)
    sim.processes.append(SyntheticTraffic(
        net, UniformRandom(4), 0.9, UniformSize(4, 16), seed=3
    ))
    Sanitizer(sim, window=16).attach()

    def seed_and_run():
        for _ in range(100):  # run until some input FIFO holds a victim
            sim.run(16)
            for router in net.routers:
                for fifo in router.fifos:
                    if len(fifo) > 1:
                        fifo.pop()  # drop the tail-most flit
                        sim.run(32)
                        return
        raise RuntimeError("no buffered flit found to drop")

    return _expect_error("conservation", seed_and_run)


def canary_wait_cycle() -> tuple[bool, str]:
    """Hand-build a two-router cyclic wait; the wait-for graph must find it.

    Commits route A at router r0's link input pointing back out the same
    link (toward r1) and route B at r1 pointing back toward r0, each
    targeting the other's input VC — the minimal wormhole credit cycle.
    """
    sim, net, _ = _build_sim("DimWAR", rate=0.0)
    san = Sanitizer(sim, window=16, stall_horizon=64,
                    conservation=False, credits=False).attach()
    rec = next(r for r in net.links if r.kind == "rr")
    (r0, p0), (r1, p1) = rec.src, rec.dst
    pkt = Packet(src_terminal=0, dst_terminal=1, size=4, create_cycle=0)
    a, b = net.routers[r0], net.routers[r1]
    a.inputs[p0].receive(0, Flit(pkt, 1))
    a.routes[p0 * a.num_vcs] = VcRoute(p0, 1)
    b.routes[p1 * b.num_vcs + 1] = VcRoute(p1, 0)
    if san.find_wait_cycle() is None:
        return False, "wait-for graph missed the hand-built cycle"

    def run():
        sim.run(200)  # stall horizon (64) elapses with zero progress

    return _expect_error("deadlock", run)


def canary_stall() -> tuple[bool, str]:
    """Throttle every channel to one flit per 10^9 cycles; traffic wedges
    solid and the stall horizon must fire end to end."""
    sim, net, _ = _build_sim("DimWAR", rate=0.5)

    def seed_and_run():
        sim.run(100)
        for ch in net.channels:
            ch.min_gap = 10 ** 9
        Sanitizer(sim, window=32, stall_horizon=256).attach()
        sim.run(3000)

    return _expect_error("deadlock", seed_and_run)


def canary_illegal_vc() -> tuple[bool, str]:
    """Force OmniWAR to stay on VC class 0 after the first hop; the
    distance-class rule (VC_out = VC_in + 1) must be enforced."""
    sim, _, algo = _build_sim("OmniWAR", rate=0.4)
    Sanitizer(sim, window=16).attach()

    orig_candidates = algo.candidates
    algo.cache_key = lambda ctx, dest_router: None  # defeat memoisation

    def pinned(ctx):
        return [
            RouteCandidate(c.out_port, 0, c.hops, c.deroute)
            for c in orig_candidates(ctx)
        ]

    algo.candidates = pinned
    return _expect_error("vc_legality", lambda: sim.run(400))


def canary_fthx_escape_leak() -> tuple[bool, str]:
    """Force FTHX to stay on VC class 0 after the first hop; its combined
    discipline (advance the adaptive class, or drop one-way into the escape
    subnetwork) must be enforced through route_discipline_error."""
    sim, _, algo = _build_sim("FTHX", rate=0.4)
    Sanitizer(sim, window=16).attach()

    orig_candidates = algo.candidates
    algo.cache_key = lambda ctx, dest_router: None  # defeat memoisation

    def pinned(ctx):
        return [
            RouteCandidate(c.out_port, 0, c.hops, c.deroute)
            for c in orig_candidates(ctx)
        ]

    algo.candidates = pinned
    return _expect_error("vc_legality", lambda: sim.run(400))


def canary_vcfree_up_after_down() -> tuple[bool, str]:
    """Steer a VCFree packet down one coordinate and then back up; the
    up*/down* order admits no second rise and the sanitizer must say so."""
    from ..core.vcfree import _DOWN, _FRESH

    sim, _, algo = _build_sim("VCFree", widths=(3, 3), rate=0.4)
    Sanitizer(sim, window=16).attach()
    hx = algo.hx

    orig_candidates = algo.candidates
    algo.cache_key = lambda ctx, dest_router: None  # defeat memoisation

    def sabotaged(ctx):
        rid = ctx.router.router_id
        here = hx.coords(rid)
        dest = algo.dest_coords(ctx.packet)
        d = algo.first_unaligned_dim(here, dest)
        h, t = here[d], dest[d]
        ph = algo.phase(ctx, d, h)
        if ph == _FRESH and h - t >= 2:
            # force a (legal) down deroute to set up the violation
            return [RouteCandidate(hx.dim_port(rid, d, h - 1), 0, 3, True)]
        if ph == _DOWN and h + 1 < hx.widths[d]:
            # the seeded bug: an up hop after the down hop
            return [RouteCandidate(hx.dim_port(rid, d, h + 1), 0, 3, True)]
        return orig_candidates(ctx)

    algo.candidates = sabotaged
    return _expect_error("vc_legality", lambda: sim.run(400))


def canary_divergence() -> tuple[bool, str]:
    """Tamper one field of a replayed result; the byte comparator must not
    report the pair identical (proxy for any real execution divergence)."""
    topo = HyperX((2, 2), 1)
    algo = make_algorithm("DimWAR", topo)
    sweep = sweep_load(
        topo, algo, UniformRandom(4), [0.1], total_cycles=300, seed=1
    )
    tampered = copy.deepcopy(sweep)
    tampered.points[0].packets_delivered += 1
    report = compare_sweeps("tamper-probe", sweep, tampered)
    if report.ok:
        return False, "comparator reported a tampered result identical"
    return True, f"divergence pinpointed: {report.detail}"


CANARIES = [
    ("credit leak", canary_credit_leak),
    ("flit drop", canary_flit_drop),
    ("cyclic wait", canary_wait_cycle),
    ("throttled stall", canary_stall),
    ("illegal VC class", canary_illegal_vc),
    ("FTHX escape leak", canary_fthx_escape_leak),
    ("VCFree up-after-down", canary_vcfree_up_after_down),
    ("tampered replay", canary_divergence),
]


# ----------------------------------------------------------------------
# Negative controls
# ----------------------------------------------------------------------

def _clean_runs() -> list[tuple[str, bool, str]]:
    """Sanitized reference runs that must pass with zero findings."""
    results = []
    for name in ("DOR", "DimWAR", "OmniWAR", "FTHX", "VCFree"):
        topo = HyperX((4, 4), 1)
        algo = make_algorithm(name, topo)
        try:
            measure_point(
                topo, algo, UniformRandom(topo.num_terminals), 0.2,
                total_cycles=800, seed=2, check=True,
            )
            results.append((f"sanitized 4x4 {name}", True, "no findings"))
        except SanitizerError as e:
            results.append((f"sanitized 4x4 {name}", False, str(e)))
    for name in ("DimWAR", "FTHX"):
        try:
            res = run_fault_transient(
                name, rate=0.2, window=100, pre_windows=2, post_windows=4,
                fail_links=2, check=True,
            )
            ok = res.drained and res.routing_error is None
            results.append((
                f"sanitized fault transient {name}",
                ok,
                "no findings" if ok else f"run incomplete: {res.routing_error}",
            ))
        except SanitizerError as e:
            results.append((f"sanitized fault transient {name}", False, str(e)))
    return results


# ----------------------------------------------------------------------

def run_selftest(verbose: bool = True, oracles: bool = True) -> bool:
    """Run the whole self-test; prints a verdict table, returns pass/fail."""
    rows: list[tuple[str, bool, str]] = []
    rows.extend(_clean_runs())
    if oracles:
        for report in run_all_oracles():
            rows.append((f"oracle {report.name}", report.ok, report.detail))
    for name, canary in CANARIES:
        ok, detail = canary()
        rows.append((f"canary {name}", ok, detail))

    all_ok = all(ok for _, ok, _ in rows)
    if verbose:
        width = max(len(name) for name, _, _ in rows)
        for name, ok, detail in rows:
            print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
        print(f"\nrepro.check self-test: "
              f"{'all checks passed' if all_ok else 'FAILURES ABOVE'} "
              f"({len(rows)} checks)")
    return all_ok
