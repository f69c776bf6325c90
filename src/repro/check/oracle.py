"""Differential oracles: one spec, several execution paths, identical bytes.

The simulator has independently-optimised execution paths that must not be
able to change results: the parallel sweep engine (worker processes rebuild
every object from a picklable spec), cycle skip-ahead (compressed vs
per-cycle stepping, :mod:`repro.network.skip`), the sharded
multi-process engine (:mod:`repro.network.shard` — router slices in forked
workers, exchanged boundary flits/credits), and the fault
layer's :class:`~repro.faults.degraded.DegradedTopology` wrapper (which,
with an *empty* fault set, must be a pure pass-through).  The HTTP
experiment service layers more machinery on top — request canonicalisation,
the job state machine and its JSONL journal, the shared memo cache — and
must still serve the exact bytes a direct call returns.  A plain point that
resets the last point's network must measure what a fresh build does.  Each oracle here
replays
an identical measurement through two such paths and compares the serialized
results **byte for byte** — any divergence, however small, is a bug in one
of the paths.

The oracles return :class:`OracleReport` rather than raising, so the
self-test can tabulate all of them; ``report.ok`` is the verdict and
``report.detail`` pinpoints the first difference.

Example::

    >>> from repro.check.oracle import diff_skip_on_off
    >>> diff_skip_on_off(widths=(2, 2), rates=(0.1,), total_cycles=300).ok
    True
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from ..analysis.sweep import SweepResult, sweep_load
from ..core.registry import make_algorithm
from ..faults.degraded import DegradedTopology
from ..faults.model import FaultSet
from ..topology.hyperx import HyperX
from ..traffic.patterns import pattern_by_name


@dataclass
class OracleReport:
    """Outcome of one differential comparison."""

    name: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {'OK' if self.ok else 'DIVERGED — ' + self.detail}"


def _first_difference(a: str, b: str) -> str:
    """Human-readable locator of the first divergence between two JSON blobs."""
    if a == b:
        return "identical"
    da, db = json.loads(a), json.loads(b)
    pa, pb = da.get("points", []), db.get("points", [])
    if len(pa) != len(pb):
        return f"point counts differ: {len(pa)} vs {len(pb)}"
    for i, (x, y) in enumerate(zip(pa, pb)):
        for key in x:
            if x.get(key) != y.get(key):
                return (
                    f"point {i} field {key!r}: {x.get(key)!r} vs {y.get(key)!r}"
                )
    return "blobs differ outside the point data"


def compare_sweeps(name: str, a: SweepResult, b: SweepResult) -> OracleReport:
    """Byte-compare two sweep results (wall-clock excluded by ``to_json``)."""
    ja, jb = a.to_json(), b.to_json()
    return OracleReport(name, ja == jb, _first_difference(ja, jb))


def _fresh(widths, terminals_per_router, algorithm, pattern, faults=None):
    """Build a fresh topology/algorithm/pattern triple for one run.

    Every oracle run gets its own objects: live algorithm/pattern state
    (rngs, caches) must never be shared between the two paths under
    comparison, or the comparison itself would perturb them.
    """
    topo = HyperX(tuple(widths), terminals_per_router)
    if faults is not None:
        topo = DegradedTopology(topo, faults)
    algo = make_algorithm(algorithm, topo)
    patt = pattern_by_name(pattern, topo)
    return topo, algo, patt


def diff_serial_parallel(
    widths=(4, 4),
    terminals_per_router: int = 1,
    algorithm: str = "DimWAR",
    pattern: str = "UR",
    rates=(0.1, 0.3),
    total_cycles: int = 1000,
    seed: int = 1,
    workers: int = 2,
    faults: FaultSet | None = None,
) -> OracleReport:
    """Serial in-process sweep vs the worker-pool spec path, byte-identical.

    ``faults`` (a declarative :class:`~repro.faults.model.FaultSet`) runs the
    comparison on a degraded topology — the workers must reconstruct the
    same surviving graph from the pickled fault tuple.
    """
    t1, a1, p1 = _fresh(widths, terminals_per_router, algorithm, pattern, faults)
    serial = sweep_load(
        t1, a1, p1, list(rates), total_cycles=total_cycles, seed=seed
    )
    t2, a2, p2 = _fresh(widths, terminals_per_router, algorithm, pattern, faults)
    parallel = sweep_load(
        t2, a2, p2, list(rates), total_cycles=total_cycles, seed=seed,
        workers=workers,
    )
    suffix = " (faulted)" if faults is not None else ""
    return compare_sweeps(f"serial-vs-parallel{suffix}", serial, parallel)


def diff_skip_on_off(
    widths=(4, 4),
    terminals_per_router: int = 1,
    algorithm: str = "OmniWAR",
    pattern: str = "UR",
    rates=(0.1, 0.3),
    total_cycles: int = 1000,
    seed: int = 1,
) -> OracleReport:
    """Compressed stepping vs per-cycle, invariant-audited stepping,
    byte-identical.

    The event-compressing engine (:mod:`repro.network.skip`) advances the
    clock past provably inert cycles instead of executing them, and the
    traffic processes scan their Bernoulli streams ahead to bound their
    next injection.  No switch turns that off; the per-cycle arm is the
    same sweep with ``check=True``, because the sanitizer is a process
    without ``next_wakeup`` and so forces every cycle to execute (and audits
    each window while it is there).  Nothing about the measured sweep may
    move: the scan must consume the RNG in exact per-cycle order, every
    fault event and sampler window boundary must land on its scheduled
    cycle, and every skipped cycle must truly have been inert — any
    violation shifts injections or deliveries and this comparison catches
    it.  The low rate point matters most here: sparser traffic means
    longer inert gaps, so the compressed path does real jumping while the
    loaded point exercises the veto rules.
    """
    t1, a1, p1 = _fresh(widths, terminals_per_router, algorithm, pattern)
    on = sweep_load(
        t1, a1, p1, list(rates), total_cycles=total_cycles, seed=seed
    )
    t2, a2, p2 = _fresh(widths, terminals_per_router, algorithm, pattern)
    off = sweep_load(
        t2, a2, p2, list(rates), total_cycles=total_cycles, seed=seed,
        check=True,
    )
    return compare_sweeps("skip-on-vs-off", on, off)


def diff_shard_on_off(
    widths=(4, 4),
    terminals_per_router: int = 1,
    algorithm: str = "OmniWAR",
    pattern: str = "UR",
    rates=(0.1, 0.3),
    total_cycles: int = 1000,
    seed: int = 1,
    shard_counts=(1, 2, 4),
    faults: FaultSet | None = None,
) -> OracleReport:
    """Sharded multi-process engine vs single-process, byte-identical.

    The sharded engine (:mod:`repro.network.shard`) partitions the routers
    across forked worker processes and exchanges boundary flits/credits at
    chunk boundaries; everything about that — partial network builds, the
    chunk lookahead, packet-replica reconstruction, pid-stream alignment of
    unowned sources, per-shard statistics merging — must be invisible in
    the measured curve.  Each configured shard count (including the
    degenerate one-worker case, which still runs the full chunk protocol)
    is compared against the same single-process sweep; ``faults`` repeats
    the comparison on a degraded topology, where boundary ports can be
    statically missing and mid-chunk revocations span shards.
    """
    suffix = " (faulted)" if faults is not None else ""
    t1, a1, p1 = _fresh(widths, terminals_per_router, algorithm, pattern, faults)
    base = sweep_load(
        t1, a1, p1, list(rates), total_cycles=total_cycles, seed=seed
    )
    for shards in shard_counts:
        t2, a2, p2 = _fresh(
            widths, terminals_per_router, algorithm, pattern, faults
        )
        sharded = sweep_load(
            t2, a2, p2, list(rates), total_cycles=total_cycles, seed=seed,
            shards=shards,
        )
        report = compare_sweeps(
            f"shard-on-vs-off[{shards}]{suffix}", base, sharded
        )
        if not report.ok:
            return report
    counts = ",".join(str(s) for s in shard_counts)
    return OracleReport(
        f"shard-on-vs-off{suffix}", True,
        f"identical for shard counts {{{counts}}}",
    )


def diff_service_direct(
    widths=(4, 4),
    terminals_per_router: int = 1,
    algorithm: str = "DimWAR",
    pattern: str = "UR",
    rates=(0.1, 0.3),
    total_cycles: int = 1000,
    seed: int = 1,
    workers: int = 2,
    faults: FaultSet | None = None,
    timeout_s: float = 120.0,
) -> OracleReport:
    """Curve fetched through the HTTP experiment service vs a direct
    in-process ``sweep_load``, byte-identical.

    Spins up a real :class:`~repro.service.server.ExperimentService` on an
    ephemeral port with a throwaway memo root and job log, submits the
    sweep over HTTP, polls it to completion, and fetches the result bytes.
    The service path layers *everything* on top of the simulation — request
    canonicalisation, the job state machine, the JSONL journal, the
    ProcessPool fan-out, and the content-addressed memo cache — and none
    of it may touch a single byte of the curve.  ``faults`` runs the
    comparison on a degraded topology, proving the declarative fault list
    round-trips through the JSON request schema too.

    A warm leg follows the cold job: its lowest rate alone, with
    ``stop_after_unstable`` flipped, is a new job over an already-measured
    point.  It must be ``done`` in the reply to its POST — finished inside
    the submit round trip, never polled — and serve the direct bytes too.
    """
    import json as _json
    import tempfile
    import time
    import urllib.request

    from ..service.server import ExperimentService

    request = {
        "widths": list(widths),
        "terminals_per_router": terminals_per_router,
        "algorithm": algorithm,
        "pattern": pattern,
        "rates": list(rates),
        "total_cycles": total_cycles,
        "seed": seed,
        "stop_after_unstable": True,
        # Spelled out like a client would, not through the shared codec:
        # the decode side is part of what this oracle checks.
        "faults": [[type(f).__name__, asdict(f)] for f in (faults or ())],
    }
    warm_request = {**request, "rates": [min(rates)],
                    "stop_after_unstable": False}
    suffix = " (faulted)" if faults is not None else ""
    name = f"service-vs-direct{suffix}"

    def direct(req: dict) -> str:
        topo, algo, patt = _fresh(
            widths, terminals_per_router, algorithm, pattern, faults
        )
        return sweep_load(
            topo, algo, patt, req["rates"], total_cycles=total_cycles,
            seed=seed, stop_after_unstable=req["stop_after_unstable"],
        ).to_json()

    def submit(req: dict) -> dict:
        """POST ``req``; the job snapshot of the reply."""
        with urllib.request.urlopen(urllib.request.Request(
            f"{service.url}/jobs", data=_json.dumps(req).encode("utf-8"),
            method="POST",
        )) as resp:
            return _json.load(resp)

    def fetch(job_id: str) -> str:
        with urllib.request.urlopen(
            f"{service.url}/jobs/{job_id}/result"
        ) as resp:
            return resp.read().decode("utf-8")

    with tempfile.TemporaryDirectory() as td:
        service = ExperimentService(
            port=0, workers=workers, memo_root=f"{td}/memo",
            job_log=f"{td}/jobs.jsonl", rate_limit=0,
        ).start()
        try:
            job = submit(request)
            deadline = time.monotonic() + timeout_s
            # A job may be born done: read the reply before polling.
            while (job["state"] not in ("done", "failed", "cancelled")
                   and time.monotonic() < deadline):
                time.sleep(0.05)
                with urllib.request.urlopen(
                    f"{service.url}/jobs/{job['job_id']}"
                ) as resp:
                    job = _json.load(resp)
            if job["state"] != "done":
                return OracleReport(
                    name, False,
                    f"service job ended {job['state']!r}, not 'done'",
                )
            served = fetch(job["job_id"])
            warm = submit(warm_request)
            if warm["state"] != "done" or warm["points_simulated"]:
                return OracleReport(
                    name, False,
                    f"memo-warm job was {warm['state']!r} in its submit "
                    f"reply ({warm['points_simulated']} points simulated), "
                    "not 'done' with none",
                )
            warm_served = fetch(warm["job_id"])
        finally:
            service.shutdown()
    for req, got in ((request, served), (warm_request, warm_served)):
        want = direct(req)
        if want != got:
            return OracleReport(name, False, _first_difference(want, got))
    return OracleReport(name, True, "identical")


def diff_pristine_empty_faultset(
    widths=(4, 4),
    terminals_per_router: int = 1,
    algorithm: str = "DimWAR",
    pattern: str = "UR",
    rates=(0.1, 0.3),
    total_cycles: int = 1000,
    seed: int = 1,
) -> OracleReport:
    """Pristine topology vs a DegradedTopology with an *empty* FaultSet.

    The fault layer must be a pure pass-through when nothing is broken.
    Uses DimWAR/OmniWAR-style algorithms whose VC-class count does not
    change under a degraded wrapper — DOR grows a second (escape) class
    when fault-aware, which legitimately changes the VC partitioning, so it
    is the one algorithm this oracle must *not* use.
    """
    if algorithm == "DOR":
        raise ValueError(
            "DOR changes its VC-class count under a DegradedTopology; "
            "use DimWAR or OmniWAR for the pristine-vs-empty oracle"
        )
    t1, a1, p1 = _fresh(widths, terminals_per_router, algorithm, pattern)
    pristine = sweep_load(
        t1, a1, p1, list(rates), total_cycles=total_cycles, seed=seed
    )
    t2, a2, p2 = _fresh(
        widths, terminals_per_router, algorithm, pattern, faults=FaultSet()
    )
    empty = sweep_load(
        t2, a2, p2, list(rates), total_cycles=total_cycles, seed=seed
    )
    return compare_sweeps("pristine-vs-empty-faultset", pristine, empty)


def diff_trace_on_off(
    widths=(4, 4),
    terminals_per_router: int = 1,
    algorithm: str = "DimWAR",
    pattern: str = "UR",
    rates=(0.1, 0.3),
    total_cycles: int = 1000,
    seed: int = 1,
) -> OracleReport:
    """Lifecycle tracing attached vs absent, byte-identical sweep JSON.

    The :class:`repro.obs.Tracer` (and the windowed
    :class:`~repro.obs.TimeSeriesSampler`) must be pure observers: they
    read scored candidates the router already computed, never re-invoke
    ``candidates()`` or scoring, and never touch the jitter stream — so a
    traced sweep must measure exactly what an untraced one does.  Tracing
    runs at full sampling (``sample_every=1``) with the time-series sampler
    on, the most intrusive configuration.
    """
    from ..obs import TraceOptions

    t1, a1, p1 = _fresh(widths, terminals_per_router, algorithm, pattern)
    off = sweep_load(
        t1, a1, p1, list(rates), total_cycles=total_cycles, seed=seed
    )
    t2, a2, p2 = _fresh(widths, terminals_per_router, algorithm, pattern)
    on = sweep_load(
        t2, a2, p2, list(rates), total_cycles=total_cycles, seed=seed,
        trace=TraceOptions(sample_every=1, window=max(1, total_cycles // 8)),
    )
    return compare_sweeps("trace-on-vs-off", off, on)


def diff_reuse_on_off(
    widths=(4, 4),
    terminals_per_router: int = 1,
    algorithm: str = "DimWAR",
    pattern: str = "UR",
    rates=(0.1, 0.3),
    total_cycles: int = 1000,
    seed: int = 1,
) -> OracleReport:
    """A fresh network for every point vs the reused one, byte-identical.

    A plain point resets the network that the last plain point on an equal
    scenario left in the process's slot (``Network.reset``) instead of
    building it again (docs/PERFORMANCE.md, "A plain point reuses the last
    point's wiring").  The off arm empties the slot before each of its
    points, so each builds; the last one's network is left in the slot, so
    every point of the on arm is a reuse.  A field that ``reset`` forgets
    shifts a routing decision or a credit and shows up here; the report
    also fails when the on arm did not reuse at every point.
    """
    from ..analysis.sweep import _empty_network_slot

    def build_next(i, n, point) -> None:
        if point.stable and i + 1 < n:
            _empty_network_slot()

    _empty_network_slot()
    t1, a1, p1 = _fresh(widths, terminals_per_router, algorithm, pattern)
    off = sweep_load(
        t1, a1, p1, list(rates), total_cycles=total_cycles, seed=seed,
        progress=build_next,
    )
    t2, a2, p2 = _fresh(widths, terminals_per_router, algorithm, pattern)
    on = sweep_load(
        t2, a2, p2, list(rates), total_cycles=total_cycles, seed=seed
    )
    reuses = _empty_network_slot()
    report = compare_sweeps("reuse-on-vs-off", off, on)
    if report.ok and reuses != len(on.points):
        return OracleReport(
            report.name, False,
            f"the on arm reused {reuses} of {len(on.points)} networks",
        )
    return report


def _tagged(report: OracleReport, algorithm: str) -> OracleReport:
    """Relabel a report so per-algorithm matrix rows stay distinguishable."""
    return OracleReport(f"{report.name}[{algorithm}]", report.ok, report.detail)


def run_all_oracles(
    widths=(4, 4),
    rates=(0.1, 0.3),
    total_cycles: int = 1000,
    workers: int = 2,
) -> list[OracleReport]:
    """Every differential oracle at one (small) problem size."""
    faults = FaultSet().fail_link(0, 0)
    reports = [
        diff_serial_parallel(
            widths=widths, rates=rates, total_cycles=total_cycles, workers=workers
        ),
        diff_serial_parallel(
            widths=widths, rates=rates, total_cycles=total_cycles,
            workers=workers, faults=faults,
        ),
        diff_skip_on_off(widths=widths, rates=rates, total_cycles=total_cycles),
        diff_pristine_empty_faultset(
            widths=widths, rates=rates, total_cycles=total_cycles
        ),
        diff_trace_on_off(widths=widths, rates=rates, total_cycles=total_cycles),
        diff_reuse_on_off(widths=widths, rates=rates, total_cycles=total_cycles),
        diff_shard_on_off(widths=widths, rates=rates, total_cycles=total_cycles),
        diff_shard_on_off(
            widths=widths, rates=rates, total_cycles=total_cycles, faults=faults
        ),
        diff_service_direct(
            widths=widths, rates=rates, total_cycles=total_cycles,
            workers=workers,
        ),
        diff_service_direct(
            widths=widths, rates=rates, total_cycles=total_cycles,
            workers=workers, faults=faults,
        ),
    ]
    # The successor-paper algorithms (FTHX's escape subnetwork, VCFree's
    # up*/down* order) must survive the same replay comparisons as the
    # paper's own: their candidate lists are memoised, skip-compressed,
    # and pickled across workers like everyone else's.
    for algo in ("FTHX", "VCFree"):
        reports += [
            _tagged(diff_serial_parallel(
                widths=widths, rates=rates, total_cycles=total_cycles,
                workers=workers, algorithm=algo, faults=faults,
            ), algo),
            _tagged(diff_skip_on_off(
                widths=widths, rates=rates, total_cycles=total_cycles,
                algorithm=algo,
            ), algo),
            _tagged(diff_pristine_empty_faultset(
                widths=widths, rates=rates, total_cycles=total_cycles,
                algorithm=algo,
            ), algo),
        ]
    return reports
