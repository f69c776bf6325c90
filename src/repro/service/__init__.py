"""Sweep-farm experiment service: HTTP API, job queue, shared result cache.

The paper's evaluation is sweep campaigns — load-latency curves and
saturation ladders over (topology, algorithm, pattern, load, seed) grids —
and every one of those points is deterministic: a canonical spec fixes its
result byte-for-byte.  This package turns that determinism into a
long-running experiment service: clients submit sweep jobs over HTTP, an
async job queue fans the points over one worker pool it keeps for its
life (:mod:`repro.analysis.parallel` runs them), and the disk-backed
:class:`~repro.analysis.memo.SweepMemo` acts as a shared content-addressed
result cache, so repeated queries — the "millions of users" path — are
answered without simulating anything.

Layout:

* :mod:`repro.service.spec` — request schema, canonical form, content hash
  (the job id *is* the SHA-256 of the canonical request);
* :mod:`repro.service.jobs` — the queued/running/done/failed/cancelled
  state machine, the JSONL job log that survives restarts, and the queue
  runner;
* :mod:`repro.service.ratelimit` — per-client token buckets (429s);
* :mod:`repro.service.server` — the stdlib ``ThreadingHTTPServer`` front
  end and its endpoint/error contract.

Run it with ``python -m repro serve`` (docs/SERVICE.md documents the API);
the ``service-vs-direct`` oracle in ``python -m repro check`` proves the
curves it serves are byte-identical to direct
:func:`~repro.analysis.sweep.sweep_load` calls for any worker count.
"""

from .. import lazy_exports

lazy_exports(globals(), {
    "ExperimentService": ".server",
    "ServiceHandler": ".server",
    "SweepRequest": ".spec",
    "build_request": ".spec",
    "request_key": ".spec",
    "Job": ".jobs",
    "JobStore": ".jobs",
    "JobQueue": ".jobs",
    "JobCancelled": ".jobs",
    "QueueFull": ".jobs",
    "TransitionError": ".jobs",
    "RateLimiter": ".ratelimit",
    "TokenBucket": ".ratelimit",
    "STATES": ".jobs",
    "TERMINAL": ".jobs",
    "LEGAL_TRANSITIONS": ".jobs",
    "QUEUED": ".jobs",
    "RUNNING": ".jobs",
    "DONE": ".jobs",
    "FAILED": ".jobs",
    "CANCELLED": ".jobs",
})
