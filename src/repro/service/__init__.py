"""Sweep-farm experiment service: HTTP API, job queue, shared result cache.

The paper's evaluation is sweep campaigns — load-latency curves and
saturation ladders over (topology, algorithm, pattern, load, seed) grids —
and every one of those points is deterministic: a canonical spec fixes its
result byte-for-byte.  This package turns that determinism into a
long-running experiment service: clients submit sweep jobs over HTTP, an
async job queue fans the points over the
:mod:`repro.analysis.parallel` ProcessPool workers, and the disk-backed
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

from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    LEGAL_TRANSITIONS,
    QUEUED,
    RUNNING,
    STATES,
    TERMINAL,
    Job,
    JobCancelled,
    JobQueue,
    JobStore,
    QueueFull,
    TransitionError,
)
from .ratelimit import RateLimiter, TokenBucket
from .server import ExperimentService, ServiceHandler
from .spec import SweepRequest, build_request, request_key

__all__ = [
    "ExperimentService",
    "ServiceHandler",
    "SweepRequest",
    "build_request",
    "request_key",
    "Job",
    "JobStore",
    "JobQueue",
    "JobCancelled",
    "QueueFull",
    "TransitionError",
    "RateLimiter",
    "TokenBucket",
    "STATES",
    "TERMINAL",
    "LEGAL_TRANSITIONS",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
]
