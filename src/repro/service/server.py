"""The HTTP experiment service: stdlib server over the job queue.

``ExperimentService`` wires the pieces together — a
:class:`~repro.service.jobs.JobStore` journaled to a JSONL log, a
:class:`~repro.service.jobs.JobQueue` runner fanning sweeps over the
ProcessPool workers, the shared :class:`~repro.analysis.memo.SweepMemo`
result cache, and a per-client
:class:`~repro.service.ratelimit.RateLimiter` — behind a
``ThreadingHTTPServer`` (stdlib only, no new runtime dependencies).

Endpoints (see docs/SERVICE.md for the full schema):

====== ========================= ===========================================
method path                      behaviour
====== ========================= ===========================================
POST   ``/jobs``                 submit a sweep request; 202 new, 200 known;
                                 the snapshot's ``state`` may already be
                                 ``done`` (read it before polling)
GET    ``/jobs``                 list all jobs (snapshots, submission order)
GET    ``/jobs/<id>``            one job's status snapshot
POST   ``/jobs/<id>/cancel``     cancel (no-op past terminal states)
GET    ``/jobs/<id>/result``     the finished curve — the *exact*
                                 ``SweepResult.to_json()`` bytes
GET    ``/healthz``              liveness (never rate limited)
GET    ``/stats``                queue depth, job counts, memo counters
====== ========================= ===========================================

Error contract: malformed requests are 400 with ``{"error": ...}``;
unknown jobs 404; a result fetched before ``done`` is 409; a throttled
client gets 429 with a ``Retry-After`` header; a full queue gets 503 with
``Retry-After``.  The service never returns a traceback.

A submission whose points are all memoised needs no simulation and so no
queue: with the runner idle it is finished inside its ``POST /jobs`` round
trip (:meth:`repro.service.jobs.JobQueue.submit`) and the 202 reply reads
``state: "done"``.

The result endpoint's byte-identity with a direct
:func:`~repro.analysis.sweep.sweep_load` call — for any worker count,
faulted specs included — is enforced by the ``service-vs-direct``
differential oracle in ``python -m repro check``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..analysis.memo import SweepMemo
from .jobs import JobQueue, JobStore, QueueFull
from .ratelimit import RateLimiter
from .spec import build_request

#: largest accepted request body; sweeps are small JSON documents
MAX_BODY_BYTES = 1 << 20


class ServiceHandler(BaseHTTPRequestHandler):
    """Request router; one instance per request (stdlib contract)."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    #: Buffered, so headers and body leave in ONE socket write (the flush
    #: at the end of ``handle_one_request``): as two small segments on a
    #: keep-alive connection, Nagle holds the second until the client's
    #: delayed ACK — a ~40 ms stall per reply.  64 KiB holds any job
    #: snapshot and every realistic result curve.
    wbufsize = 1 << 16

    # -- plumbing ------------------------------------------------------

    @property
    def service(self) -> "ExperimentService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.service.quiet:  # pragma: no cover - console noise
            super().log_message(format, *args)

    def _send_json(self, code: int, payload: dict,
                   headers: dict | None = None) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self._send_body(code, body, headers)

    def _send_body(self, code: int, body: bytes,
                   headers: dict | None = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str,
               headers: dict | None = None) -> None:
        self._send_json(code, {"error": message}, headers)

    def _client_id(self) -> str:
        return self.headers.get("X-Repro-Client") or self.client_address[0]

    def _throttled(self) -> bool:
        """Apply the per-client token bucket (liveness probes exempt)."""
        wait = self.service.limiter.check(self._client_id())
        if wait > 0:
            self._error(429, "rate limit exceeded; retry later",
                        {"Retry-After": f"{wait:.3f}"})
            return True
        return False

    def _read_body(self) -> bytes | None:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            self._error(413, f"request body over {MAX_BODY_BYTES} bytes")
            return None
        return self.rfile.read(length)

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, {"status": "ok"})
            return
        if self._throttled():
            return
        if path == "/stats":
            self._send_json(200, self.service.stats())
        elif path == "/jobs":
            self._send_json(200, {
                "jobs": [j.snapshot() for j in self.service.store.ordered()]
            })
        elif path.startswith("/jobs/") and path.endswith("/result"):
            self._get_result(path[len("/jobs/"):-len("/result")])
        elif path.startswith("/jobs/"):
            job = self.service.store.get(path[len("/jobs/"):])
            if job is None:
                self._error(404, "unknown job")
            else:
                self._send_json(200, job.snapshot())
        else:
            self._error(404, f"unknown endpoint {path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self._throttled():
            return
        path = self.path.rstrip("/")
        if path == "/jobs":
            self._submit()
        elif path.startswith("/jobs/") and path.endswith("/cancel"):
            job_id = path[len("/jobs/"):-len("/cancel")]
            try:
                job = self.service.queue.cancel(job_id)
            except KeyError:
                self._error(404, "unknown job")
                return
            self._send_json(200, job.snapshot())
        else:
            self._error(404, f"unknown endpoint {path!r}")

    # -- endpoint bodies -----------------------------------------------

    def _submit(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            req = build_request(json.loads(body.decode("utf-8") or "{}"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._error(400, str(exc))
            return
        try:
            job, created = self.service.queue.submit(req)
        except QueueFull as exc:
            self._error(503, str(exc), {"Retry-After": "5"})
            return
        payload = job.snapshot()
        payload["created"] = created
        self._send_json(202 if created else 200, payload)

    def _get_result(self, job_id: str) -> None:
        job = self.service.store.get(job_id)
        if job is None:
            self._error(404, "unknown job")
        elif job.state != "done" or job.result_json is None:
            self._error(
                409,
                f"job is {job.state!r}"
                + (f": {job.error}" if job.error else "")
                + "; the result exists only once the job is 'done'",
            )
        else:
            # Served verbatim: these are the exact SweepResult.to_json()
            # bytes a direct sweep_load caller would archive.
            self._send_body(200, job.result_json.encode("utf-8"))


class ExperimentService:
    """The assembled sweep-farm service (HTTP + queue + cache + limits).

    ``port=0`` binds an ephemeral port (read it back from ``self.port``) —
    the in-process mode the differential tests and the ``service-vs-direct``
    oracle use.  ``start(runner=False)`` accepts and queues jobs without
    executing them (used to test the bounded-queue contract).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int | None = None,
                 memo_root: str = "benchmarks/output/memo",
                 job_log: str | None = None,
                 max_depth: int = 64,
                 rate_limit: float = 20.0, burst: int = 40,
                 quiet: bool = True):
        self.memo = SweepMemo(root=memo_root)
        self.store = JobStore.load(job_log) if job_log else JobStore()
        self.queue = JobQueue(self.store, self.memo, workers=workers,
                              max_depth=max_depth)
        self.limiter = RateLimiter(rate=rate_limit, burst=burst)
        self.quiet = quiet
        self.httpd = ThreadingHTTPServer((host, port), ServiceHandler)
        self.httpd.daemon_threads = True
        self.httpd.service = self  # type: ignore[attr-defined]
        self._http_thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self.httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def stats(self) -> dict:
        return {
            "jobs": self.store.counts(),
            "queue_depth": self.queue.depth(),
            "max_depth": self.queue.max_depth,
            "workers": self.queue.workers,
            "jobs_deduped": self.queue.jobs_deduped,
            "pool_builds": self.queue.pool_builds,
            "throttled": self.limiter.throttled,
            "memo": {
                "root": self.memo.root,
                "hits": self.memo.hits,
                "misses": self.memo.misses,
                "writes": self.memo.writes,
                "collisions": self.memo.collisions,
                "write_errors": self.memo.write_errors,
            },
        }

    # -- lifecycle -----------------------------------------------------

    def start(self, runner: bool = True) -> "ExperimentService":
        """Serve HTTP on a background thread; ``runner`` starts the job
        runner too (disable to test queueing without execution)."""
        if runner:
            self.queue.start()
        if self._http_thread is None or not self._http_thread.is_alive():
            self._http_thread = threading.Thread(
                target=self.httpd.serve_forever,
                name="repro-service-http", daemon=True,
            )
            self._http_thread.start()
        return self

    def serve_forever(self) -> None:
        """Foreground mode for ``python -m repro serve`` (runner included;
        interrupt with SIGINT/SIGTERM)."""
        self.queue.start()
        self.httpd.serve_forever()  # pragma: no cover - blocks until shutdown

    def shutdown(self) -> None:
        """Stop accepting requests, let the in-flight job finish, close."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=10)
            self._http_thread = None
        self.queue.stop()
