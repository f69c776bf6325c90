"""Job state machine, JSONL-persisted store, and the async queue runner.

A *job* is one content-addressed sweep request moving through a small,
strictly-enforced state machine::

    queued ──▶ running ──▶ done
      │           │  └───▶ failed ──▶ queued   (resubmission retries)
      │           └──────▶ cancelled ──▶ queued (resubmission retries)
      └──────────────────▶ cancelled

``done`` is fully terminal — resubmitting a done job returns its cached
result; resubmitting a failed or cancelled one requeues the *same* job id
(the content hash), so a sweep is one job forever.  Every mutation appends
one JSON line to the job log, and replaying the log through the same
transition rules reconstructs the same states — that is what lets the
service restart without losing its history (interrupted ``running`` jobs
are failed-then-requeued on recovery).

The :class:`JobQueue` is the async half: a bounded single-consumer queue
whose runner thread executes jobs one at a time, fanning each sweep's
points over the :mod:`repro.analysis.parallel` ProcessPool workers with
the shared :class:`~repro.analysis.memo.SweepMemo` as a content-addressed
result cache.  Cancellation of a running job takes effect at the next
point boundary via the sweep progress callback.

A job may be born ``done``: when every point of a submission is already in
the memo and no job is executing, the submitting thread walks it through
``queued -> running -> done`` itself (:meth:`JobQueue._walk`, the method
the runner calls — same lookups, same four journal events in the same
order), so a caller must read ``state`` from what :meth:`JobQueue.submit`
returns before it starts polling.

Example::

    >>> from repro.service.jobs import JobStore
    >>> store = JobStore()                      # in-memory (no log file)
    >>> job, created = store.submit("abc", {"widths": [2, 2]})
    >>> (job.state, created)
    ('queued', True)
    >>> store.submit("abc", {"widths": [2, 2]})[1]   # content-addressed
    False
    >>> store.transition("abc", "running").state
    'running'
    >>> store.transition("abc", "done").state
    'done'
    >>> store.cancel("abc").state                    # no-op past terminal
    'done'
"""

from __future__ import annotations

import json
import os
import queue
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .spec import SweepRequest, build_request, request_key

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.memo import SweepMemo

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: states with no outgoing transitions except resubmission retries
TERMINAL = frozenset({DONE, FAILED, CANCELLED})

#: every legal (from, to) edge; anything else raises TransitionError
LEGAL_TRANSITIONS = frozenset({
    (QUEUED, RUNNING),
    (QUEUED, CANCELLED),
    (RUNNING, DONE),
    (RUNNING, FAILED),
    (RUNNING, CANCELLED),
    (FAILED, QUEUED),      # resubmission/recovery retry
    (CANCELLED, QUEUED),   # resubmission retry
})

#: job-log storage format version
JOBLOG_SCHEMA = "repro-joblog/1"


class TransitionError(ValueError):
    """An illegal state-machine edge was requested."""


class QueueFull(RuntimeError):
    """The bounded job queue is at capacity (the service's 503)."""


class JobCancelled(Exception):
    """Raised inside the runner when a cancel lands mid-sweep."""


@dataclass
class Job:
    """One content-addressed sweep job and its bookkeeping."""

    job_id: str
    request: dict  # canonical request (spec.SweepRequest.canonical())
    state: str = QUEUED
    seq: int = 0  # submission order (monotonic per store)
    error: str = ""
    #: the exact ``SweepResult.to_json()`` bytes, served verbatim
    result_json: str | None = None
    cancel_requested: bool = False
    #: cache accounting for the finished run
    points_total: int = 0
    points_simulated: int = 0
    memo_hits: int = 0
    runs: int = 0  # times this job entered ``running``

    def snapshot(self) -> dict:
        """The JSON status view (result body excluded — it has its own
        endpoint so polling stays cheap)."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "seq": self.seq,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
            "has_result": self.result_json is not None,
            "points_total": self.points_total,
            "points_simulated": self.points_simulated,
            "memo_hits": self.memo_hits,
            "runs": self.runs,
            "request": self.request,
        }


class JobStore:
    """Thread-safe job table with an append-only JSONL event log.

    Every mutation (submit, state change, cancel request, result
    attachment) appends one event line; :meth:`replay` folds a log back
    into an equivalent store through the *same* transition validation, so
    a log that was legal to write is legal to replay — the property the
    Hypothesis suite pins down.
    """

    def __init__(self, log_path: str | None = None):
        self.log_path = log_path
        self.jobs: dict[str, Job] = {}
        self.lock = threading.RLock()
        self._seq = 0
        self._counts = dict.fromkeys(STATES, 0)  # jobs per state
        self._log_lines: list[str] = []
        if log_path:
            os.makedirs(os.path.dirname(log_path) or ".", exist_ok=True)

    # -- event log -----------------------------------------------------

    def _append(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
        self._log_lines.append(line)
        if self.log_path:
            with open(self.log_path, "a") as f:
                f.write(line + "\n")

    def log_lines(self) -> list[str]:
        """The event log so far (also on disk when ``log_path`` is set)."""
        with self.lock:
            return list(self._log_lines)

    # -- mutations (all logged) ----------------------------------------

    def submit(self, job_id: str, request: dict) -> tuple[Job, bool]:
        """Create or revive the job for ``job_id``.

        Returns ``(job, created)``: ``created`` is True when the call
        enqueued work — a brand-new job, or a failed/cancelled one
        requeued.  Resubmitting a queued, running, or done job is a pure
        no-op on the existing job.
        """
        with self.lock:
            job = self.jobs.get(job_id)
            if job is None:
                self._seq += 1
                job = Job(job_id=job_id, request=request, seq=self._seq)
                self.jobs[job_id] = job
                self._counts[QUEUED] += 1
                self._append({"event": "submit", "job_id": job_id,
                              "seq": job.seq, "request": request})
                return job, True
            if job.state in (FAILED, CANCELLED):
                self._transition_locked(job, QUEUED)
                return job, True
            return job, False

    def transition(self, job_id: str, state: str, error: str = "") -> Job:
        """Move a job along a legal edge (raises TransitionError else)."""
        with self.lock:
            job = self._get(job_id)
            self._transition_locked(job, state, error)
            return job

    def _transition_locked(self, job: Job, state: str, error: str = "") -> None:
        if state not in STATES:
            raise TransitionError(f"unknown state {state!r}")
        if (job.state, state) not in LEGAL_TRANSITIONS:
            raise TransitionError(
                f"illegal transition {job.state!r} -> {state!r} "
                f"for job {job.job_id[:12]}"
            )
        self._counts[job.state] -= 1
        self._counts[state] += 1
        job.state = state
        job.error = error
        if state == QUEUED:  # revived: the old verdict no longer applies
            job.cancel_requested = False
            job.result_json = None
        if state == RUNNING:
            job.runs += 1
        self._append({"event": "state", "job_id": job.job_id,
                      "state": state, "error": error})

    def request_cancel(self, job_id: str) -> Job:
        """Cancel: queued jobs flip immediately, running jobs get flagged
        (the runner honours it at the next point boundary), terminal jobs
        are untouched — cancel-after-done is a no-op by contract."""
        with self.lock:
            job = self._get(job_id)
            if job.state == QUEUED:
                self._transition_locked(job, CANCELLED)
            elif job.state == RUNNING and not job.cancel_requested:
                job.cancel_requested = True
                self._append({"event": "cancel_requested",
                              "job_id": job_id})
            return job

    # Short public alias used by the HTTP layer and the doctest.
    cancel = request_cancel

    def attach_result(self, job_id: str, result_json: str, *,
                      points_total: int, points_simulated: int,
                      memo_hits: int) -> Job:
        """Record a finished sweep's curve and cache accounting, then
        transition running -> done."""
        with self.lock:
            job = self._get(job_id)
            job.result_json = result_json
            job.points_total = points_total
            job.points_simulated = points_simulated
            job.memo_hits = memo_hits
            self._append({
                "event": "result", "job_id": job_id,
                "points_total": points_total,
                "points_simulated": points_simulated,
                "memo_hits": memo_hits,
                "result_json": result_json,
            })
            self._transition_locked(job, DONE)
            return job

    # -- queries -------------------------------------------------------

    def _get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job

    def get(self, job_id: str) -> Job | None:
        with self.lock:
            return self.jobs.get(job_id)

    def ordered(self) -> list[Job]:
        with self.lock:
            return sorted(self.jobs.values(), key=lambda j: j.seq)

    def counts(self) -> dict[str, int]:
        """Jobs per state, kept where the state changes (O(1) in the
        number of jobs: every submission asks for the queue depth)."""
        with self.lock:
            return dict(self._counts)

    # -- persistence ---------------------------------------------------

    @classmethod
    def replay(cls, lines, log_path: str | None = None) -> "JobStore":
        """Fold an event log back into a store via the same rules.

        Unparseable or illegal lines (a torn tail from a crash mid-append)
        stop the replay at the last consistent prefix rather than raising:
        the log is an append-only journal, so everything before a torn
        line is intact by construction.
        """
        store = cls(log_path=None)
        for raw in lines:
            raw = raw.strip()
            if not raw:
                continue
            try:
                ev = json.loads(raw)
                kind = ev["event"]
                if kind == "submit":
                    store._seq = max(store._seq, int(ev["seq"]) - 1)
                    store.submit(ev["job_id"], ev["request"])
                elif kind == "state":
                    store.transition(ev["job_id"], ev["state"],
                                     ev.get("error", ""))
                elif kind == "cancel_requested":
                    job = store._get(ev["job_id"])
                    job.cancel_requested = True
                elif kind == "result":
                    job = store._get(ev["job_id"])
                    job.result_json = ev["result_json"]
                    job.points_total = int(ev["points_total"])
                    job.points_simulated = int(ev["points_simulated"])
                    job.memo_hits = int(ev["memo_hits"])
                else:
                    break
            except (KeyError, ValueError, TransitionError):
                break
        # Replay rebuilt the in-memory lines; now start journaling again.
        store.log_path = log_path
        return store

    @classmethod
    def load(cls, log_path: str) -> "JobStore":
        """Replay ``log_path`` (absent file -> empty store) and resume
        journaling to it."""
        lines: list[str] = []
        try:
            with open(log_path) as f:
                lines = f.readlines()
        except OSError:
            pass
        return cls.replay(lines, log_path=log_path)

    def recover(self) -> list[Job]:
        """Requeue work interrupted by a restart.

        Jobs left ``running`` by a dead process are failed (the honest
        record: that run never finished) and immediately requeued; jobs
        left ``queued`` simply re-enter the queue.  Returns the jobs to
        enqueue, in submission order.
        """
        with self.lock:
            revived = []
            for job in self.ordered():
                if job.state == RUNNING:
                    self._transition_locked(
                        job, FAILED, "interrupted by service restart"
                    )
                    self._transition_locked(job, QUEUED)
                    revived.append(job)
                elif job.state == QUEUED:
                    revived.append(job)
            return revived


class JobQueue:
    """Bounded async queue + single runner thread over the sweep engine.

    One job runs at a time; *within* a job the sweep fans its points over
    ``workers`` ProcessPool processes (see
    :func:`repro.analysis.parallel.run_points`), and the shared ``memo``
    serves previously-measured points without simulation.  The bound is on
    *queued* jobs: :meth:`submit` raises :class:`QueueFull` past
    ``max_depth``, which the HTTP layer maps to 503.

    Work that needs no simulation needs no queue: a submission whose every
    point is already in the memo is walked to ``done`` by the submitting
    thread, through the same :meth:`_walk` the runner calls, whenever the
    runner is started and no job is executing — so :meth:`submit` may
    return a job that is already ``done``.
    """

    def __init__(self, store: JobStore, memo: "SweepMemo",
                 workers: int | None = None, max_depth: int = 64):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.store = store
        self.memo = memo
        self.workers = workers
        self.max_depth = max_depth
        self._q: "queue.Queue[str | None]" = queue.Queue()
        self._thread: threading.Thread | None = None
        #: held around every :meth:`_walk`, by the runner and by a
        #: submitting thread alike: one job runs at a time, which is also
        #: what keeps the per-job memo accounting exact
        self._running = threading.Lock()
        self.jobs_deduped = 0  # submissions answered by an existing job

    # -- submission ----------------------------------------------------

    def submit(self, req: SweepRequest) -> tuple[Job, bool]:
        """Content-address ``req`` and run or enqueue it if it needs
        running (see :meth:`_answer_at_door` for which)."""
        key = request_key(req)
        with self.store.lock:
            existing = self.store.get(key)
            adds_depth = existing is None or existing.state in (FAILED,
                                                                CANCELLED)
            if adds_depth and self.depth() >= self.max_depth:
                raise QueueFull(
                    f"job queue is at capacity ({self.max_depth} queued)"
                )
            job, created = self.store.submit(key, req.canonical())
            if not created:
                self.jobs_deduped += 1
        if created and not self._answer_at_door(job, req):
            self._q.put(job.job_id)
        return job, created

    def _answer_at_door(self, job: Job, req: SweepRequest) -> bool:
        """Walk ``job`` in the submitting thread when that costs no
        simulation and no waiting; False leaves it to the queue.

        The memo probe only tests presence — it counts nothing, so the
        walk's own lookups are the job's only hits — and it may be fooled
        by a corrupt entry: that point is then simulated right here and
        the job still ends ``done`` with the direct bytes.
        """
        if self._thread is None or not self._thread.is_alive():
            return False  # nothing executes without a started runner
        if not (req.specs and all(spec in self.memo for spec in req.specs)):
            return False  # something to simulate (or a hand-built request)
        if not self._running.acquire(blocking=False):
            return False  # a job is executing: queue up behind it
        try:
            self._walk(job, req)
        finally:
            self._running.release()
        return True

    def cancel(self, job_id: str) -> Job:
        return self.store.request_cancel(job_id)

    def depth(self) -> int:
        return self.store.counts()[QUEUED]

    # -- runner --------------------------------------------------------

    def start(self) -> "JobQueue":
        """Start the runner thread (idempotent); requeues recovered work."""
        if self._thread is None or not self._thread.is_alive():
            for job in self.store.recover():
                self._q.put(job.job_id)
            self._thread = threading.Thread(
                target=self._run_loop, name="repro-service-runner",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the runner after the in-flight job finishes."""
        if self._thread is not None and self._thread.is_alive():
            self._q.put(None)
            self._thread.join(timeout=timeout)
        self._thread = None

    def join(self, timeout: float = 60.0) -> bool:
        """Block until the queue drains (for tests); True when idle."""
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._q.empty() and not self.store.counts()[RUNNING]:
                return True
            time.sleep(0.01)
        return False

    def _run_loop(self) -> None:
        while True:
            job_id = self._q.get()
            if job_id is None:
                return
            with self._running:
                self._walk(self.store.get(job_id))

    def _walk(self, job: Job, req: SweepRequest | None = None) -> None:
        """``queued -> running -> done | failed | cancelled``, for a caller
        holding ``_running``: the one place a job executes.

        ``req`` is the validated request a submission arrived with.  The
        runner's queued and recovered jobs have only the journal: its
        canonical form is itself a valid raw request, so they pass the
        same door a fresh submission did.
        """
        with self.store.lock:
            if job.state != QUEUED:
                return  # cancelled, or already run, since it was queued
            self.store.transition(job.job_id, RUNNING)
        try:
            self._execute(job, req or build_request(job.request))
        except JobCancelled:
            self.store.transition(job.job_id, CANCELLED)
        except Exception as exc:  # noqa: BLE001 - job verdict, not crash
            self.store.transition(
                job.job_id, FAILED, f"{type(exc).__name__}: {exc}"
            )

    def _execute(self, job: Job, req: SweepRequest) -> None:
        """Run one sweep exactly as a direct ``sweep_load`` caller would,
        memo-backed: the spec path over the specs :func:`build_request`
        already built (and the door already probed)."""
        from ..analysis.parallel import run_points
        from ..analysis.sweep import SweepResult

        def on_point(i, n, point):
            if job.cancel_requested:
                raise JobCancelled(job.job_id)

        _, algorithm, pattern = req.scenario
        hits0, misses0 = self.memo.hits, self.memo.misses
        sweep = SweepResult(algorithm.name, pattern.name, run_points(
            req.specs, workers=1 if self.workers is None else self.workers,
            stop_on_unstable=req.stop_after_unstable,
            progress=on_point, memo=self.memo,
        ))
        self.store.attach_result(
            job.job_id, sweep.to_json(),
            points_total=len(sweep.points),
            points_simulated=self.memo.misses - misses0,
            memo_hits=self.memo.hits - hits0,
        )
