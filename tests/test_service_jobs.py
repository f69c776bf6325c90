"""Property tests for the service job state machine and JSONL journal.

The Hypothesis suite drives :class:`repro.service.jobs.JobStore` through
arbitrary *legal* operation sequences and pins the contract down:

* every reachable state is legal and every illegal edge raises
  :class:`~repro.service.jobs.TransitionError`;
* resubmission is idempotent — the content hash is the job id, so a
  reordered spelling of the same request lands on the same job;
* cancel-after-done (or any terminal state) is a no-op;
* replaying the persisted JSONL log through the same transition rules
  reconstructs the same states, and a torn log tail degrades to the last
  consistent prefix instead of raising.
"""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    LEGAL_TRANSITIONS,
    QUEUED,
    RUNNING,
    STATES,
    TERMINAL,
    JobQueue,
    JobStore,
    QueueFull,
    TransitionError,
)
from repro.service.spec import build_request, request_key

KEYS = ("job-a", "job-b", "job-c")
RESULT = '{"algorithm": "DimWAR", "pattern": "UR", "points": []}'


def _attach(store, jid):
    store.attach_result(jid, RESULT, points_total=0, points_simulated=0,
                        memo_hits=0)


def _legal_actions(store):
    """Every operation that is legal *now*, as (opcode, job_id) pairs."""
    actions = [("submit", k) for k in KEYS if k not in store.jobs]
    for jid, job in store.jobs.items():
        actions.append(("cancel", jid))  # legal in every state (may no-op)
        if job.state == QUEUED:
            actions.append(("run", jid))
        elif job.state == RUNNING:
            actions.extend([("done", jid), ("fail", jid),
                            ("cancel_running", jid)])
        elif job.state in (FAILED, CANCELLED):
            actions.append(("resubmit", jid))
        elif job.state == DONE:
            actions.append(("resubmit_done", jid))
    return actions


def _apply(store, op, jid):
    if op == "submit":
        job, created = store.submit(jid, {"widths": [2, 2], "id": jid})
        assert created and job.state == QUEUED
    elif op == "run":
        store.transition(jid, RUNNING)
    elif op == "done":
        _attach(store, jid)
    elif op == "fail":
        store.transition(jid, FAILED, "boom")
    elif op == "cancel":
        before = store.jobs[jid].state if jid in store.jobs else None
        job = store.request_cancel(jid)
        if before in TERMINAL:
            assert job.state == before  # cancel past terminal is a no-op
    elif op == "cancel_running":
        store.transition(jid, CANCELLED)  # the runner honouring the flag
    elif op == "resubmit":
        job, created = store.submit(jid, store.jobs[jid].request)
        assert created and job.state == QUEUED
        assert job.result_json is None and not job.cancel_requested
    elif op == "resubmit_done":
        job, created = store.submit(jid, store.jobs[jid].request)
        assert not created and job.state == DONE
        assert job.result_json == RESULT  # the cached curve survives


def _recount(store):
    return {s: sum(j.state == s for j in store.jobs.values()) for s in STATES}


@given(st.data())
@settings(max_examples=120)
def test_legal_sequences_and_log_replay(data):
    store = JobStore()
    steps = data.draw(st.integers(min_value=1, max_value=40))
    for _ in range(steps):
        op, jid = data.draw(st.sampled_from(_legal_actions(store)))
        _apply(store, op, jid)
        for job in store.jobs.values():
            assert job.state in STATES
            if job.state == DONE:
                assert job.result_json is not None
            if job.state == QUEUED:
                assert job.result_json is None
        assert store.counts() == _recount(store)  # kept, not recomputed

    # The journal replays to the same states, seqs, and results.
    replayed = JobStore.replay(store.log_lines())
    assert {j.job_id: j.state for j in store.ordered()} == \
        {j.job_id: j.state for j in replayed.ordered()}
    assert {j.job_id: j.seq for j in store.ordered()} == \
        {j.job_id: j.seq for j in replayed.ordered()}
    assert {j.job_id: j.result_json for j in store.ordered()} == \
        {j.job_id: j.result_json for j in replayed.ordered()}
    assert replayed.counts() == _recount(replayed) == store.counts()


def _store_in_state(state):
    store = JobStore()
    store.submit("j", {"widths": [2, 2]})
    if state == RUNNING:
        store.transition("j", RUNNING)
    elif state == DONE:
        store.transition("j", RUNNING)
        _attach(store, "j")
    elif state == FAILED:
        store.transition("j", RUNNING)
        store.transition("j", FAILED, "boom")
    elif state == CANCELLED:
        store.transition("j", CANCELLED)
    return store


@pytest.mark.parametrize(
    "src,dst",
    [p for p in itertools.product(STATES, STATES)
     if p not in LEGAL_TRANSITIONS],
)
def test_every_illegal_edge_raises(src, dst):
    store = _store_in_state(src)
    with pytest.raises(TransitionError):
        store.transition("j", dst)
    assert store.jobs["j"].state == src  # failed transition mutates nothing


def test_unknown_state_and_unknown_job_raise():
    store = _store_in_state(QUEUED)
    with pytest.raises(TransitionError):
        store.transition("j", "exploded")
    with pytest.raises(KeyError):
        store.transition("ghost", RUNNING)
    with pytest.raises(KeyError):
        store.request_cancel("ghost")


def test_cancel_semantics_per_state():
    # queued -> cancelled immediately
    store = _store_in_state(QUEUED)
    assert store.request_cancel("j").state == CANCELLED
    # running -> flagged only; the runner flips it at a point boundary
    store = _store_in_state(RUNNING)
    job = store.request_cancel("j")
    assert job.state == RUNNING and job.cancel_requested
    # terminal -> untouched
    for state in TERMINAL:
        store = _store_in_state(state)
        assert store.request_cancel("j").state == state


# ---------------------------------------------------------------------------
# Content-addressed idempotent resubmission (through the real request hash)
# ---------------------------------------------------------------------------


@given(rates=st.lists(
    st.floats(min_value=0.01, max_value=0.9,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=5, unique=True,
), seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_request_key_ignores_rate_order(rates, seed):
    fwd = build_request({"widths": [2, 2], "rates": rates, "seed": seed})
    rev = build_request(
        {"widths": [2, 2], "rates": list(reversed(rates)), "seed": seed}
    )
    assert request_key(fwd) == request_key(rev)
    other = build_request(
        {"widths": [2, 2], "rates": rates, "seed": seed + 1}
    )
    assert request_key(other) != request_key(fwd)


#: The request-side twins of tests/test_sweep_memo.py's pinned specs, and
#: their job ids as recorded before the fault codec moved: a changed
#: canonical form would rename every journaled job.
PINNED_PRISTINE = {
    "widths": [3, 3], "terminals_per_router": 2, "rates": [0.3, 0.1],
    "total_cycles": 500, "seed": 7,
}
PINNED_FAULTED = {
    "widths": [4, 4], "algorithm": "OmniWAR", "pattern": "BC",
    "rates": [0.25, 0.1], "total_cycles": 400, "seed": 3,
    "faults": [
        ["LinkFault", {"router": 0, "port": 0}],
        ["RouterFault", {"router": 5}],
        ["DegradedLink", {"router": 9, "port": 2, "factor": 4}],
    ],
}


def test_request_key_digests_are_pinned():
    assert request_key(build_request(PINNED_PRISTINE)) == (
        "fc9d6c3fce0ec889f34b8a96b156a3aa83cb414888e425305320a7a2207390d9"
    )
    assert request_key(build_request(PINNED_FAULTED)) == (
        "ebdc59ebfb3969e07fc02acf0d1e41c9791eef39eeaa5805375b344173c59ec3"
    )


@pytest.mark.parametrize("raw", [PINNED_PRISTINE, PINNED_FAULTED],
                         ids=["pristine", "three-fault-classes"])
def test_canonical_form_is_itself_a_valid_request(raw):
    """What the journal stores is what the runner re-validates: the
    canonical dict must pass ``build_request`` and come back unchanged."""
    req = build_request(raw)
    again = build_request(req.canonical())
    assert again == req
    assert request_key(again) == request_key(req)
    # the door's coercion applies on the way back in, too
    loose = json.loads(json.dumps(req.canonical()))
    for _, fields in loose["faults"]:
        fields.update({k: str(v) for k, v in fields.items()})
    assert build_request(loose) == req


def _memo(tmp_path):
    from repro.analysis.memo import SweepMemo

    return SweepMemo(root=str(tmp_path / "memo"))


def test_queue_resubmission_is_idempotent(tmp_path):
    queue = JobQueue(JobStore(), _memo(tmp_path))
    req_a = build_request({"widths": [2, 2], "rates": [0.2, 0.1]})
    req_b = build_request({"rates": [0.1, 0.2], "widths": [2, 2]})
    job1, created1 = queue.submit(req_a)
    job2, created2 = queue.submit(req_b)
    assert created1 and not created2
    assert job1.job_id == job2.job_id and job1 is job2
    assert queue.jobs_deduped == 1 and queue.depth() == 1


def test_queue_bounded_depth_raises_queue_full(tmp_path):
    queue = JobQueue(JobStore(), _memo(tmp_path), max_depth=2)
    for seed in (1, 2):
        queue.submit(build_request({"widths": [2, 2], "seed": seed}))
    with pytest.raises(QueueFull):
        queue.submit(build_request({"widths": [2, 2], "seed": 3}))
    # Resubmission of a known job is a dedup, never a capacity question.
    job, created = queue.submit(build_request({"widths": [2, 2], "seed": 1}))
    assert not created and job.state == QUEUED


# ---------------------------------------------------------------------------
# Persistence: the on-disk journal and restart recovery
# ---------------------------------------------------------------------------


def test_log_file_round_trip_and_recovery(tmp_path):
    path = str(tmp_path / "jobs.jsonl")
    store = JobStore(log_path=path)
    store.submit("a", {"widths": [2, 2]})
    store.transition("a", RUNNING)
    _attach(store, "a")
    store.submit("b", {"widths": [3, 3]})
    store.transition("b", RUNNING)  # interrupted mid-run
    store.submit("c", {"widths": [2, 2], "seed": 9})  # still queued

    reloaded = JobStore.load(path)
    assert {j.job_id: j.state for j in reloaded.ordered()} == {
        "a": DONE, "b": RUNNING, "c": QUEUED,
    }
    assert reloaded.jobs["a"].result_json == RESULT

    revived = reloaded.recover()
    assert [j.job_id for j in revived] == ["b", "c"]
    assert reloaded.jobs["b"].state == QUEUED
    assert "interrupted" in json.dumps(reloaded.log_lines())
    # Recovery events were journaled too: a second replay agrees.
    again = JobStore.load(path)
    assert again.jobs["b"].state == QUEUED and again.jobs["a"].state == DONE


def test_torn_log_tail_degrades_to_prefix(tmp_path):
    store = JobStore()
    store.submit("a", {"widths": [2, 2]})
    store.transition("a", RUNNING)
    lines = store.log_lines()
    torn = lines + ['{"event": "state", "job_id": "a", "st']  # crash mid-write
    replayed = JobStore.replay(torn)
    assert replayed.jobs["a"].state == RUNNING  # prefix, no exception

    illegal = lines + [json.dumps(
        {"event": "state", "job_id": "a", "state": "queued"}
    )]
    assert JobStore.replay(illegal).jobs["a"].state == RUNNING


def test_missing_log_file_is_empty_store(tmp_path):
    store = JobStore.load(str(tmp_path / "absent.jsonl"))
    assert store.ordered() == [] and store.recover() == []


# ---------------------------------------------------------------------------
# Answered at the door: a memo-complete submission is walked by its submitter
# ---------------------------------------------------------------------------

WARM_BASE = {"widths": [2, 2], "rates": [0.1, 0.2, 0.3], "total_cycles": 100,
             "seed": 11, "stop_after_unstable": False}


def _direct(req):
    """The bytes a caller bypassing the queue would archive."""
    from repro.analysis.sweep import sweep_load
    from repro.service.spec import build_scenario

    return sweep_load(
        *build_scenario(req), list(req.rates), total_cycles=req.total_cycles,
        stop_after_unstable=req.stop_after_unstable, seed=req.seed,
    ).to_json()


def _warm_queue(tmp_path, **kw):
    """A started queue whose memo holds every point of ``WARM_BASE``."""
    queue = JobQueue(JobStore(), _memo(tmp_path), **kw).start()
    cold, created = queue.submit(build_request(WARM_BASE))
    assert created and queue.join() and cold.state == DONE, cold.error
    return queue, cold


def test_probe_is_not_a_replay(tmp_path):
    queue = JobQueue(JobStore(), _memo(tmp_path)).start()
    memo = queue.memo
    try:
        cold, _ = queue.submit(build_request(WARM_BASE))
        assert queue.join() and cold.state == DONE
        # the door probed all three points and found none: no count moved
        assert (memo.hits, memo.misses) == (0, 3)
        assert (cold.memo_hits, cold.points_simulated) == (0, 3)

        warm, created = queue.submit(
            build_request({**WARM_BASE, "rates": [0.3, 0.1]}))
        assert created and warm.state == DONE and warm.runs == 1
        assert (memo.hits, memo.misses) == (2, 3)  # its lookups, once each
        assert (warm.memo_hits, warm.points_simulated) == (2, 0)
        assert warm.result_json == _direct(build_request(warm.request))
    finally:
        queue.stop()


def test_door_job_journal_is_the_runners_and_replays(tmp_path):
    queue, cold = _warm_queue(tmp_path)
    try:
        warm, _ = queue.submit(
            build_request({**WARM_BASE, "stop_after_unstable": True}))
        assert warm.state == DONE
    finally:
        queue.stop()

    def events(job):
        return [(ev["event"], ev.get("state")) for ev in
                map(json.loads, queue.store.log_lines())
                if ev["job_id"] == job.job_id]

    walk = [("submit", None), ("state", RUNNING), ("result", None),
            ("state", DONE)]
    assert events(cold) == walk  # through the runner thread
    assert events(warm) == walk  # in the submitting thread
    replayed = JobStore.replay(queue.store.log_lines())
    for job in (cold, warm):
        twin = replayed.jobs[job.job_id]
        assert (twin.state, twin.runs, twin.result_json, twin.memo_hits) == \
            (DONE, 1, job.result_json, job.memo_hits)
    assert replayed.counts() == queue.store.counts()


def test_warm_submission_queues_behind_a_running_job(tmp_path, monkeypatch):
    """One job runs at a time: the door never executes beside the runner,
    and each job's memo accounting is its own."""
    import threading

    from repro.analysis import parallel

    queue, _ = _warm_queue(tmp_path)
    started, release = threading.Event(), threading.Event()
    real_run_point = parallel.run_point

    def held_run_point(spec):
        started.set()
        assert release.wait(60)
        return real_run_point(spec)

    monkeypatch.setattr(parallel, "run_point", held_run_point)
    try:
        cold, _ = queue.submit(build_request({**WARM_BASE, "rates": [0.15]}))
        assert started.wait(60) and cold.state == RUNNING
        warm, created = queue.submit(
            build_request({**WARM_BASE, "rates": [0.2]}))
        assert created and warm.state == QUEUED and warm.runs == 0
        assert cold.state == RUNNING and queue.depth() == 1
        release.set()
        assert queue.join()
    finally:
        release.set()
        queue.stop()
    assert (cold.state, cold.points_simulated, cold.memo_hits) == (DONE, 1, 0)
    assert (warm.state, warm.points_simulated, warm.memo_hits) == (DONE, 0, 1)
    assert cold.runs == warm.runs == 1


def test_unstarted_runner_leaves_a_memo_complete_job_queued(tmp_path):
    queue, _ = _warm_queue(tmp_path)
    queue.stop()
    hits = queue.memo.hits
    job, created = queue.submit(build_request({**WARM_BASE, "rates": [0.1]}))
    assert created and job.state == QUEUED and job.runs == 0
    assert queue.depth() == 1 and queue.memo.hits == hits


def test_cancel_between_submit_and_walk_never_runs(tmp_path):
    from repro.analysis.memo import SweepMemo

    req = build_request({**WARM_BASE, "rates": [0.2]})

    class CancellingMemo(SweepMemo):
        """Cancels the job while the door is still probing for it."""

        def __contains__(self, spec):
            queue.cancel(request_key(req))
            return super().__contains__(spec)

    queue, _ = _warm_queue(tmp_path)
    queue.memo = CancellingMemo(root=queue.memo.root)
    try:
        job, created = queue.submit(req)
        assert created and job.state == CANCELLED and job.runs == 0
    finally:
        queue.stop()

    # ...and the queued twin: cancelled before the runner ever reaches it.
    idle = JobQueue(JobStore(), _memo(tmp_path))
    job, _ = idle.submit(req)
    assert idle.cancel(job.job_id).state == CANCELLED
    idle.start()
    try:
        assert idle.join()
    finally:
        idle.stop()
    assert job.state == CANCELLED and job.runs == 0
    for store in (queue.store, idle.store):
        assert RUNNING not in [
            ev.get("state") for ev in map(json.loads, store.log_lines())
            if ev["job_id"] == job.job_id]


def test_concurrent_submitters_never_run_two_jobs_at_once(tmp_path):
    """8 threads, 2 cores, a 10 us switch interval: every submission is
    counted once, every lookup belongs to exactly one job, and the door and
    the runner never execute side by side."""
    import random
    import sys
    import threading

    queue, cold = _warm_queue(tmp_path)
    rates = WARM_BASE["rates"]
    variants = [{**WARM_BASE, "rates": list(sub), "stop_after_unstable": flag}
                for n in (1, 2) for sub in itertools.combinations(rates, n)
                for flag in (True, False)]
    active, peak, errors = [], [0], []
    real_execute = queue._execute

    def tracked_execute(job, req):
        active.append(job.job_id)
        peak[0] = max(peak[0], len(active))
        try:
            real_execute(job, req)
        finally:
            active.pop()

    queue._execute = tracked_execute

    def client(k):
        order = list(variants)
        random.Random(k).shuffle(order)
        try:
            for raw in order:
                queue.submit(build_request(raw))
        except Exception as exc:  # noqa: BLE001 - reported by the assert
            errors.append(exc)

    hits0, misses0 = queue.memo.hits, queue.memo.misses
    threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert queue.join()
    finally:
        sys.setswitchinterval(interval)
        queue.stop()
    assert not errors
    assert peak[0] == 1
    jobs = [j for j in queue.store.ordered() if j is not cold]
    assert len(jobs) == len(variants)
    assert queue.jobs_deduped == 8 * len(variants) - len(variants)
    assert all(j.state == DONE and j.runs == 1 for j in jobs)
    assert sum(j.memo_hits for j in jobs) == queue.memo.hits - hits0
    assert queue.memo.misses == misses0
    assert queue.store.counts()[DONE] == len(variants) + 1
