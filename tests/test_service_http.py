"""End-to-end differential tests for the HTTP experiment service.

The headline contract: a curve fetched through the API is byte-identical
to a direct :func:`~repro.analysis.sweep.sweep_load` call — for any worker
count, faulted specs included — and a second identical submission is a
pure cache hit that simulates nothing.  The rest pins down the HTTP error
contract (400/404/409/413/429/503), per-client rate limiting, the bounded
queue, cancellation, and the memo-warm restart path.
"""

import http.client
import io
import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.sweep import sweep_load
from repro.service import ExperimentService, RateLimiter, TokenBucket
from repro.service.server import ServiceHandler
from repro.service.spec import build_request, build_scenario, request_key

BASE_REQ = {"widths": [2, 2], "rates": [0.1, 0.2], "total_cycles": 400,
            "seed": 3}
FAULT = ["LinkFault", {"router": 0, "port": 0}]


def _service(tmp_path, **kw):
    kw.setdefault("memo_root", str(tmp_path / "memo"))
    kw.setdefault("job_log", str(tmp_path / "jobs.jsonl"))
    kw.setdefault("rate_limit", 0.0)
    return ExperimentService(port=0, **kw)


def _call(svc, method, path, payload=None, headers=None):
    """One HTTP round trip -> (status, headers, body bytes)."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(svc.url + path, data=data, method=method,
                                 headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def _wait_done(svc, job_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, _, body = _call(svc, "GET", f"/jobs/{job_id}")
        assert status == 200
        snap = json.loads(body)
        if snap["state"] in ("done", "failed", "cancelled"):
            return snap
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in {timeout_s}s")


def _direct_curve(raw, workers):
    """What a caller bypassing the service entirely would archive."""
    req = build_request(raw)
    topo, algo, patt = build_scenario(req)
    return sweep_load(
        topo, algo, patt, rates=list(req.rates),
        stop_after_unstable=req.stop_after_unstable, workers=workers,
        total_cycles=req.total_cycles, seed=req.seed,
    ).to_json()


# ---------------------------------------------------------------------------
# The differential contract: served bytes == direct sweep_load bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 4])
def test_served_curves_match_direct_sweep_byte_for_byte(tmp_path, workers):
    svc = _service(tmp_path, workers=workers).start()
    try:
        # The fault needs a 3x3: on a 2x2 losing a link strands DimWAR.
        for raw in (BASE_REQ, {**BASE_REQ, "widths": [3, 3],
                               "faults": [FAULT]}):
            status, _, body = _call(svc, "POST", "/jobs", raw)
            assert status == 202
            snap = json.loads(body)
            assert snap["created"] and snap["state"] == "queued"
            assert snap["job_id"] == request_key(build_request(raw))

            done = _wait_done(svc, snap["job_id"])
            assert done["state"] == "done", done.get("error")
            assert done["has_result"]
            # Speculative dispatch may simulate points a truncated sweep
            # drops, so >= rather than == here.
            assert done["points_simulated"] + done["memo_hits"] >= \
                done["points_total"] >= 1

            status, _, served = _call(
                svc, "GET", f"/jobs/{snap['job_id']}/result"
            )
            assert status == 200
            assert served == _direct_curve(raw, workers).encode("utf-8")
    finally:
        svc.shutdown()


def test_resubmission_is_a_pure_cache_hit(tmp_path):
    svc = _service(tmp_path, workers=1).start()
    try:
        status, _, body = _call(svc, "POST", "/jobs", BASE_REQ)
        assert status == 202
        job_id = json.loads(body)["job_id"]
        first = _wait_done(svc, job_id)
        assert first["state"] == "done" and first["points_simulated"] > 0

        # Same request, reordered spelling: answered by the existing job,
        # zero additional simulation.
        reordered = {k: BASE_REQ[k] for k in reversed(list(BASE_REQ))}
        reordered["rates"] = list(reversed(BASE_REQ["rates"]))
        status, _, body = _call(svc, "POST", "/jobs", reordered)
        snap = json.loads(body)
        assert status == 200 and not snap["created"]
        assert snap["job_id"] == job_id and snap["state"] == "done"
        assert snap["points_simulated"] == first["points_simulated"]
        assert snap["runs"] == 1  # the simulator never ran again

        _, _, stats = _call(svc, "GET", "/stats")
        assert json.loads(stats)["jobs_deduped"] == 1
    finally:
        svc.shutdown()


class _CountingSocket:
    """Server-side connection proxy recording every write that reaches the
    socket, whether from the handler's unbuffered writer (``sendall``) or
    a buffered ``makefile`` writer (``send``)."""

    def __init__(self, sock, writes):
        self._sock = sock
        self._writes = writes

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def send(self, data, *flags):
        self._writes.append(len(data))
        return self._sock.send(data, *flags)

    def sendall(self, data, *flags):
        self._writes.append(len(data))
        return self._sock.sendall(data, *flags)

    def makefile(self, mode="r", buffering=None, **kw):
        if "w" not in mode:
            return self._sock.makefile(mode, buffering, **kw)
        return io.BufferedWriter(socket.SocketIO(self, "w"), buffering)


def test_warm_replies_reach_the_socket_as_one_write(tmp_path, monkeypatch):
    """Headers and body of a keep-alive reply leave in a single socket
    write: two small segments make Nagle hold the second until the
    client's delayed ACK (~40 ms per warm poll)."""
    writes = []
    connections = []
    real_setup = ServiceHandler.setup

    def setup(handler):
        connections.append(handler.client_address)
        handler.request = _CountingSocket(handler.request, writes)
        real_setup(handler)

    monkeypatch.setattr(ServiceHandler, "setup", setup)
    svc = _service(tmp_path, workers=1).start()
    try:
        status, _, body = _call(svc, "POST", "/jobs", BASE_REQ)
        assert status == 202
        job_id = json.loads(body)["job_id"]
        _wait_done(svc, job_id)
        conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=60)
        accepted = len(connections)
        try:
            for _ in range(12):
                before = len(writes)
                conn.request("GET", f"/jobs/{job_id}")
                resp = conn.getresponse()
                payload = resp.read()
                assert resp.status == 200
                assert json.loads(payload)["state"] == "done"
                # the reply is fully read, so its writes are all recorded
                assert len(writes) - before == 1
                assert writes[-1] > len(payload)  # headers + body together
            assert len(connections) == accepted + 1  # one keep-alive socket
        finally:
            conn.close()
    finally:
        svc.shutdown()


def test_restarted_service_warm_starts_from_shared_memo(tmp_path):
    svc = _service(tmp_path, workers=1).start()
    try:
        # Every rate measured (BASE_REQ itself stops at its first point).
        _, _, body = _call(svc, "POST", "/jobs",
                           {**BASE_REQ, "stop_after_unstable": False})
        first = _wait_done(svc, json.loads(body)["job_id"])
        assert first["points_simulated"] == len(BASE_REQ["rates"])
    finally:
        svc.shutdown()

    # Fresh process state, fresh job log — only the memo directory shared.
    svc2 = _service(tmp_path, workers=1,
                    job_log=str(tmp_path / "jobs2.jsonl")).start()
    try:
        status, _, body = _call(svc2, "POST", "/jobs", BASE_REQ)
        snap = json.loads(body)
        assert status == 202 and snap["created"]  # a brand-new job...
        # ...born done: nothing to simulate, so nothing to queue or poll.
        assert snap["state"] == "done" and snap["has_result"]
        assert snap["points_simulated"] == 0 and snap["runs"] == 1
        assert snap["memo_hits"] >= snap["points_total"] >= 1
        status, _, served = _call(svc2, "GET",
                                  f"/jobs/{snap['job_id']}/result")
        assert status == 200
        assert served == _direct_curve(BASE_REQ, 1).encode("utf-8")
    finally:
        svc2.shutdown()


def test_corrupt_memo_entry_is_simulated_at_the_door(tmp_path):
    """The door's probe tests presence only; a truncated file under a
    present key is a miss when read — simulated in the POST's own thread,
    and the job is still born done with the direct bytes."""
    from repro.analysis.memo import point_key

    svc = _service(tmp_path, workers=1).start()
    try:
        _, _, body = _call(svc, "POST", "/jobs",
                           {**BASE_REQ, "stop_after_unstable": False})
        assert _wait_done(svc, json.loads(body)["job_id"])["state"] == "done"
        raw = {**BASE_REQ, "rates": BASE_REQ["rates"][1:]}
        (spec,) = build_request(raw).specs
        path = tmp_path / "memo" / f"{point_key(spec)}.json"
        path.write_text(path.read_text()[:40])
        misses = svc.memo.misses

        status, _, body = _call(svc, "POST", "/jobs", raw)
        snap = json.loads(body)
        assert status == 202 and snap["state"] == "done", snap["error"]
        assert snap["points_simulated"] == 1 and snap["memo_hits"] == 0
        assert svc.memo.misses == misses + 1
        _, _, served = _call(svc, "GET", f"/jobs/{snap['job_id']}/result")
        assert served == _direct_curve(raw, 1).encode("utf-8")
    finally:
        svc.shutdown()


def test_without_a_runner_a_memo_complete_job_stays_queued(tmp_path):
    svc = _service(tmp_path, workers=1).start()
    try:
        _, _, body = _call(svc, "POST", "/jobs",
                           {**BASE_REQ, "stop_after_unstable": False})
        assert _wait_done(svc, json.loads(body)["job_id"])["state"] == "done"
    finally:
        svc.shutdown()
    svc2 = _service(tmp_path, workers=1,
                    job_log=str(tmp_path / "jobs2.jsonl")).start(runner=False)
    try:
        status, _, body = _call(svc2, "POST", "/jobs", BASE_REQ)
        snap = json.loads(body)
        assert status == 202 and snap["state"] == "queued"
        assert snap["runs"] == 0 and svc2.memo.hits == 0
    finally:
        svc2.shutdown()


def test_journal_replayed_faulted_job_serves_the_direct_bytes(tmp_path):
    raw = {**BASE_REQ, "widths": [3, 3], "faults": [
        FAULT, ["DegradedLink", {"router": 4, "port": 1, "factor": 2}],
    ]}
    svc = _service(tmp_path, workers=1).start(runner=False)  # journal only
    try:
        _, _, body = _call(svc, "POST", "/jobs", raw)
        job_id = json.loads(body)["job_id"]
    finally:
        svc.shutdown()
    # The runner rebuilds the request from the journal alone, through the
    # same door a submission takes — so even a hand-loosened integer in the
    # file is coerced, not executed as a string.
    log = tmp_path / "jobs.jsonl"
    text = log.read_text()
    assert '"factor":2' in text
    log.write_text(text.replace('"factor":2', '"factor":"2"'))

    svc2 = _service(tmp_path, workers=1).start()
    try:
        done = _wait_done(svc2, job_id)
        assert done["state"] == "done", done.get("error")
        status, _, served = _call(svc2, "GET", f"/jobs/{job_id}/result")
        assert status == 200
        assert served == _direct_curve(raw, 1).encode("utf-8")
    finally:
        svc2.shutdown()


# ---------------------------------------------------------------------------
# HTTP error contract
# ---------------------------------------------------------------------------


def test_bad_requests_are_400_with_an_error_body(tmp_path):
    svc = _service(tmp_path).start(runner=False)
    try:
        for raw in (
            {"widths": [2, 2], "warp": 9},          # unknown key
            {"widths": [2, 2], "rates": []},        # empty sweep
            {"widths": [2, 2], "algorithm": "??"},  # unknown algorithm
            {"widths": [2, 2], "total_cycles": 1},  # below the floor
        ):
            status, _, body = _call(svc, "POST", "/jobs", raw)
            assert status == 400, raw
            assert "error" in json.loads(body)
    finally:
        svc.shutdown()


def test_unknown_jobs_and_endpoints_are_404(tmp_path):
    svc = _service(tmp_path).start(runner=False)
    try:
        for method, path in (
            ("GET", "/jobs/nope"), ("GET", "/jobs/nope/result"),
            ("POST", "/jobs/nope/cancel"), ("GET", "/nope"),
            ("POST", "/nope"),
        ):
            status, _, _ = _call(svc, method, path,
                                 {} if method == "POST" else None)
            assert status == 404, (method, path)
    finally:
        svc.shutdown()


def test_result_before_done_is_409(tmp_path):
    svc = _service(tmp_path).start(runner=False)  # accepted, never run
    try:
        _, _, body = _call(svc, "POST", "/jobs", BASE_REQ)
        job_id = json.loads(body)["job_id"]
        status, _, body = _call(svc, "GET", f"/jobs/{job_id}/result")
        assert status == 409
        assert "queued" in json.loads(body)["error"]
    finally:
        svc.shutdown()


def test_full_queue_is_503_with_retry_after(tmp_path):
    svc = _service(tmp_path, max_depth=1).start(runner=False)
    try:
        status, _, _ = _call(svc, "POST", "/jobs", BASE_REQ)
        assert status == 202
        status, headers, body = _call(svc, "POST", "/jobs",
                                      {**BASE_REQ, "seed": 99})
        assert status == 503
        assert "Retry-After" in headers
        assert "capacity" in json.loads(body)["error"]
        # A known job id still answers even when the queue is full.
        status, _, body = _call(svc, "POST", "/jobs", BASE_REQ)
        assert status == 200 and not json.loads(body)["created"]
    finally:
        svc.shutdown()


def test_cancel_over_http(tmp_path):
    svc = _service(tmp_path).start(runner=False)
    try:
        _, _, body = _call(svc, "POST", "/jobs", BASE_REQ)
        job_id = json.loads(body)["job_id"]
        status, _, body = _call(svc, "POST", f"/jobs/{job_id}/cancel", {})
        assert status == 200
        assert json.loads(body)["state"] == "cancelled"
        _, _, listing = _call(svc, "GET", "/jobs")
        states = {j["job_id"]: j["state"]
                  for j in json.loads(listing)["jobs"]}
        assert states == {job_id: "cancelled"}
    finally:
        svc.shutdown()


# ---------------------------------------------------------------------------
# Rate limiting: the HTTP 429 path and the token-bucket units
# ---------------------------------------------------------------------------


def test_throttled_client_gets_429_but_healthz_stays_up(tmp_path):
    svc = _service(tmp_path, rate_limit=0.001, burst=2).start(runner=False)
    try:
        me = {"X-Repro-Client": "hammering-client"}
        codes = [_call(svc, "GET", "/stats", headers=me)[0]
                 for _ in range(4)]
        assert codes[:2] == [200, 200] and codes[2:] == [429, 429]
        status, headers, _ = _call(svc, "GET", "/stats", headers=me)
        assert status == 429 and float(headers["Retry-After"]) > 0
        # Another client has an independent bucket; liveness is exempt.
        other = {"X-Repro-Client": "patient-client"}
        assert _call(svc, "GET", "/stats", headers=other)[0] == 200
        assert _call(svc, "GET", "/healthz", headers=me)[0] == 200
        _, _, stats = _call(svc, "GET", "/stats", headers=other)
        assert json.loads(stats)["throttled"] >= 3
    finally:
        svc.shutdown()


def test_token_bucket_refills_on_a_fake_clock():
    t = [0.0]
    bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: t[0])
    assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() == 0.0
    wait = bucket.try_acquire()
    assert wait > 0.0
    t[0] += wait  # wait exactly as told -> next acquire succeeds
    assert bucket.try_acquire() == 0.0
    t[0] += 3600.0  # a bucket never overfills past its burst
    for _ in range(2):
        assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() > 0.0


def test_rate_limiter_is_per_client_and_zero_disables():
    t = [0.0]
    limiter = RateLimiter(rate=1.0, burst=1, clock=lambda: t[0])
    assert limiter.check("a") == 0.0
    assert limiter.check("a") > 0.0
    assert limiter.check("b") == 0.0  # an independent bucket
    assert limiter.throttled == 1

    unlimited = RateLimiter(rate=0.0, clock=lambda: t[0])
    assert all(unlimited.check("x") == 0.0 for _ in range(100))
    assert unlimited.throttled == 0
