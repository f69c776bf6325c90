"""A real ``python -m repro serve`` subprocess and its closed-loop client.

One process, one thread, one connection at a time: the client sends its
next request only after the previous reply, so a slow service receives
less load.  Each request opens its own connection, as ``urllib`` (the
client of the repo's own tests and oracle) does; over a kept-alive
connection the server's two-write replies (headers, then body) meet the
client's delayed ACK and every call stalls 40 ms, which would bury the
layers this workload is meant to show.  The server is isolated per run — rate limiting off (the 5 ms
poller would be answered 429), a private memo root and job log (the
defaults would turn "cold" jobs warm on the second run).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from harness import OP_DEADLINE_S, OUTPUT, child_env

POLL_INTERVAL_S = 0.005
URL_RE = re.compile(r"http://([0-9.]+):(\d+)")


class ServiceError(RuntimeError):
    """A non-2xx reply, a failed/cancelled job or a blown deadline."""


class ServerProcess:
    """Spawn the service, wait until ``/healthz`` is 200; stop it for sure."""

    WORKERS = 2  # the program's own parallelism is fixed, never nproc

    def __init__(self) -> None:
        os.makedirs(OUTPUT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="service-", dir=OUTPUT)
        self.job_log = os.path.join(self.tmp, "jobs.jsonl")
        self.err_path = os.path.join(self.tmp, "server.err")
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0
        self.ready_s = 0.0

    def start(self) -> "ServerProcess":
        started = time.perf_counter()
        with open(self.err_path, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(self.WORKERS), "--rate-limit", "0",
                 "--memo-root", os.path.join(self.tmp, "memo"),
                 "--job-log", self.job_log],
                stdout=subprocess.PIPE, stderr=err, env=child_env(), text=True,
            )
        # The server's first stdout line names the URL it bound (--port 0).
        line = self.proc.stdout.readline()
        match = URL_RE.search(line)
        if match is None:
            with open(self.err_path) as err:
                raise ServiceError(
                    f"no listening URL in {line!r}: {err.read()[-500:]}")
        self.host, self.port = match.group(1), int(match.group(2))
        deadline = started + OP_DEADLINE_S
        while True:
            try:
                conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
                conn.request("GET", "/healthz")
                ok = conn.getresponse().status == 200
                conn.close()
            except OSError:
                ok = False
            if ok:
                break
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise ServiceError("service never became healthy")
            time.sleep(0.01)
        self.ready_s = time.perf_counter() - started
        return self

    def cpu_s(self) -> float:
        """user+sys of the server and every worker it has reaped."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
        return ticks / os.sysconf("SC_CLK_TCK")

    def journal_bytes(self) -> int:
        try:
            return os.path.getsize(self.job_log)
        except OSError:
            return 0

    def stop(self) -> None:
        proc = self.proc
        try:
            if proc is not None and proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            if proc is not None:
                proc.stdout.close()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)


class Client:
    """Submit → poll every 5 ms → fetch, one connection per request."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.polls = 0
        self.jobs = 0
        self.submit_s: list[float] = []
        #: optional ``span(name, layer)`` context-manager factory (traced run)
        self.span = None

    def _call(self, method: str, path: str, body: bytes | None = None) -> bytes:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=OP_DEADLINE_S)
        try:
            headers = {"Connection": "close"}
            if body:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        if not 200 <= resp.status < 300:
            raise ServiceError(f"{method} {path} -> {resp.status} {data[:200]!r}")
        return data

    def call(self, name: str, method: str, path: str, body: bytes | None = None):
        if self.span is None:
            return self._call(method, path, body)
        with self.span(name, "service"):
            return self._call(method, path, body)

    def stats(self) -> dict:
        return json.loads(self.call("GET /stats", "GET", "/stats"))

    def round_trip(self, body: bytes) -> bytes:
        """One op: submit ``body``, wait for ``done``, fetch the curve."""
        deadline = time.perf_counter() + OP_DEADLINE_S
        self.jobs += 1
        t0 = time.perf_counter()
        job = json.loads(self.call("POST /jobs", "POST", "/jobs", body))
        self.submit_s.append(time.perf_counter() - t0)
        job_id = job["job_id"]
        while job["state"] != "done":
            if job["state"] in ("failed", "cancelled"):
                raise ServiceError(f"job {job_id[:12]} {job['state']}: {job['error']}")
            if time.perf_counter() > deadline:
                raise ServiceError(f"job {job_id[:12]} missed its deadline")
            time.sleep(POLL_INTERVAL_S)
            self.polls += 1
            job = json.loads(self.call("GET /jobs/<id>", "GET", f"/jobs/{job_id}"))
        return self.call("GET /jobs/<id>/result", "GET", f"/jobs/{job_id}/result")
