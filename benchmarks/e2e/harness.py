"""Shared pieces of the end-to-end benchmark: paths, sample statistics,
``BENCHMARK.json`` validation, the op ledger and the environment record.

Imports nothing from ``repro`` — the orchestrator (``run.py``) and
``compare.py`` must start without paying for the package under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUTPUT = os.path.join(HERE, "output")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: a run whose pooled samples spread wider than this is flagged, not dropped
NOISY_IQR_FRAC = 0.15
#: never report a median of fewer samples than this
MIN_SAMPLES = 15
#: an op slower than this counts as failed
OP_DEADLINE_S = 60.0

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128


# -- sample statistics -------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them
    — the same arithmetic the accepting driver applies across runs."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(samples: list[float]) -> dict:
    """Median, quartiles, min and the noisy-run flag of one sample pool."""
    q1, med, q3 = quartiles(samples)
    iqr_frac = (q3 - q1) / med if med else 0.0
    return {
        "n": len(samples),
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "iqr_frac": iqr_frac,
        "noisy_run": iqr_frac > NOISY_IQR_FRAC,
    }


# -- host-speed correction ---------------------------------------------
#
# The box this runs on changes speed by 10-30 % over minutes (README, noise
# study), far more than the bounds a regression check needs.  So every timed
# region is paired with a reference activity of the same kind whose cost
# depends on the box alone -- a pure-Python kernel around each unit, a bare
# interpreter spawn before each set-up -- and reported as
# ``seconds * reference cost at reference speed / reference cost now``.

#: median seconds of :func:`calibrate` / :func:`bare_spawn_s` on the
#: reference box (2 vCPU Firecracker guest, Python 3.11.7) over 80 runs;
#: frozen, so corrected times stay close to wall seconds there
REFERENCE_KERNEL_S = 0.0128
REFERENCE_SPAWN_S = 0.0122


def corrected(seconds: float, reference_s: float, now_s: float) -> float:
    """``seconds`` as they would read at reference host speed."""
    return seconds * reference_s / now_s


def bare_spawn_s() -> float:
    """Host seconds to start and reap an interpreter that imports nothing:
    the reference activity for ``setup_s`` (process creation, page-cache
    reads, interpreter boot), free of any code of the program under test."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


class _Cell:
    __slots__ = ("value", "peer")

    def __init__(self, value: int) -> None:
        self.value = value
        self.peer = self


_cells: list[_Cell] = []


def _kernel() -> float:
    t0 = time.perf_counter()
    table: dict[int, _Cell] = {}
    acc = 0
    for cell in _cells:
        acc = (acc + cell.peer.value * 31 + cell.value) & 0xFFFFF
        cell.value = acc
        table[acc & 4095] = cell.peer
    acc += len([c for c in table.values() if c.value & 1])
    return time.perf_counter() - t0


def calibrate() -> float:
    """Host seconds of a fixed pure-Python kernel (median of three passes):
    an object-graph walk with attribute, dict and list traffic over a few
    MB, the kind of work the simulator does -- the reference activity for
    ``unit_s``.  It shares no code with the program under test."""
    if not _cells:
        _cells.extend(_Cell(i) for i in range(40_000))
        for i, cell in enumerate(_cells):
            cell.peer = _cells[(i * 7919 + 13) % len(_cells)]
    return statistics.median(_kernel() for _ in range(3))


# -- BENCHMARK.json ----------------------------------------------------


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def validate_benchmark(doc: dict) -> list[str]:
    """Every way ``doc`` breaks the metric/workload naming rules."""
    errors = []
    seen: set[str] = set()

    def check_name(kind: str, name) -> None:
        if not isinstance(name, str) or not NAME_RE.match(name):
            errors.append(f"{kind} name {name!r} is not [A-Za-z0-9_.-]+ (<= 64)")
        elif name in seen:
            errors.append(f"{kind} name {name!r} is used twice")
        seen.add(name)

    workloads = doc.get("workloads", [])
    if not 2 <= len(workloads) <= 8:
        errors.append("need 2 to 8 workloads")
    for w in workloads:
        check_name("workload", w.get("name"))
        if not w.get("why") or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w.get('name')!r}: why must be one line <= 200")
    end_to_end = doc.get("end_to_end", [])
    per_layer = doc.get("per_layer", [])
    if not 1 <= len(end_to_end) <= MAX_END_TO_END:
        errors.append(f"need 1 to {MAX_END_TO_END} end-to-end metrics")
    if not 1 <= len(per_layer) <= MAX_PER_LAYER:
        errors.append(f"need 1 to {MAX_PER_LAYER} per-layer metrics")
    for m in end_to_end + per_layer:
        check_name("metric", m.get("name"))
        if not UNIT_RE.match(str(m.get("unit", ""))):
            errors.append(f"metric {m.get('name')!r}: bad unit {m.get('unit')!r}")
        if m.get("better") not in ("lower", "higher"):
            errors.append(f"metric {m.get('name')!r}: better must be lower/higher")
    for m in end_to_end:
        if not 0 < m.get("bound", 0) <= 0.25:
            errors.append(f"metric {m.get('name')!r}: bound must be in (0, 0.25]")
    if not any(m.get("name") == "setup_s" and m.get("unit") == "s"
               and m.get("better") == "lower" for m in end_to_end):
        errors.append("end_to_end needs setup_s (unit s, lower is better)")
    return errors


# -- op accounting -----------------------------------------------------


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


class OpLedger:
    """Counts ops and fails the ones that raise or stop repeating.

    Simulated statistics are deterministic, so every repeat of an op (same
    ``key`` = same generated input) must return the bytes its first repeat
    returned.  A failed op stays in ``total``: it is counted, never dropped.
    """

    def __init__(self) -> None:
        self.total = 0
        self.failed = 0
        self.first: dict[str, str] = {}
        self.failures: list[str] = []

    def record(self, key: str, digest: str | None, error: str | None) -> bool:
        self.total += 1
        if error is None and digest is None:
            error = "op returned nothing"
        if error is None:
            first = self.first.setdefault(key, digest)
            if first != digest:
                error = f"bytes differ from first repeat ({digest[:12]} != {first[:12]})"
        if error is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{key}: {error}")
            return False
        return True

    def result_sha256(self, keys: list[str]) -> str:
        """One digest over the first-repeat digests of ``keys`` (a fixed set
        present in every run, so two runs can be compared by eye)."""
        joined = "\n".join(f"{k} {self.first.get(k, '-')}" for k in keys)
        return sha256(joined.encode())


# -- environment record ------------------------------------------------


def _steal_ticks() -> int:
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class EnvRecord:
    """What the box looked like around the run; lives beside the numbers,
    never inside any simulated-result JSON."""

    def __init__(self) -> None:
        self.steal0 = _steal_ticks()
        self.record = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": _git_commit(),
            "started_unix": time.time(),
            "loadavg_start": list(os.getloadavg()),
        }

    def finish(self) -> dict:
        self.record["loadavg_end"] = list(os.getloadavg())
        self.record["steal_ticks_delta"] = _steal_ticks() - self.steal0
        self.record["elapsed_s"] = time.time() - self.record["started_unix"]
        return self.record


def child_env() -> dict:
    """Environment of every child: the tree under test on the path, hash
    seed pinned, and the program's parallelism knobs cleared so it runs
    with exactly the parallelism the workload states."""
    env = dict(os.environ)
    env.pop("REPRO_WORKERS", None)
    env.pop("REPRO_SHARDS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def input_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th generated input of a run: ``1000*S + i``."""
    return 1000 * seed + index


def require_tree() -> None:
    """Exit non-zero, printing no result, where the program is absent."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
