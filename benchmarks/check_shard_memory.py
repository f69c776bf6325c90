"""CI guard: sharding must divide simulation state, not copy it.

Each shard worker owns a contiguous slice of routers and builds *only*
that partition (``repro.network.shard``), so its peak RSS must shrink
roughly 1/N as the shard count grows.  This script runs a loaded
16x16x16 (4096-router) scenario at shards=1 and shards=4, each in a
*fresh subprocess* (``RUSAGE_CHILDREN.ru_maxrss`` is a high-water mark
over all reaped children, so configurations must not share a parent),
and **fails (exit 1) if the largest shards=4 worker's peak RSS exceeds
half of the shards=1 worker's**.  A worker that holds the whole network
— a partition filter regression — shows up as a ratio near 1.0.

Wall-clock is printed for information only and never asserted: on a
single-core host the lock-stepped workers serialize, and on shared CI
runners timing is noise.  The RSS ratio is stable on both.

Run:   PYTHONPATH=src python benchmarks/check_shard_memory.py
Table: PYTHONPATH=src python benchmarks/check_shard_memory.py --table
       (shards 1/2/4 build/run/throughput/CPU/RSS — the source of the
       "Sharded engine: memory" table in docs/PERFORMANCE.md, "Honest A/B
       numbers")
"""

import json
import subprocess
import sys

#: The largest shards=4 worker may hold at most this fraction of the
#: shards=1 worker's peak RSS.  Perfect division would be ~0.25 plus the
#: fixed interpreter baseline; 0.5 leaves room for boundary structures
#: and allocator jitter while still catching any whole-network copy.
RATIO_LIMIT = 0.5

CHILD = r"""
import json
import resource
import sys
import time

from repro.analysis.parallel import PointSpec
from repro.network.shard import ShardEngine

shards, cycles = int(sys.argv[1]), int(sys.argv[2])
spec = PointSpec(
    widths=(16, 16, 16), terminals_per_router=2, algorithm="DimWAR",
    pattern="UR", rate=0.1, total_cycles=0, seed=1,
)
t0 = time.perf_counter()
engine = ShardEngine(spec, shards)
engine.total_ejected()  # barrier: workers reply only once built
build_s = time.perf_counter() - t0
engine.run(128)  # warm-up to steady state (packet latency ~100 cycles)
before = engine.total_ejected()
t0 = time.perf_counter()
engine.run(cycles)
run_s = time.perf_counter() - t0
flits = engine.total_ejected() - before
assert flits > 0
engine.finish()
engine.close()  # joins the workers; RUSAGE_CHILDREN is complete after this
kids = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({
    "shards": shards,
    "build_s": round(build_s, 2),
    "run_s": round(run_s, 2),
    "cycles_per_sec": round(cycles / run_s, 1),
    "flits_per_sec": int(flits / run_s),
    # ru_maxrss is KiB on Linux, bytes on macOS; every configuration is
    # measured in the same interpreter, so the ratio is unit-free.
    "worker_rss_max": kids.ru_maxrss,
    "worker_cpu_total_s": round(kids.ru_utime + kids.ru_stime, 2),
}))
"""


def measure(shards: int, cycles: int = 32) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(shards), str(cycles)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def fmt(m: dict) -> str:
    return (
        f"shards={m['shards']}: build {m['build_s']:>6.1f}s  "
        f"run {m['run_s']:>5.1f}s  {m['cycles_per_sec']:>5.1f} cyc/s  "
        f"{m['flits_per_sec']:>6d} flits/s  "
        f"worker CPU {m['worker_cpu_total_s']:>6.1f}s  "
        f"max worker RSS {m['worker_rss_max']}"
    )


def main(argv: list[str]) -> int:
    if "--table" in argv:
        for shards in (1, 2, 4):
            print(fmt(measure(shards)))
        return 0
    one = measure(1)
    four = measure(4)
    print(fmt(one))
    print(fmt(four))
    ratio = four["worker_rss_max"] / one["worker_rss_max"]
    print(f"max-worker RSS ratio (4 shards / 1): {ratio:.3f}  "
          f"(limit {RATIO_LIMIT:.2f})")
    if ratio > RATIO_LIMIT:
        print(
            "\nFAIL: a 4-shard worker holds more than half the 1-shard "
            "worker's memory — each worker is supposed to build only its "
            "own router slice.  Look for partition leaks in "
            "src/repro/network/shard.py (_build_partial / owned filters)."
        )
        return 1
    print("\nok: shard workers hold ~1/N of the network each")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
