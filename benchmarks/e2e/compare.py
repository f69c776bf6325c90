#!/usr/bin/env python3
"""Compare two sets of end-to-end results against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are result files written by ``run.py --out``, or directories
of them (one file per run; each side's value is then the median over its
runs, which is how the alternating-pairs protocol in README.md is scored).
Prints, per workload and end-to-end metric, both medians, how much worse B
is than A, and PASS/FAIL against the metric's bound.  Exits non-zero on any
FAIL, or if B fails a larger share of its ops than A.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


def load_side(path: str) -> list[dict]:
    """The result records under ``path`` (a file, or a directory of files)."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json"))
    records = []
    for name in files:
        with open(name) as f:
            records.append(json.load(f))
    if not records:
        raise SystemExit(f"no result files under {path}")
    return records


def side_values(records: list[dict], workload: str, metric: str) -> list[float]:
    return [r["workloads"][workload]["metrics"][metric] for r in records
            if "metrics" in r["workloads"].get(workload, {})]


def failed_share(records: list[dict], workload: str) -> float:
    entries = [r["workloads"][workload] for r in records if workload in r["workloads"]]
    total = sum(e["ops_total"] for e in entries)
    return sum(e["ops_failed"] for e in entries) / total if total else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative
    when ``b`` is better)."""
    change = (b - a) / a
    return change if better == "lower" else -change


def compare(a: list[dict], b: list[dict], spec: dict) -> tuple[list[str], bool]:
    lines = [f"{'workload':<16}{'metric':<14}{'A':>12}{'B':>12}{'B worse by':>12}"
             f"{'bound':>8}  verdict"]
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            va, vb = side_values(a, w, m["name"]), side_values(b, w, m["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = worse_by(ma, mb, m["better"])
            passed = worse <= m["bound"]
            ok &= passed
            lines.append(
                f"{w:<16}{m['name']:<14}{ma:>12.4f}{mb:>12.4f}{worse:>+12.1%}"
                f"{m['bound']:>8.0%}  {'PASS' if passed else 'FAIL'}")
        fa, fb = failed_share(a, w), failed_share(b, w)
        if fb > fa:
            ok = False
            lines.append(f"{w:<16}ops_failed/ops_total rose {fa:.4%} -> {fb:.4%}  FAIL")
        digests = [{r["seed"]: r["workloads"][w].get("result_sha256")
                    for r in side if w in r["workloads"]} for side in (a, b)]
        common = sorted(set(digests[0]) & set(digests[1]))
        differ = [seed for seed in common if digests[0][seed] != digests[1][seed]]
        if common:
            lines.append(
                f"{w:<16}result sha256: "
                + (f"DIFFERENT at seeds {differ}" if differ
                   else f"identical at {len(common)} common seed(s)"))
    return lines, ok


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    lines, ok = compare(load_side(sys.argv[1]), load_side(sys.argv[2]),
                        harness.load_benchmark())
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
