"""One pass of one workload in a fresh interpreter, spawned by ``run.py``
with ``harness.child_env()`` (which puts the tree under test on the path).

Protocol on stdout, one JSON object per line: ``{"event": "ready"}`` as soon
as the workload could run its first unit (the parent times spawn → this
line as one ``setup_s`` sample), then ``{"event": "done", ...}`` with the
pass's samples.  With ``--units 0`` the child is a set-up probe only.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
import time

STARTED = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def peak_rss_mb() -> float:
    """Largest ``ru_maxrss`` of any single process of this child's tree
    (its own, or any descendant already reaped)."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024


def timed_units(wl, run_unit, min_units: int, budget_s: float, first_k: int = 0):
    """Run units until ``min_units`` are done and the pass's time budget
    (counted from interpreter start) is spent.  Garbage of unit k is
    collected before unit k+1 is timed, so no unit pays for its neighbour;
    the calibration kernel runs before every unit and once after the last,
    so each unit's host speed is bracketed."""
    unit_s, cpu_s, kernel_s, ops = [], [], [], []
    k = first_k
    while len(unit_s) < min_units or time.perf_counter() - STARTED < budget_s:
        gc.collect()
        kernel_s.append(harness.calibrate())
        cpu0 = wl.tree_cpu_s()
        t0 = time.perf_counter()
        unit_ops = run_unit(k)
        unit_s.append(time.perf_counter() - t0)
        cpu_s.append(wl.tree_cpu_s() - cpu0)
        ops.extend(unit_ops)
        k += 1
    kernel_s.append(harness.calibrate())
    return unit_s, cpu_s, kernel_s, ops


def traced_pass(wl, min_units: int, budget_s: float) -> dict:
    """Alternate untraced and traced units of the same inputs; the traced
    walk must return the untraced unit's bytes (the ledger checks it)."""
    tr = tracing.Tracer()

    def traced_unit(k):
        with tr.unit(f"{wl.name}/{k}"):
            return wl.traced_unit(k + wl.TRACED_INDEX_OFFSET, tr)

    plain_s, traced_s, cpu_s, ops = [], [], [], []
    k = 0
    # Part of the budget only: the layer probes that follow need the rest.
    while k < min_units or time.perf_counter() - STARTED < budget_s * 0.7:
        s, c, _, o = timed_units(wl, wl.unit, 1, 0.0, first_k=k)
        plain_s += s
        cpu_s += c
        ops += o
        s, _, _, o = timed_units(wl, traced_unit, 1, 0.0, first_k=k)
        traced_s += s
        ops += o
        k += 1
    errors = wl.verify()
    metrics, notes = wl.layer_metrics(tr)
    metrics["proc.unit_cpu_s"] = statistics.median(cpu_s)
    notes["self_time_share_by_layer"] = tracing.shares(tr.spans, "layer")
    notes["self_time_share_by_span"] = tracing.shares(tr.spans, "name")
    roots = [s for s in tr.spans if s["parent"] is None and s["unit_id"]]
    notes["self_time_sum_over_unit_total"] = (
        sum(t for s, t in zip(tr.spans, tracing.self_times(tr.spans)) if s["unit_id"])
        / sum(tracing.duration(s) for s in roots))
    notes["traced_unit_s"] = statistics.median(traced_s)
    notes["untraced_unit_s"] = statistics.median(plain_s)
    notes["trace_overhead_frac"] = notes["traced_unit_s"] / notes["untraced_unit_s"] - 1
    path = os.path.join(harness.OUTPUT, f"trace_{wl.name}.json")
    tracing.write_chrome_trace(tr.spans, path, notes)
    return {"unit_s": plain_s, "unit_cpu_s": cpu_s, "ops": ops, "errors": errors,
            "layer_metrics": metrics, "notes": notes, "trace_file": path}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True,
                        help="timed units at least (0 = set-up probe only)")
    parser.add_argument("--budget-s", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    try:
        wl.prepare()
        emit("ready")
        if args.units == 0:
            return 0
        first = wl.first_probe() if args.trace else {}
        warmup_ops = wl.warmup()
        if args.trace:
            out = traced_pass(wl, args.units, args.budget_s)
            out["layer_metrics"].update(first)
        else:
            unit_s, cpu_s, kernel_s, ops = timed_units(
                wl, wl.unit, args.units, args.budget_s)
            out = {"unit_s": unit_s, "unit_cpu_s": cpu_s, "kernel_s": kernel_s,
                   "ops": ops, "errors": wl.verify()}
        out["ops"] = [dataclasses.astuple(op)[:3] for op in warmup_ops + out["ops"]]
    finally:
        wl.close()
    emit("done", peak_rss_mb=peak_rss_mb(), **out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
