#!/usr/bin/env python3
"""End-to-end benchmark: whole units of work through public entry points.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--smoke] [--out FILE]

Prints every metric by name with its unit, checks the program's outputs,
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a separate traced run.  README.md explains the protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fresh interpreters per workload and run that yield a set-up sample (the
#: first, which compiles the pyc files, is discarded)
SETUP_SPAWNS = 12
#: fresh child processes per workload and run that time units
PASSES = 3
#: a child still alive after this long is killed with its whole group
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def spawn_child(name: str, seed: int, units: int, budget_s: float,
                smoke: bool, trace: bool = False):
    """Run one child to its end.  Returns (spawn → ready seconds, the
    bare-spawn reference taken just before, the child's ``done`` record or
    None for a set-up probe).  The child leads its own
    process group, which is killed on every way out of here, so a failed
    run leaves no server or pool worker behind."""
    cmd = [sys.executable, os.path.join(harness.HERE, "child.py"),
           "--workload", name, "--seed", str(seed), "--units", str(units),
           "--budget-s", f"{budget_s:.3f}"]
    cmd += ["--smoke"] * smoke + ["--trace"] * trace
    bare_spawn_s = harness.bare_spawn_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=harness.child_env(),
                            cwd=harness.ROOT, text=True, start_new_session=True)

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(CHILD_TIMEOUT_S, kill_group)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        kill_group()
        proc.wait()
        proc.stdout.close()
    if code != 0 or '"ready"' not in ready:
        raise ChildFailed(f"{name}: child exited {code}")
    if units == 0:
        return setup_s, bare_spawn_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{name}: child printed no result")
    return setup_s, bare_spawn_s, json.loads(lines[-1])


class Collector:
    """Everything one workload's children reported during a run."""

    def __init__(self) -> None:
        #: raw samples and their reference activities, as measured
        self.raw = {"setup_s": [], "bare_spawn_s": [], "unit_s": [],
                    "kernel_s": [], "unit_cpu_s": []}
        #: the same samples at reference host speed
        self.setup_s: list[float] = []
        self.unit_s: list[float] = []
        self.peak_rss_mb = 0.0
        self.ledger = harness.OpLedger()
        self.trace: dict | None = None

    def crashed(self, exc: Exception) -> None:
        self.ledger.record("child", None, str(exc))

    def add_setup(self, seconds: float, bare_spawn_s: float) -> None:
        self.raw["setup_s"].append(seconds)
        self.raw["bare_spawn_s"].append(bare_spawn_s)
        self.setup_s.append(harness.corrected(
            seconds, harness.REFERENCE_SPAWN_S, bare_spawn_s))

    def add_pass(self, done: dict) -> None:
        for key, digest, error in done["ops"]:
            self.ledger.record(key, digest, error)
        for error in done["errors"]:
            self.ledger.record("check", None, error)
        if "layer_metrics" in done:  # the traced run: never in the timed numbers
            self.trace = done
            return
        # The kernel ran before every unit and once after the last: each
        # unit is corrected by the mean of the two runs that bracket it.
        kernel = done["kernel_s"]
        for unit, before, after in zip(done["unit_s"], kernel, kernel[1:]):
            self.unit_s.append(harness.corrected(
                unit, harness.REFERENCE_KERNEL_S, (before + after) / 2))
        self.raw["unit_s"] += done["unit_s"]
        self.raw["kernel_s"] += kernel
        self.raw["unit_cpu_s"] += done["unit_cpu_s"]
        self.peak_rss_mb = max(self.peak_rss_mb, done["peak_rss_mb"])

    def summary(self, smoke: bool) -> dict:
        """The workload's end-to-end numbers and their side fields."""
        first = 1 if len(self.setup_s) > 1 else 0  # first spawn compiles pyc
        setups = self.setup_s[first:]
        unit = harness.summarize(self.unit_s) if self.unit_s else None
        enough = smoke or (unit is not None and unit["n"] >= harness.MIN_SAMPLES
                           and len(setups) >= SETUP_SPAWNS - 1)
        if not enough:
            self.ledger.record("samples", None, "too few samples for a median")
        unit0 = sorted(k for k in self.ledger.first if k.startswith("0/"))
        median = statistics.median
        return {
            "metrics": {
                "unit_s": unit["median"] if unit else 0.0,
                "setup_s": median(setups) if setups else 0.0,
                "peak_rss_mb": self.peak_rss_mb,
            },
            "unit": unit,
            "setup": harness.summarize(setups) if setups else None,
            "noisy_run": bool(unit and unit["noisy_run"]),
            "unit_raw_s": median(self.raw["unit_s"]) if unit else 0.0,
            "setup_raw_s": median(self.raw["setup_s"][first:]) if setups else 0.0,
            "host_speed_x": harness.REFERENCE_KERNEL_S / median(self.raw["kernel_s"])
            if unit else 0.0,
            "unit_cpu_s": median(self.raw["unit_cpu_s"]) if unit else 0.0,
            "result_sha256": self.ledger.result_sha256(unit0),
            "samples": {"unit_s": self.unit_s, "setup_s": self.setup_s, **{
                f"raw_{k}": v for k, v in self.raw.items()}},
        }


def timed_run(names: list[str], seed: int, seconds: float, smoke: bool,
              collectors: dict[str, Collector]) -> None:
    """Passes interleaved round-robin across ``names`` (every workload
    samples the same slow drift of the box); one child at a time."""
    passes = 1 if smoke else PASSES
    probes = 1 if smoke else -(-(SETUP_SPAWNS - passes) // passes)
    deadline = time.perf_counter() + seconds * len(names)
    slots = [(p, n) for p in range(passes) for n in names]
    for i, (_, name) in enumerate(slots):
        col = collectors[name]
        try:
            for _ in range(probes):
                col.add_setup(*spawn_child(name, seed, 0, 0.0, smoke)[:2])
            budget = 0.0 if smoke else \
                (deadline - time.perf_counter()) / (len(slots) - i)
            units = 2 if smoke else WORKLOADS[name].min_units
            setup_s, bare_spawn_s, done = spawn_child(name, seed, units, budget, smoke)
            col.add_setup(setup_s, bare_spawn_s)
            col.add_pass(done)
        except ChildFailed as exc:
            col.crashed(exc)


def traced_run(names: list[str], seed: int, seconds: float, smoke: bool,
               collectors: dict[str, Collector]) -> None:
    """One traced child per workload; never mixed into the timed numbers."""
    for name in names:
        try:
            _, _, done = spawn_child(name, seed, 1 if smoke else 3,
                                  0.0 if smoke else seconds, smoke, trace=True)
            collectors[name].add_pass(done)
        except ChildFailed as exc:
            collectors[name].crashed(exc)


def print_end_to_end(name: str, s: dict, spec: dict) -> None:
    print(f"\n== {name}: end to end ==")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<14} {s['metrics'][m['name']]:>12.4f} {m['unit']:<4}"
              f" (may worsen by {m['bound']:.0%})")
    for label, q in (("unit_s", s["unit"]), ("setup_s", s["setup"])):
        if q:
            print(f"  {label}: n={q['n']} q1={q['q1']:.4f} median={q['median']:.4f} "
                  f"q3={q['q3']:.4f} min={q['min']:.4f} iqr/median={q['iqr_frac']:.3f}")
    print(f"  as measured: unit_raw_s={s['unit_raw_s']:.4f} "
          f"setup_raw_s={s['setup_raw_s']:.4f} host_speed_x={s['host_speed_x']:.3f} "
          f"unit_cpu_s={s['unit_cpu_s']:.4f}")
    print(f"  noisy_run={s['noisy_run']} result sha256 {s['result_sha256']}")


def layer_values(trace: dict | None, spec: dict) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``; 0 for a layer this
    workload does not exercise."""
    measured = trace["layer_metrics"] if trace else {}
    unknown = set(measured) - {m["name"] for m in spec["per_layer"]}
    if unknown:
        raise SystemExit(f"per-layer metrics not in BENCHMARK.json: {sorted(unknown)}")
    return {m["name"]: float(measured.get(m["name"], 0.0)) for m in spec["per_layer"]}


def print_per_layer(name: str, trace: dict | None, spec: dict) -> None:
    print(f"\n== {name}: per layer (traced run) ==")
    if trace is None:
        print("  traced run failed")
        return
    values = layer_values(trace, spec)
    for m in spec["per_layer"]:
        if m["name"] in trace["layer_metrics"]:
            print(f"  {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
    skipped = [m["name"] for m in spec["per_layer"]
               if m["name"] not in trace["layer_metrics"]]
    print(f"  not exercised by this workload (reported as 0): {', '.join(skipped)}")
    notes = trace["notes"]
    for label in ("self_time_share_by_layer", "self_time_share_by_span"):
        ranked = sorted(notes[label].items(), key=lambda kv: -kv[1])
        print(f"  {label}: " + ", ".join(f"{k}={v:.1%}" for k, v in ranked))
    for key, value in notes.items():
        if not key.startswith("self_time_share"):
            print(f"  {key}: {value}")
    print(f"  trace file: {os.path.relpath(trace['trace_file'], harness.ROOT)}")


def main() -> int:
    harness.require_tree()
    spec = harness.load_benchmark()
    errors = harness.validate_benchmark(spec)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, passes interleaved)")
    parser.add_argument("--seed", type=int, default=1,
                        help="generates every input (default 1)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long one workload's run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="the separate traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="1 pass x 2 reduced units, then the traced run")
    parser.add_argument("--out", default=os.path.join(harness.OUTPUT, "result.json"),
                        help="result file (environment, samples, metrics)")
    args = parser.parse_args()
    if args.workload:
        names = [args.workload]

    timed = args.smoke or not args.trace
    traced = args.smoke or bool(args.trace)
    env = harness.EnvRecord()
    collectors = {n: Collector() for n in names}
    summaries = {}
    if timed:
        timed_run(names, args.seed, args.seconds, args.smoke, collectors)
        summaries = {n: collectors[n].summary(args.smoke) for n in names}
    if traced:
        traced_run(names, args.seed, args.seconds, args.smoke, collectors)

    record = {"environment": env.finish(), "seed": args.seed, "smoke": args.smoke,
              "seconds": args.seconds, "workloads": {}}
    metrics: dict[str, dict] = {}
    for n in names:
        col = collectors[n]
        entry = record["workloads"][n] = dict(summaries.get(n, {}))
        if timed:
            print_end_to_end(n, entry, spec)
        if traced:
            print_per_layer(n, col.trace, spec)
            entry["per_layer"] = layer_values(col.trace, spec)
            entry["trace_notes"] = col.trace["notes"] if col.trace else None
        entry["ops_total"], entry["ops_failed"] = col.ledger.total, col.ledger.failed
        entry["failures"] = col.ledger.failures
        print(f"  ops_total={col.ledger.total} ops_failed={col.ledger.failed}")
        for failure in col.ledger.failures:
            print(f"  FAILED {failure}")
        # The last line carries one kind of metric: per-layer when asked to trace.
        shown, values = (spec["per_layer"], entry["per_layer"]) if args.trace \
            else (spec["end_to_end"], entry["metrics"])
        prefix = f"{n}/" if len(names) > 1 else ""
        for m in shown:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print("\nenvironment: " + json.dumps(record["environment"]))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
    print(f"result file: {os.path.relpath(args.out)}")

    attempted = sum(c.ledger.total for c in collectors.values())
    failed = sum(c.ledger.failed for c in collectors.values())
    print(json.dumps({"correct": failed == 0, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
