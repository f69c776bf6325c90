"""Tests of the benchmark harness itself (not on the tier-1 path).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import copy
import json
import os
import re
import statistics
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, harness.SRC)


# -- sample statistics -------------------------------------------------


def test_quartiles_are_the_drivers_quantiles():
    values = [2.8, 2.95, 2.88, 3.4, 2.7, 2.9, 3.1, 2.85, 2.6, 3.0]
    assert harness.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert harness.quartiles(values)[1] == statistics.median(values)
    assert harness.quartiles([1.5]) == (1.5, 1.5, 1.5)


def test_summarize_flags_a_noisy_run():
    steady = harness.summarize([1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99])
    assert steady["n"] == 8 and steady["median"] == pytest.approx(1.0)
    assert not steady["noisy_run"] and steady["min"] == 0.98
    noisy = harness.summarize([1.0, 1.4, 0.7, 1.3, 0.8, 1.0, 1.5, 0.6])
    assert noisy["iqr_frac"] > harness.NOISY_IQR_FRAC and noisy["noisy_run"]


def test_host_speed_correction_cancels_a_slow_box():
    import run

    fast, slow = run.Collector(), run.Collector()
    ref = harness.REFERENCE_KERNEL_S
    done = {"ops": [], "errors": [], "unit_cpu_s": [1.0, 1.0], "peak_rss_mb": 50.0}
    fast.add_pass(dict(done, unit_s=[1.0, 1.1], kernel_s=[ref, ref, ref]))
    # The same work on a box running 30 % slower: units and kernel stretch alike.
    slow.add_pass(dict(done, unit_s=[1.3, 1.43], kernel_s=[ref * 1.3] * 3))
    assert fast.unit_s == pytest.approx([1.0, 1.1])
    assert slow.unit_s == pytest.approx(fast.unit_s)
    assert slow.raw["unit_s"] == [1.3, 1.43]
    # Each unit is corrected by the two kernel runs that bracket it.
    drift = run.Collector()
    drift.add_pass(dict(done, unit_s=[1.0, 1.0], kernel_s=[ref, ref, ref * 2]))
    assert drift.unit_s == pytest.approx([1.0, 1 / 1.5])
    fast.add_setup(0.30, harness.REFERENCE_SPAWN_S)
    slow.add_setup(0.45, harness.REFERENCE_SPAWN_S * 1.5)
    assert fast.setup_s == pytest.approx([0.30])
    assert slow.setup_s == pytest.approx(fast.setup_s)


def test_the_traced_pass_never_enters_the_timed_numbers():
    import run

    col = run.Collector()
    col.add_pass({"ops": [["0/a", "d", None]], "errors": ["boom"], "unit_s": [9.0],
                  "unit_cpu_s": [9.0], "layer_metrics": {}, "notes": {}})
    assert col.unit_s == [] and col.raw["unit_s"] == [] and col.trace is not None
    assert (col.ledger.total, col.ledger.failed) == (2, 1)


# -- spans -------------------------------------------------------------


def test_span_self_times_sum_to_the_unit():
    tr = tracing.Tracer()
    with tr.unit("w/0"):
        with tr.span("Network", "network"):
            time.sleep(0.002)
            with tr.span("inner", "core"):
                time.sleep(0.002)
        with tr.span("run", "network"):
            time.sleep(0.002)
    root, network, inner, run = tr.spans
    assert (network["parent"], inner["parent"], run["parent"]) == (0, 1, 0)
    assert {s["unit_id"] for s in tr.spans} == {"w/0"}
    selfs = tracing.self_times(tr.spans)
    assert sum(selfs) == pytest.approx(tracing.duration(root))
    assert selfs[1] == pytest.approx(tracing.duration(network) - tracing.duration(inner))
    assert all(t >= 0 for t in selfs)
    by_layer = tracing.shares(tr.spans, "layer")
    assert sum(by_layer.values()) == pytest.approx(1.0)
    assert set(by_layer) == {"harness", "network", "core"}


def test_spans_outside_a_unit_are_left_out_of_shares():
    tr = tracing.Tracer()
    with tr.span("probe", "analysis"):
        pass
    with tr.unit("w/0"):
        with tr.span("step", "network"):
            pass
    assert "analysis" not in tracing.shares(tr.spans, "layer")
    events = tracing.chrome_trace(tr.spans)["traceEvents"]
    assert [e["ph"] for e in events] == ["X"] * 3
    assert events[2]["args"]["parent"] == 1 and events[2]["cat"] == "network"


# -- inputs from the seed ----------------------------------------------


def test_same_seed_same_request_bodies_and_specs():
    a, b = workloads.ServiceMix(3), workloads.ServiceMix(3)
    assert a.session(5) == b.session(5)
    assert a.session(5) != a.session(6)
    assert a.session(5) != workloads.ServiceMix(4).session(5)
    assert json.loads(a.session(5)[0][2])["seed"] == 3005
    p, q = workloads.Probe8x8x8(3), workloads.Probe8x8x8(3)
    p.prepare()
    q.prepare()
    assert p.specs == q.specs and p.specs[7].seed == 3007
    assert p.specs[7].widths == (8, 8, 8) and p.specs[7].algorithm == "DimWAR"


def test_the_session_mix_is_what_the_glossary_says():
    wl = workloads.ServiceMix(1)
    session = wl.session(0)
    kinds = [kind for _, kind, _ in session]
    assert kinds == ["cold"] + ["warm"] * 24 + ["dedupe"] * 24
    bodies = [body for _, _, body in session]
    assert len(set(bodies[:25])) == 25  # 25 distinct jobs ...
    assert sorted(bodies[1:25]) == sorted(bodies[25:])  # ... 24 resubmitted
    assert wl.expected_stats() == {
        "misses": 4, "hits": 44, "jobs_deduped": 24, "throttled": 0}


# -- names -------------------------------------------------------------


def test_benchmark_json_passes_its_own_rules():
    spec = harness.load_benchmark()
    assert harness.validate_benchmark(spec) == []
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert spec["paths"] == ["benchmarks/e2e"]


def test_bad_names_and_counts_are_refused():
    good = harness.load_benchmark()
    for name in ("has space", "", "x" * 65, "-leading", "slash/name"):
        bad = copy.deepcopy(good)
        bad["per_layer"][0]["name"] = name
        assert harness.validate_benchmark(bad), name
    bad = copy.deepcopy(good)
    bad["workloads"][1]["name"] = bad["workloads"][0]["name"]
    assert any("twice" in e for e in harness.validate_benchmark(bad))
    bad = copy.deepcopy(good)
    bad["end_to_end"] = [dict(good["end_to_end"][0], name=f"m{i}") for i in range(17)]
    assert harness.validate_benchmark(bad)
    bad = copy.deepcopy(good)
    bad["per_layer"] = [dict(good["per_layer"][0], name=f"m{i}") for i in range(129)]
    assert harness.validate_benchmark(bad)
    bad = copy.deepcopy(good)
    bad["end_to_end"] = [m for m in bad["end_to_end"] if m["name"] != "setup_s"]
    assert any("setup_s" in e for e in harness.validate_benchmark(bad))


def test_every_metric_the_workloads_emit_is_declared():
    declared = {m["name"] for m in harness.load_benchmark()["per_layer"]}
    layers = "topology|core|network|traffic|obs|analysis|application|service|proc"
    emitted = set()
    for name in ("workloads.py", "child.py"):
        with open(os.path.join(HERE, name)) as f:
            emitted |= set(re.findall(rf'"((?:{layers})\.[a-z0-9_.]+)"', f.read()))
    assert emitted and emitted <= declared, sorted(emitted - declared)


# -- op accounting -----------------------------------------------------


def test_a_raising_op_is_counted_as_failed_not_dropped():
    def boom():
        raise RuntimeError("no route")

    ledger = harness.OpLedger()
    for op in (workloads.run_op("0/a", lambda: b"curve"),
               workloads.run_op("0/b", boom)):
        ledger.record(op.key, op.digest, op.error)
    assert (ledger.total, ledger.failed) == (2, 1)
    assert "RuntimeError: no route" in ledger.failures[0]


def test_a_byte_mismatching_repeat_is_counted_as_failed():
    ledger = harness.OpLedger()
    assert ledger.record("0/a", harness.sha256(b"curve"), None)
    assert ledger.record("0/a", harness.sha256(b"curve"), None)
    assert not ledger.record("0/a", harness.sha256(b"other"), None)
    assert ledger.record("1/a", harness.sha256(b"other"), None)  # another input
    assert (ledger.total, ledger.failed) == (4, 1)
    assert ledger.result_sha256(["0/a"]) == ledger.result_sha256(["0/a"])
    assert ledger.result_sha256(["0/a"]) != ledger.result_sha256(["1/a"])


def test_a_point_without_deliveries_fails_the_output_check():
    point = {"offered_rate": 0.3, "cycles": 40, "packets_delivered": 0,
             "accepted_rate": 0.0}
    with pytest.raises(ValueError):
        workloads.check_points(json.dumps({"points": [point]}).encode(), [0.3], 40)


# -- compare -----------------------------------------------------------


def _record(unit_s: float, failed: int = 0) -> dict:
    return {"seed": 1, "workloads": {"curve_small": {
        "metrics": {"unit_s": unit_s, "setup_s": 0.3, "peak_rss_mb": 99.0},
        "ops_total": 20, "ops_failed": failed, "result_sha256": "abc"}}}


def test_compare_passes_within_the_bound_and_fails_beyond():
    spec = harness.load_benchmark()
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "unit_s")
    lines, ok = compare.compare([_record(1.0)], [_record(1.0 + bound * 0.9)], spec)
    assert ok and any("PASS" in line for line in lines)
    _, ok = compare.compare([_record(1.0)], [_record(1.0 + bound * 1.1)], spec)
    assert not ok
    _, ok = compare.compare([_record(1.0)], [_record(0.5)], spec)  # better is fine
    assert ok
    _, ok = compare.compare([_record(1.0)], [_record(1.0, failed=1)], spec)
    assert not ok
    assert compare.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.1)
