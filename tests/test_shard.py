"""Tests for the sharded multi-process engine (repro.network.shard).

Sharding is a pure execution optimisation: the same simulation split over
N worker processes must produce the *same bytes* as one process.  These
tests pin that contract:

* partitioning — :class:`ShardPlan` slices the widest dimension into
  contiguous blocks that cover every router exactly once;
* equivalence — fixed scenarios (pristine, statically faulted, a mid-run
  fault schedule) and Hypothesis-drawn loads/seeds/shard counts all
  produce results identical to the single-process path;
* memoisation — ``shards`` is an execution detail: specs differing only
  in shard count share one memo key, so a point memoised unsharded
  replays for a sharded request (and vice versa);
* plumbing — ``run_point`` dispatch, fallback reasons, and the CLI
  ``--shards`` flag.
"""

import dataclasses
import multiprocessing
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.memo import SweepMemo, point_key
from repro.analysis.parallel import PointSpec, run_point
from repro.cli import main
from repro.config import default_config
from repro.core.registry import make_algorithm
from repro.faults.degraded import DegradedTopology
from repro.faults.inject import FaultInjector
from repro.faults.model import FaultEvent, FaultSchedule, FaultSet, LinkFault
from repro.network.network import Network
from repro.network.shard import (
    ShardEngine,
    ShardPlan,
    run_point_sharded,
    shard_fallback_reason,
)
from repro.network.simulator import Simulator
from repro.network.stats import PacketStats
from repro.obs import TraceOptions
from repro.topology.hyperx import HyperX
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import pattern_by_name
from repro.traffic.sizes import UniformSize

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the shard engine forks its workers",
)

SPEC = PointSpec(
    widths=(4, 4), terminals_per_router=1, algorithm="OmniWAR",
    pattern="UR", rate=0.3, total_cycles=800, seed=2,
)


def _no_clock(result):
    """Host timing is the one legitimately nondeterministic field."""
    return dataclasses.replace(result, wall_clock_s=0.0)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------


def test_plan_blocks_cover_widest_dimension():
    topo = HyperX((3, 5), 1)
    plan = ShardPlan(topo, 2)
    assert plan.dim == 1  # the widest dimension
    assert plan.blocks == ((0, 3), (3, 5))
    owned = [plan.owned_routers(s) for s in range(2)]
    assert owned[0] | owned[1] == frozenset(range(topo.num_routers))
    assert not owned[0] & owned[1]
    for s in range(2):
        for r in owned[s]:
            assert plan.shard_of_router(r) == s


def test_plan_rejects_unplaceable_shard_counts():
    topo = HyperX((2, 3), 1)
    with pytest.raises(ValueError):
        ShardPlan(topo, 4)  # widest dimension has only 3 coordinates
    with pytest.raises(ValueError):
        ShardPlan(topo, 0)


# ----------------------------------------------------------------------
# Equivalence: sharded == unsharded, byte for byte
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_run_point_dispatch_matches_unsharded(shards):
    base = _no_clock(run_point(SPEC))
    via_dispatch = run_point(dataclasses.replace(SPEC, shards=shards))
    assert _no_clock(via_dispatch) == base


def test_sharded_matches_unsharded_with_static_faults():
    spec = dataclasses.replace(
        SPEC, algorithm="FTHX", rate=0.2, seed=3, faults=(LinkFault(0, 0),)
    )
    base = _no_clock(run_point(spec))
    for shards in (2, 4):
        got = run_point_sharded(dataclasses.replace(spec, shards=shards))
        assert _no_clock(got) == base


def _unsharded_report(spec, schedule, cycles):
    """The single-process twin of a shard worker's finish report.

    Registers the fault injector *before* the traffic process, matching
    the worker's order, so fault flips land before the cycle's injections
    in both runs.
    """
    topo = HyperX(spec.widths, spec.terminals_per_router)
    if spec.faults or schedule is not None:
        topo = DegradedTopology(topo, FaultSet(list(spec.faults)))
    net = Network(topo, make_algorithm(spec.algorithm, topo), default_config())
    sim = Simulator(net)
    if schedule is not None:
        sim.processes.append(FaultInjector(net, schedule))
    sim.processes.append(SyntheticTraffic(
        net, pattern_by_name(spec.pattern, topo), spec.rate,
        spec.size_dist or UniformSize(1, 16), seed=spec.seed,
    ))
    stats = PacketStats()
    for t in net.terminals:
        t.delivery_listeners.append(stats.on_delivery)
    sim.run(cycles)
    return {
        "samples": sorted(
            (s.create_cycle, s.latency, s.hops, s.deroutes)
            for s in stats.samples
        ),
        "packets_delivered": stats.packets_delivered,
        "flits_delivered": stats.flits_delivered,
        "ejected": net.total_ejected_flits(),
        "backlog": net.total_backlog_flits(),
    }


def _merged_report(spec, schedule, cycles, shards):
    with ShardEngine(spec, shards, schedule=schedule) as engine:
        engine.run(cycles)
        reports = engine.finish()
    return {
        "samples": sorted(t for rep in reports for t in rep["samples"]),
        "packets_delivered": sum(r["packets_delivered"] for r in reports),
        "flits_delivered": sum(r["flits_delivered"] for r in reports),
        "ejected": sum(r["ejected"] for r in reports),
        "backlog": sum(r["backlog"] for r in reports),
    }


def test_sharded_matches_unsharded_mid_run_fault_schedule():
    schedule = FaultSchedule([FaultEvent(200, "link", 1, 0)])
    spec = dataclasses.replace(SPEC, algorithm="FTHX", rate=0.2, seed=5)
    base = _unsharded_report(spec, schedule, spec.total_cycles)
    assert base["packets_delivered"] > 0
    for shards in (2, 4):
        got = _merged_report(spec, schedule, spec.total_cycles, shards)
        assert got == base


@settings(max_examples=6, deadline=None)
@given(
    rate=st.sampled_from([0.1, 0.25, 0.45]),
    seed=st.integers(min_value=0, max_value=50),
    shards=st.sampled_from([2, 3, 4]),
    algorithm=st.sampled_from(["DOR", "OmniWAR"]),
)
def test_shard_count_invariance_property(rate, seed, shards, algorithm):
    spec = dataclasses.replace(
        SPEC, algorithm=algorithm, rate=rate, seed=seed, total_cycles=400
    )
    base = _unsharded_report(spec, None, spec.total_cycles)
    assert _merged_report(spec, None, spec.total_cycles, shards) == base


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50),
    flip_cycle=st.sampled_from([64, 150, 333]),
    shards=st.sampled_from([2, 4]),
)
def test_shard_count_invariance_with_mid_run_fault(seed, flip_cycle, shards):
    schedule = FaultSchedule([FaultEvent(flip_cycle, "link", 2, 1)])
    spec = dataclasses.replace(
        SPEC, algorithm="VCFree", rate=0.2, seed=seed, total_cycles=400
    )
    base = _unsharded_report(spec, schedule, spec.total_cycles)
    assert _merged_report(spec, schedule, spec.total_cycles, shards) == base


# ----------------------------------------------------------------------
# Memoisation: shards is not a simulation parameter
# ----------------------------------------------------------------------


def test_memo_key_ignores_shard_count(tmp_path):
    specs = [dataclasses.replace(SPEC, shards=n) for n in (0, 1, 4)]
    assert len({point_key(s) for s in specs}) == 1

    memo = SweepMemo(root=str(tmp_path))
    result = run_point(SPEC)
    memo.put(SPEC, result)
    replayed = memo.get(dataclasses.replace(SPEC, shards=4))
    assert memo.hits == 1
    assert _no_clock(replayed) == _no_clock(result)


# ----------------------------------------------------------------------
# Fallbacks and CLI plumbing
# ----------------------------------------------------------------------


def test_fallback_reasons():
    ok = dataclasses.replace(SPEC, shards=2)
    assert shard_fallback_reason(ok) is None
    assert "sanitizer" in shard_fallback_reason(
        dataclasses.replace(ok, check=True)
    )
    assert "single-process" in shard_fallback_reason(
        dataclasses.replace(ok, trace=TraceOptions())
    )
    assert "wide" in shard_fallback_reason(
        dataclasses.replace(ok, shards=5)  # widest dimension is 4
    )
    # An unplaceable shard count falls back rather than raising: the
    # dispatch in run_point consults the reason before building a plan.
    fell_back = run_point(dataclasses.replace(ok, shards=5))
    assert _no_clock(fell_back) == _no_clock(run_point(SPEC))


def _hung_worker(conn, spec, owned, schedule, trace=None):
    """Handshakes like a real shard worker, then never answers again."""
    conn.send(("ok", ([], [])))
    time.sleep(120)


def test_hung_worker_raises_named_error_in_bounded_time(monkeypatch):
    from repro.network import shard

    # Workers are forked, so they inherit both patches.
    monkeypatch.setattr(shard, "_REPLY_DEADLINE_S", 0.3)
    monkeypatch.setattr(shard, "_shard_worker", _hung_worker)
    engine = ShardEngine(SPEC, 2)
    try:
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=r"shard worker 0 .*'chunk'"):
            engine.run(4)
        assert time.monotonic() - started < 30
        assert not any(proc.is_alive() for proc in engine._procs)
    finally:
        engine.close()


@pytest.mark.parametrize("widths,cycles", [
    (["3", "3"], "400"),
    (["4", "4", "4"], "600"),  # a 3-D partition
], ids=["3x3", "4x4x4"])
def test_cli_sweep_shards_flag(capsys, widths, cycles):
    rc = main([
        "sweep", "--algorithm", "OmniWAR", "--widths", *widths,
        "--rates", "0.1", "--cycles", cycles, "--shards", "2",
    ])
    assert rc == 0
    assert "OmniWAR on UR" in capsys.readouterr().out


def test_cli_sweep_rejects_negative_shards(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "sweep", "--algorithm", "OmniWAR", "--widths", "3", "3",
            "--rates", "0.1", "--cycles", "400", "--shards", "-1",
        ])
    assert exc.value.code == 2
    assert "--shards" in capsys.readouterr().err
