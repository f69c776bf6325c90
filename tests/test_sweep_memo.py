"""Tests for the disk-backed sweep memo (repro.analysis.memo).

Three layers: the canonical key (stable across equivalent spec spellings,
sensitive to everything that changes a result, salted by code version), the
store itself (atomic round trips, corrupt/stale files degrade to misses),
and the warm-start behaviour of ``saturation_throughput`` (memoised rates
replay without simulating, the rate ladder truncates at the lowest cached
unstable rate, and the curve stays byte-identical to a cold run).
"""

import dataclasses
import json
import math
import os

from repro.analysis import SIM_SALT, SweepMemo, point_key
from repro.analysis.memo import memoisable
from repro.analysis.parallel import PointSpec, point_specs, run_points
from repro.analysis.sweep import (
    PointResult,
    saturation_throughput,
    sweep_load,
)
from repro.config import NetworkConfig, RouterConfig, SimConfig, default_config
from repro.core.registry import make_algorithm
from repro.faults.model import DegradedLink, LinkFault, RouterFault
from repro.topology.hyperx import HyperX
from repro.traffic.patterns import UniformRandom
from repro.traffic.sizes import UniformSize


def _spec(**overrides) -> PointSpec:
    base = dict(
        widths=(3, 3),
        terminals_per_router=2,
        algorithm="OmniWAR",
        pattern="UR",
        rate=0.2,
        total_cycles=1000,
        seed=1,
    )
    base.update(overrides)
    return PointSpec(**base)


def _result(rate: float, stable: bool = True, latency: float = 20.0):
    return PointResult(
        offered_rate=rate,
        stable=stable,
        reason="" if stable else "backlog",
        mean_latency=latency,
        p99_latency=latency * 2,
        accepted_rate=rate if stable else rate * 0.7,
        mean_hops=2.0,
        mean_deroutes=0.1,
        packets_delivered=500,
        cycles=1000,
        routes_computed=900,
        route_stalls=3,
        wall_clock_s=1.5,
    )


# ---------------------------------------------------------------------------
# Canonical key
# ---------------------------------------------------------------------------


def test_point_key_is_stable_and_hex():
    k1, k2 = point_key(_spec()), point_key(_spec())
    assert k1 == k2
    assert len(k1) == 64 and all(c in "0123456789abcdef" for c in k1)


#: Digests re-recorded when ``NetworkConfig`` lost its two fields that
#: cannot change a result (``ejection_rate``, ``track_vc_trace``): the
#: config is expanded field by field, so that re-keyed every entry once.  A
#: reordered field or a changed int/str coercion in the canonical form would
#: silently empty every memo directory; a deliberate semantic change bumps
#: ``SIM_SALT`` and re-records these.
PINNED_PRISTINE = PointSpec(
    widths=(3, 3), terminals_per_router=2, algorithm="DimWAR", pattern="UR",
    rate=0.3, total_cycles=500, seed=7,
)
PINNED_FAULTED = PointSpec(
    widths=(4, 4), terminals_per_router=1, algorithm="OmniWAR", pattern="BC",
    rate=0.25, total_cycles=400, seed=3,
    cfg=SimConfig(
        router=RouterConfig(num_vcs=6, buffer_depth=12),
        network=NetworkConfig(channel_latency_rr=5), seed=99,
    ),
    algorithm_kwargs=(("deroutes", 1),),
    faults=(LinkFault(0, 0), RouterFault(5), DegradedLink(9, 2, 4)),
)


def test_point_key_digests_are_pinned():
    assert SIM_SALT == "repro-sim/2"
    assert point_key(PINNED_PRISTINE) == (
        "a61b86ebadf91eb648c655dd7ef63b425eb0aff1a2c31c2c72cda1bbe8272549"
    )
    assert point_key(PINNED_FAULTED) == (
        "2b2b2456830b1d24111e9f381d19ae247844bfc60edec11b7f4efa52a2cbc1d5"
    )


def test_point_key_normalizes_default_spellings():
    # cfg=None means default_config(); size_dist=None means uniform1-16 —
    # both spellings must land on the same memo entry.
    assert point_key(_spec(cfg=None)) == point_key(_spec(cfg=default_config()))
    assert point_key(_spec(size_dist=None)) == point_key(
        _spec(size_dist=UniformSize(1, 16))
    )


def test_point_key_separates_what_changes_results():
    base = point_key(_spec())
    assert point_key(_spec(rate=0.25)) != base
    assert point_key(_spec(seed=2)) != base
    assert point_key(_spec(total_cycles=2000)) != base
    assert point_key(_spec(algorithm="DimWAR")) != base
    assert point_key(_spec(size_dist=UniformSize(1, 8))) != base
    assert point_key(_spec(), salt="repro-sim/999") != base


def test_check_and_trace_specs_are_unmemoisable(tmp_path):
    # Sanitized/traced runs exist for their side effects — a cache hit
    # would silently skip the audit or the trace artifact.
    plain = _spec()
    checked = dataclasses.replace(plain, check=True)
    traced = dataclasses.replace(plain, trace=object())
    assert memoisable(plain)
    assert not memoisable(checked) and not memoisable(traced)

    memo = SweepMemo(root=str(tmp_path))
    assert memo.put(checked, _result(0.2)) is None
    assert memo.get(checked) is None
    assert memo.writes == 0 and memo.hits == 0
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_put_get_round_trip_zeroes_wall_clock(tmp_path):
    memo = SweepMemo(root=str(tmp_path))
    spec = _spec()
    stored = _result(0.2)
    path = memo.put(spec, stored)
    assert path is not None and os.path.exists(path)
    got = memo.get(spec)
    assert got == dataclasses.replace(stored, wall_clock_s=0.0)
    assert (memo.hits, memo.misses, memo.writes) == (1, 0, 1)


def test_round_trip_preserves_nan_latency(tmp_path):
    # An unstable point measured from an empty window carries NaN latencies;
    # the store must not mangle them (JSON NaN is non-standard but allowed).
    memo = SweepMemo(root=str(tmp_path))
    spec = _spec(rate=0.9)
    memo.put(spec, _result(0.9, stable=False, latency=math.nan))
    got = memo.get(spec)
    assert got is not None
    assert math.isnan(got.mean_latency) and not got.stable


def test_absent_and_corrupt_entries_miss(tmp_path):
    memo = SweepMemo(root=str(tmp_path))
    spec = _spec()
    assert memo.get(spec) is None  # absent
    memo.put(spec, _result(0.2))
    path = memo._path(point_key(spec, memo.salt))
    with open(path, "w") as f:
        f.write("{ not json")
    assert memo.get(spec) is None  # corrupt -> miss, not an exception
    with open(path, "w") as f:
        json.dump({"schema": "repro-memo/999", "key": "x"}, f)
    assert memo.get(spec) is None  # wrong schema/key -> miss
    assert memo.misses == 3 and memo.hits == 0


def test_stale_salt_invalidates(tmp_path):
    old = SweepMemo(root=str(tmp_path), salt=SIM_SALT)
    old.put(_spec(), _result(0.2))
    bumped = SweepMemo(root=str(tmp_path), salt=SIM_SALT + "-bumped")
    assert bumped.get(_spec()) is None
    # The archived entry is untouched — rolling back the salt finds it again.
    assert SweepMemo(root=str(tmp_path), salt=SIM_SALT).get(_spec()) is not None


def test_warm_start_bounds_bracket(tmp_path):
    memo = SweepMemo(root=str(tmp_path))
    rates = [0.1, 0.2, 0.3, 0.4, 0.5]
    specs = [_spec(rate=r) for r in rates]
    memo.put(specs[0], _result(0.1, stable=True))
    memo.put(specs[1], _result(0.2, stable=True))
    memo.put(specs[3], _result(0.4, stable=False))
    hits, misses = memo.hits, memo.misses
    assert memo.warm_start_bounds(specs) == (1, 3)
    # Probing is not replaying: the hit/miss statistics are untouched.
    assert (memo.hits, memo.misses) == (hits, misses)
    assert SweepMemo(root=str(tmp_path / "empty")).warm_start_bounds(specs) \
        == (None, None)


# ---------------------------------------------------------------------------
# Warm-started saturation search (fake simulator via monkeypatched run_point)
# ---------------------------------------------------------------------------


def _fake_run_point_factory(calls, saturates_at=0.35):
    def fake_run_point(spec):
        calls.append(spec.rate)
        return _result(spec.rate, stable=spec.rate < saturates_at)

    return fake_run_point


def _strip(points):
    """Host wall-clock is excluded from result identity (never serialized)."""
    return [dataclasses.replace(p, wall_clock_s=0.0) for p in points]


def _scenario():
    topo = HyperX((3, 3), 2)
    return topo, make_algorithm("OmniWAR", topo), UniformRandom(topo.num_terminals)


def test_saturation_warm_start_replays_without_simulating(tmp_path, monkeypatch):
    topo, algo, patt = _scenario()
    calls = []
    monkeypatch.setattr(
        "repro.analysis.parallel.run_point", _fake_run_point_factory(calls)
    )
    memo = SweepMemo(root=str(tmp_path))
    cold = saturation_throughput(topo, algo, patt, granularity=0.1, memo=memo)
    # Ascending 0.1 steps, saturating at 0.35 -> 0.1..0.3 stable, stop at 0.4.
    assert calls == [0.1, 0.2, 0.3, 0.4]
    assert [p.stable for p in cold.points] == [True, True, True, False]
    assert memo.writes == 4

    calls.clear()
    warm = saturation_throughput(topo, algo, patt, granularity=0.1, memo=memo)
    assert calls == []  # every point replayed from disk
    assert _strip(warm.points) == _strip(cold.points)  # identical curve
    assert memo.hits >= 4


def test_saturation_warm_start_simulates_only_the_holes(tmp_path, monkeypatch):
    topo, algo, patt = _scenario()
    calls = []
    monkeypatch.setattr(
        "repro.analysis.parallel.run_point", _fake_run_point_factory(calls)
    )
    memo = SweepMemo(root=str(tmp_path))
    cold = saturation_throughput(topo, algo, patt, granularity=0.1, memo=memo)

    # Punch a hole at rate 0.2: only that rate should be re-simulated, and
    # the ladder still truncates at the cached-unstable 0.4.
    specs = point_specs(topo, algo, patt, [0.2])
    os.remove(memo._path(point_key(specs[0], memo.salt)))
    calls.clear()
    warm = saturation_throughput(topo, algo, patt, granularity=0.1, memo=memo)
    assert calls == [0.2]
    assert _strip(warm.points) == _strip(cold.points)


def test_run_points_parallel_consumes_memo_hits(tmp_path, monkeypatch):
    # In pool mode a hit must short-circuit the worker; with every point
    # memoised the pool does no work at all, so the (unpicklable,
    # monkeypatched-away) fake run_point is never reached.
    topo, algo, patt = _scenario()
    calls = []
    monkeypatch.setattr(
        "repro.analysis.parallel.run_point", _fake_run_point_factory(calls)
    )
    memo = SweepMemo(root=str(tmp_path))
    rates = [0.1, 0.2, 0.3]
    specs = point_specs(topo, algo, patt, rates)
    serial = run_points(specs, workers=1, memo=memo)
    calls.clear()
    pooled = run_points(specs, workers=2, memo=memo)
    assert calls == []
    assert _strip(pooled) == _strip(serial)


def test_memo_warm_parallel_sweep_builds_no_pool(tmp_path, monkeypatch):
    # A fully memoised sweep answers from disk: the pool is built on the
    # first miss, so it is never built here.
    topo, algo, patt = _scenario()
    monkeypatch.setattr(
        "repro.analysis.parallel.run_point", _fake_run_point_factory([])
    )
    memo = SweepMemo(root=str(tmp_path))
    specs = point_specs(topo, algo, patt, [0.1, 0.2, 0.3])
    serial = run_points(specs, workers=1, memo=memo)

    def no_pool(*args, **kwargs):
        raise AssertionError("a memo-warm sweep built a process pool")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    pooled = run_points(specs, workers=2, memo=memo)
    assert _strip(pooled) == _strip(serial)


def test_failed_memo_write_keeps_the_sweep_alive(tmp_path):
    # A memo root that is a regular file makes every put fail in makedirs,
    # as a full or read-only directory would: the finished points must
    # still come back, and the failures must be counted.
    topo, algo, patt = _scenario()
    blocked = tmp_path / "not_a_dir"
    blocked.write_text("")
    memo = SweepMemo(root=str(blocked))
    rates = [0.1, 0.2]
    plain = sweep_load(topo, algo, patt, rates, total_cycles=1000, workers=1)
    kept = sweep_load(topo, algo, patt, rates, total_cycles=1000, memo=memo)
    assert kept.to_json() == plain.to_json()
    assert memo.write_errors == len(kept.points) == 2
    assert memo.writes == 0 and os.listdir(tmp_path) == ["not_a_dir"]


# ---------------------------------------------------------------------------
# End to end against the real simulator (one small grid, run twice)
# ---------------------------------------------------------------------------


def test_sweep_load_memo_end_to_end_byte_identical(tmp_path):
    topo, algo, patt = _scenario()
    rates = [0.1, 0.2]
    kwargs = dict(total_cycles=1000, seed=1)
    plain = sweep_load(topo, algo, patt, rates, **kwargs)

    memo = SweepMemo(root=str(tmp_path))
    cold = sweep_load(topo, algo, patt, rates, memo=memo, **kwargs)
    warm = sweep_load(topo, algo, patt, rates, memo=memo, **kwargs)

    assert _strip(cold.points) == _strip(plain.points)
    assert _strip(warm.points) == _strip(cold.points)
    assert memo.writes == len(rates)
    assert memo.hits == len(rates)
