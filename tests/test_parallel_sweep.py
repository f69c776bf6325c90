"""Tests for the parallel sweep engine: spec round-tripping, determinism
across worker counts, early-stop truncation, and telemetry plumbing."""

import json
import pickle

import pytest

from repro.analysis.parallel import (
    PointSpec,
    SweepProgress,
    point_specs,
    run_point,
    run_points,
)
from repro.analysis.sweep import SweepResult, measure_point, sweep_load
from repro.config import default_config
from repro.core.registry import algorithm_names, make_algorithm
from repro.faults.degraded import DegradedTopology
from repro.faults.model import DegradedLink, FaultSet, LinkFault, random_link_faults
from repro.topology.hyperx import HyperX
from repro.topology.torus import Torus
from repro.traffic.patterns import BitComplement, UniformRandom
from repro.traffic.sizes import UniformSize


def _setup():
    topo = HyperX((3, 3), 2)
    return topo, UniformRandom(topo.num_terminals)


# ---------------------------------------------------------------------------
# Spec construction and validation
# ---------------------------------------------------------------------------


def test_point_specs_round_trip_fields():
    topo, pat = _setup()
    algo = make_algorithm("DimWAR", topo)
    specs = point_specs(topo, algo, pat, [0.1, 0.3], total_cycles=1200, seed=7)
    assert [s.rate for s in specs] == [0.1, 0.3]
    assert all(s.widths == (3, 3) and s.terminals_per_router == 2 for s in specs)
    assert all(s.algorithm == "DimWAR" and s.pattern == "UR" for s in specs)
    assert all(s.seed == 7 and s.total_cycles == 1200 for s in specs)


def test_point_specs_are_picklable():
    topo, pat = _setup()
    algo = make_algorithm("OmniWAR", topo, deroutes=1)
    (spec,) = point_specs(topo, algo, pat, [0.2])
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert dict(clone.algorithm_kwargs) == {"deroutes": 1}


def test_point_specs_rejects_non_hyperx():
    topo = Torus((3, 3), 2)
    from repro.core.torus_routing import TorusDOR

    with pytest.raises(ValueError, match="HyperX"):
        point_specs(topo, TorusDOR(topo), UniformRandom(topo.num_terminals), [0.2])


def test_run_points_rejects_bad_workers():
    with pytest.raises(ValueError):
        run_points([], workers=0)
    assert run_points([], workers=1) == []


@pytest.mark.parametrize("name", algorithm_names())
def test_run_point_matches_measure_point(name):
    """A spec reconstructed in-process reproduces the live-object result,
    and so does the same spec run again: the second run resets the
    network the first one left in the process's slot."""
    topo, pat = _setup()
    algo = make_algorithm(name, topo)
    direct = measure_point(topo, algo, pat, 0.2, total_cycles=1200, seed=3)
    (spec,) = point_specs(topo, algo, pat, [0.2], total_cycles=1200, seed=3)
    want = SweepResult(name, "UR", [direct]).to_json()
    for _ in range(2):
        assert SweepResult(name, "UR", [run_point(spec)]).to_json() == want


# ---------------------------------------------------------------------------
# Serial-vs-parallel determinism (the tentpole guarantee)
# ---------------------------------------------------------------------------


def _sweep(workers):
    topo = HyperX((3, 3), 2)
    algo = make_algorithm("DOR", topo)
    pattern = BitComplement(topo.num_terminals)
    return sweep_load(
        topo, algo, pattern, rates=[0.2, 0.4, 0.6, 0.8, 1.0],
        total_cycles=2000, seed=3, workers=workers,
    )


def test_workers_1_and_4_byte_identical_json():
    serial = _sweep(workers=1)
    parallel = _sweep(workers=4)
    assert serial.to_json() == parallel.to_json()
    # The sweep saturates mid-list, so this also exercises the early-stop
    # path: speculatively dispatched rates past saturation are discarded.
    assert len(serial.points) < 5
    assert not serial.points[-1].stable
    assert all(p.stable for p in serial.points[:-1])


def test_wall_clock_excluded_from_json():
    sweep = _sweep(workers=1)
    assert all(p.wall_clock_s > 0 for p in sweep.points)
    data = json.loads(sweep.to_json())
    assert all("wall_clock_s" not in p for p in data["points"])
    # Telemetry counters, by contrast, are deterministic and serialized.
    assert all(p["routes_computed"] > 0 for p in data["points"])


def test_progress_callback_ordered():
    topo, pat = _setup()
    algo = make_algorithm("DimWAR", topo)
    seen = []
    sweep_load(
        topo, algo, pat, rates=[0.3, 0.1, 0.2], total_cycles=1200, seed=3,
        workers=1, progress=lambda i, n, p: seen.append((i, n, p.offered_rate)),
    )
    assert seen == [(0, 3, 0.1), (1, 3, 0.2), (2, 3, 0.3)]


def test_sweep_progress_reporter_lines():
    lines = []
    reporter = SweepProgress(label="t", write=lines.append)
    topo, pat = _setup()
    algo = make_algorithm("DimWAR", topo)
    specs = point_specs(topo, algo, pat, [0.2], total_cycles=1200, seed=3)
    run_points(specs, workers=1, progress=reporter)
    assert len(lines) == 1
    assert "point 1/1" in lines[0] and "rate=0.200" in lines[0]


# ---------------------------------------------------------------------------
# Faulted sweeps: declarative FaultSets round-trip into worker processes
# ---------------------------------------------------------------------------


def _faulted_sweep(workers, check=False):
    base = HyperX((4, 4), 1)
    topo = DegradedTopology(base, random_link_faults(base, 3, seed=7))
    algo = make_algorithm("DimWAR", topo)
    pattern = UniformRandom(topo.num_terminals)
    return sweep_load(
        topo, algo, pattern, rates=[0.1, 0.2, 0.3],
        total_cycles=1000, seed=3, workers=workers, check=check,
    )


def test_faulted_sweep_serial_vs_workers_4_byte_identical():
    serial = _faulted_sweep(workers=None)
    parallel = _faulted_sweep(workers=4)
    assert serial.to_json() == parallel.to_json()


def test_faulted_spec_round_trip_matches_live_objects():
    base = HyperX((3, 3), 1)
    fset = FaultSet().fail_link(0, 0).fail_link(4, 1)
    topo = DegradedTopology(base, fset)
    algo = make_algorithm("OmniWAR", topo)
    pattern = UniformRandom(topo.num_terminals)
    direct = measure_point(topo, algo, pattern, 0.2, total_cycles=800, seed=3)
    (spec,) = point_specs(topo, algo, pattern, [0.2], total_cycles=800, seed=3)
    assert spec.faults == tuple(fset)
    assert spec.widths == (3, 3)  # unwrapped to the pristine base
    via_spec = run_point(spec)
    assert via_spec.mean_latency == direct.mean_latency
    assert via_spec.packets_delivered == direct.packets_delivered


def test_point_specs_rejects_faultstate_built_topology():
    base = HyperX((3, 3), 1)
    state = FaultSet().fail_link(0, 0).resolve(base)
    topo = DegradedTopology(base, state)
    algo = make_algorithm("DimWAR", topo)
    with pytest.raises(ValueError, match="FaultState"):
        point_specs(topo, algo, UniformRandom(topo.num_terminals), [0.2])


def test_point_specs_rejects_epoch_drifted_topology():
    base = HyperX((3, 3), 1)
    topo = DegradedTopology(base, FaultSet().fail_link(0, 0))
    algo = make_algorithm("DimWAR", topo)
    topo.faults.fail_link(4, 1)  # mid-run injector mutation
    with pytest.raises(ValueError, match="mutated"):
        point_specs(topo, algo, UniformRandom(topo.num_terminals), [0.2])


def test_point_specs_carry_check_flag():
    topo, pat = _setup()
    algo = make_algorithm("DimWAR", topo)
    specs = point_specs(topo, algo, pat, [0.1, 0.2], check=True)
    assert all(s.check for s in specs)
    default = point_specs(topo, algo, pat, [0.1])
    assert not default[0].check


def test_removed_options_are_type_errors():
    """``monitor`` made serial != parallel and ``speculation`` had no
    caller; both are gone from every path, not silently swallowed."""
    from repro.network.stats import LatencyMonitor

    topo, pat = _setup()
    algo = make_algorithm("DimWAR", topo)
    for workers in (None, 2):
        with pytest.raises(TypeError, match="monitor"):
            sweep_load(
                topo, algo, pat, rates=[0.2], total_cycles=200,
                workers=workers, monitor=LatencyMonitor(),
            )
    with pytest.raises(TypeError, match="speculation"):
        run_points(point_specs(topo, algo, pat, [0.2]), speculation=4)


_ROUND_TRIP_FAULTS = (LinkFault(0, 0), DegradedLink(4, 1, 2))


@pytest.mark.parametrize("faults", [(), _ROUND_TRIP_FAULTS],
                         ids=["pristine", "faulted"])
@pytest.mark.parametrize("algorithm", algorithm_names())
def test_spec_build_and_point_specs_are_inverses(algorithm, faults):
    """``PointSpec.build`` is names -> objects, ``point_specs`` objects ->
    names; a spec must survive the round trip field for field."""
    spec = PointSpec(
        (3, 3, 3), 2, algorithm, "URBz", 0.2, total_cycles=700, seed=9,
        cfg=default_config(seed=77), size_dist=UniformSize(2, 5),
        faults=faults, check=True, shards=2,
    )
    kwargs = dict(
        total_cycles=700, seed=9, cfg=spec.cfg, size_dist=spec.size_dist,
        check=True, shards=2,
    )
    assert point_specs(*spec.build(), [spec.rate], **kwargs)[0] == spec
    # a mid-run schedule's empty wrapper is not a declared fault
    topo = spec.build(mid_run_faults=True)[0]
    assert isinstance(topo, DegradedTopology)
    assert tuple(topo.faultset) == faults


def test_spec_build_round_trips_algorithm_kwargs():
    spec = PointSpec((3, 3), 2, "OmniWAR", "UR", 0.2,
                     algorithm_kwargs=(("deroutes", 1),))
    assert spec.build()[1].deroutes == 1
    assert point_specs(*spec.build(), [0.2])[0] == spec
