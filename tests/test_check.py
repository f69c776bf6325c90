"""Tests for the repro.check runtime sanitizer and differential oracles.

Three layers, mirroring the package self-test:

* negative controls — sanitized clean runs produce zero findings, and the
  hooks attach/detach without residue;
* mutation canaries — every deliberately seeded bug (credit leak, flit
  drop, cyclic wait, throttled stall, illegal VC class, tampered replay)
  must be caught by the *right* checker;
* plumbing — the ``check`` flag flows through ``measure_point``,
  ``sweep_load`` (both serial and spec paths), and the CLI.
"""

import pytest

from repro.analysis.sweep import measure_point, sweep_load
from repro.check import Sanitizer, SanitizerError
from repro.check.oracle import (
    compare_sweeps,
    diff_pristine_empty_faultset,
    diff_skip_on_off,
)
from repro.check.selftest import CANARIES, _build_sim
from repro.config import default_config
from repro.core.registry import make_algorithm
from repro.network.buffers import VcRoute
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.topology.hyperx import HyperX
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import UniformRandom


# ---------------------------------------------------------------------------
# Negative controls: clean runs stay clean
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["DOR", "DimWAR", "OmniWAR"])
def test_sanitized_clean_run_no_findings(algorithm):
    topo = HyperX((3, 3), 1)
    algo = make_algorithm(algorithm, topo)
    point = measure_point(
        topo, algo, UniformRandom(topo.num_terminals), 0.2,
        total_cycles=600, seed=2, check=True,
    )
    assert point.packets_delivered > 0


def test_check_flag_does_not_change_results():
    """The sanitizer observes; the measured numbers must be identical."""
    def run(check):
        topo = HyperX((3, 3), 1)
        algo = make_algorithm("DimWAR", topo)
        return measure_point(
            topo, algo, UniformRandom(topo.num_terminals), 0.2,
            total_cycles=600, seed=2, check=check,
        )

    a, b = run(False), run(True)
    assert a.mean_latency == b.mean_latency
    assert a.packets_delivered == b.packets_delivered
    assert a.accepted_rate == b.accepted_rate


def test_attach_detach_leaves_no_residue():
    sim, net, _ = _build_sim("OmniWAR")
    san = Sanitizer(sim).attach()
    assert san in sim.processes
    assert all(r._route_hook == san._on_route for r in net.routers)
    with pytest.raises(RuntimeError, match="already attached"):
        san.attach()
    san.detach()
    assert san not in sim.processes
    assert all(r._route_hook is None for r in net.routers)
    san.detach()  # idempotent


def test_audit_telemetry_counts():
    sim, _, _ = _build_sim("OmniWAR", rate=0.3)
    san = Sanitizer(sim, window=32).attach()
    sim.run(320)
    assert san.audits >= 10
    assert san.routes_checked > 0


def test_final_check_quiescent_after_drain():
    sim, net, _ = _build_sim("DimWAR", rate=0.2)
    san = Sanitizer(sim).attach()
    traffic = next(p for p in sim.processes if isinstance(p, SyntheticTraffic))
    sim.run(300)
    traffic.stop()
    assert sim.drain(max_cycles=100_000)
    san.final_check(require_quiescent=True)


def test_final_check_quiescent_rejects_busy_network():
    sim, _, _ = _build_sim("DimWAR", rate=0.3)
    san = Sanitizer(sim).attach()
    sim.run(200)  # injection still on: traffic in flight
    with pytest.raises(SanitizerError):
        san.final_check(require_quiescent=True)


def test_parameter_validation():
    sim, _, _ = _build_sim("DimWAR")
    with pytest.raises(ValueError, match="window"):
        Sanitizer(sim, window=0)
    with pytest.raises(ValueError, match="horizon"):
        Sanitizer(sim, window=64, stall_horizon=32)


# ---------------------------------------------------------------------------
# Mutation canaries: every checker catches its seeded bug
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,canary", CANARIES, ids=[n.replace(" ", "-") for n, _ in CANARIES]
)
def test_canary_fires_the_right_checker(name, canary):
    ok, detail = canary()
    assert ok, f"canary {name!r}: {detail}"


def test_wait_for_graph_finds_hand_built_cycle():
    """Direct unit test of the deadlock graph, independent of the horizon."""
    sim, net, _ = _build_sim("DimWAR", rate=0.0)
    san = Sanitizer(sim)
    rec = next(r for r in net.links if r.kind == "rr")
    (r0, p0), (r1, p1) = rec.src, rec.dst
    a, b = net.routers[r0], net.routers[r1]
    a.routes[p0 * a.num_vcs] = VcRoute(p0, 1)
    b.routes[p1 * b.num_vcs + 1] = VcRoute(p1, 0)
    cycle = san.find_wait_cycle()
    assert cycle is not None
    assert set(cycle) == {(r0, p0, 0), (r1, p1, 1)}


def test_wait_for_graph_clean_on_live_traffic():
    sim, _, _ = _build_sim("DimWAR", rate=0.3)
    san = Sanitizer(sim).attach()
    sim.run(400)  # routes commit and complete; the graph must stay acyclic
    assert san.find_wait_cycle() is None


# ---------------------------------------------------------------------------
# Differential oracles
# ---------------------------------------------------------------------------


def test_comparator_identity():
    topo = HyperX((2, 2), 1)
    algo = make_algorithm("DimWAR", topo)
    sweep = sweep_load(
        topo, algo, UniformRandom(4), [0.1], total_cycles=300, seed=1
    )
    report = compare_sweeps("self", sweep, sweep)
    assert report.ok and report.detail == "identical"


def test_pristine_empty_oracle_rejects_dor():
    with pytest.raises(ValueError, match="DOR"):
        diff_pristine_empty_faultset(algorithm="DOR")


def test_pristine_empty_oracle_small():
    report = diff_pristine_empty_faultset(
        widths=(2, 2), rates=(0.1,), total_cycles=300
    )
    assert report.ok, report.detail


def test_skip_oracle_arms_take_different_steppings(monkeypatch):
    """No flag selects the stepping any more, so pin that the oracle's two
    arms really differ: plain sweep compressed, check=True sweep per-cycle.
    Were the sanitizer ever to answer next_wakeup the oracle would go
    vacuous."""
    steppings = []
    run = Simulator.run

    def recording_run(self, cycles):
        run(self, cycles)
        steppings.append(self.skip_active)

    monkeypatch.setattr(Simulator, "run", recording_run)
    report = diff_skip_on_off(widths=(2, 2), rates=(0.05,), total_cycles=300)
    assert report.ok, report.detail
    # measure_point calls run() twice per point; one point per arm.
    assert steppings == [True, True, False, False]


# ---------------------------------------------------------------------------
# Plumbing: the check flag reaches every layer
# ---------------------------------------------------------------------------


def test_sweep_load_check_kwarg_serial_and_spec_paths():
    def run(workers):
        topo = HyperX((2, 2), 1)
        algo = make_algorithm("DimWAR", topo)
        return sweep_load(
            topo, algo, UniformRandom(4), [0.1], total_cycles=300, seed=1,
            workers=workers, check=True,
        )

    assert run(None).to_json() == run(1).to_json()


def test_cli_check_subcommand(monkeypatch, capsys):
    import repro.check.selftest as selftest
    from repro.cli import main

    calls = {}

    def fake(verbose=True, oracles=True):
        calls["oracles"] = oracles
        return True

    monkeypatch.setattr(selftest, "run_selftest", fake)
    assert main(["check", "--quick"]) == 0
    assert calls == {"oracles": False}

    monkeypatch.setattr(selftest, "run_selftest", lambda **kw: False)
    assert main(["check"]) == 1


def test_cli_sweep_check_flag():
    from repro.cli import main

    assert main([
        "sweep", "--algorithm", "DimWAR", "--widths", "2", "2",
        "--terminals", "1", "--rates", "0.1", "--cycles", "300", "--check",
    ]) == 0


def test_fault_transient_check_flag():
    from repro.experiments.faults import run_fault_transient

    res = run_fault_transient(
        "DimWAR", rate=0.2, window=100, pre_windows=2, post_windows=3,
        fail_links=1, check=True,
    )
    assert res.drained and res.routing_error is None


def test_sanitizer_catches_corruption_in_sanitized_sweep():
    """End to end: a bug seeded under measure_point(check=True) surfaces."""
    topo = HyperX((2, 2), 1)
    algo = make_algorithm("DimWAR", topo)
    net = Network(topo, algo, default_config())
    sim = Simulator(net)
    san = Sanitizer(sim, window=8).attach()
    sim.processes.append(SyntheticTraffic(net, UniformRandom(4), 0.3, seed=1))
    sim.run(100)
    rec = next(r for r in net.links if r.kind == "rr")
    rec.tracker.consume(0)
    with pytest.raises(SanitizerError) as exc:
        sim.run(32)
    assert exc.value.checker == "credits"
    assert "VC 0" in str(exc.value)
