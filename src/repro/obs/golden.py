"""Canonical golden-trace runs: tiny pinned scenarios for regression tests.

A golden trace is the full JSONL event stream of a small, fully
deterministic simulation — 4×4 HyperX, one terminal per router, uniform
random traffic at a fixed seed, with injection stopped before the end so
most sampled packets complete their lifecycle.  The byte-exact streams
are pinned under ``tests/golden/`` and compared by
``tests/test_obs_golden.py``; regenerate after an *intentional* behaviour
change with::

    PYTHONPATH=src python -m pytest tests/test_obs_golden.py --update-golden

The fault-capable successor algorithms (FTHX, VCFree) pin the *same*
scenario on a statically degraded topology instead — two pinned link
faults — so their fault-masking candidate paths are byte-pinned too.

One further stream pins *mid-run* fault handling
(``trace_midrun_fault_DimWAR.jsonl``): DimWAR on the pristine 4×4 with a
:class:`~repro.faults.model.FaultSchedule` that degrades a loaded link,
fails a second one mid-injection (route-cache invalidation and
``Router.revoke_unstarted_routes``) and then restores the first — so the
``min_gap`` output-stage path and the re-route after a failure are in the
byte-compared stream.

The same runs back the CLI (``python -m repro trace --golden DimWAR``,
``--golden FTHX``) and the CI trace smoke job.  Determinism rests on the simulator's seeded
RNG streams (NumPy ``default_rng`` bit streams are stable) and on the
tracer's trace-local packet ids (the global ``Packet.pid`` counter is
process-wide and deliberately not part of the stream).
"""

from __future__ import annotations

from ..config import default_config
from ..core.registry import make_algorithm
from ..network.network import Network
from ..network.simulator import Simulator
from ..traffic.injection import SyntheticTraffic
from ..traffic.patterns import pattern_by_name
from .events import TraceOptions
from .export import events_jsonl
from .tracer import Tracer

#: Algorithms with a pinned golden stream (tests/golden/trace_<name>.jsonl).
GOLDEN_ALGORITHMS = ("DOR", "DimWAR", "OmniWAR")

#: Fault-routing algorithms with a pinned *faulted* golden stream
#: (tests/golden/trace_fault_<name>.jsonl): the same scenario on a
#: statically degraded topology, so the byte-pin covers the fault-masking
#: candidate paths (escape subnetwork, up*/down* deroute filtering) that
#: the pristine corpus never exercises.
GOLDEN_FAULT_ALGORITHMS = ("FTHX", "VCFree")

#: Scenarios with a pinned *mid-run* fault stream
#: (tests/golden/trace_<scenario>.jsonl): the pristine run of the named
#: algorithm with ``GOLDEN_MIDRUN_EVENTS`` applied by a FaultInjector.
GOLDEN_MIDRUN_FAULT_SCENARIOS = ("midrun_fault_DimWAR",)

#: The pinned scenario (do not change without regenerating the corpus).
GOLDEN_WIDTHS = (4, 4)
GOLDEN_TPR = 1
GOLDEN_RATE = 0.25
GOLDEN_SEED = 7
GOLDEN_INJECT_CYCLES = 160
GOLDEN_DRAIN_CYCLES = 80
GOLDEN_OPTIONS = TraceOptions(sample_every=4, capacity=1 << 16)

#: The faulted corpus' pinned fault sample (connectivity-preserving; the
#: seed is chosen so both algorithms deliver every sampled packet).
GOLDEN_FAULT_LINKS = 2
GOLDEN_FAULT_SEED = 1

#: The mid-run corpus' pinned schedule as (cycle, kind, router, port,
#: factor): both links carry sampled packets over cycles 60-160 of the
#: pristine run; the degrade brackets the failure and is lifted (factor 1)
#: while traffic is still being injected.
GOLDEN_MIDRUN_EVENTS = (
    (60, "degrade", 12, 0, 3),
    (100, "link", 11, 3, None),
    (130, "degrade", 12, 0, 1),
)


def golden_filename(algorithm: str) -> str:
    if algorithm in GOLDEN_FAULT_ALGORITHMS:
        return f"trace_fault_{algorithm}.jsonl"
    return f"trace_{algorithm}.jsonl"


def golden_tracer(algorithm: str) -> Tracer:
    """Run the canonical scenario for ``algorithm``; returns the detached
    tracer holding the full event stream.

    ``GOLDEN_ALGORITHMS`` run on the pristine 4x4; the fault-capable
    ``GOLDEN_FAULT_ALGORITHMS`` run the same traffic on the statically
    degraded pinned topology; a ``GOLDEN_MIDRUN_FAULT_SCENARIOS`` name runs
    its algorithm on the pristine 4x4 under ``GOLDEN_MIDRUN_EVENTS``.
    """
    from ..faults.degraded import DegradedTopology
    from ..topology.hyperx import HyperX

    topo = HyperX(GOLDEN_WIDTHS, GOLDEN_TPR)
    midrun = algorithm in GOLDEN_MIDRUN_FAULT_SCENARIOS
    if midrun:
        algorithm = algorithm.removeprefix("midrun_fault_")
        topo = DegradedTopology(topo)
    elif algorithm in GOLDEN_FAULT_ALGORITHMS:
        from ..faults.model import random_link_faults

        fset = random_link_faults(
            topo, GOLDEN_FAULT_LINKS, seed=GOLDEN_FAULT_SEED
        )
        topo = DegradedTopology(topo, fset)
    elif algorithm not in GOLDEN_ALGORITHMS:
        raise ValueError(
            f"no golden scenario for {algorithm!r}; pick one of "
            + ", ".join(
                GOLDEN_ALGORITHMS
                + GOLDEN_FAULT_ALGORITHMS
                + GOLDEN_MIDRUN_FAULT_SCENARIOS
            )
        )
    net = Network(topo, make_algorithm(algorithm, topo), default_config())
    sim = Simulator(net)
    if midrun:
        from ..faults.inject import FaultInjector
        from ..faults.model import FaultEvent, FaultSchedule

        sim.add_process(FaultInjector(net, FaultSchedule(
            [FaultEvent(*ev) for ev in GOLDEN_MIDRUN_EVENTS]
        )))
    traffic = SyntheticTraffic(
        net, pattern_by_name("UR", topo), GOLDEN_RATE, seed=GOLDEN_SEED
    )
    sim.add_process(traffic)
    tracer = Tracer(sim, GOLDEN_OPTIONS).attach()
    sim.run(GOLDEN_INJECT_CYCLES)
    traffic.stop()
    sim.run(GOLDEN_DRAIN_CYCLES)
    tracer.detach()
    sim.remove_process(traffic)
    return tracer


def golden_jsonl(algorithm: str) -> str:
    """The canonical scenario's event stream as JSONL text (golden bytes)."""
    return events_jsonl(golden_tracer(algorithm).events())
