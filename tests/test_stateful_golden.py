"""Golden sweeps for the algorithms the skeleton cache cannot memoise.

VAL, UGAL, UGAL+, ROMM, O1Turn and the dragonfly / torus routers return
``cache_key() is None`` (per-packet state or randomness), so they reach the
router's scoring loop through an un-memoised skeleton rather than a cached
one.  Each file ``tests/golden/sweep_<case>.json`` is the
``SweepResult.to_json()`` of one tiny pinned sweep (two rates, fixed seed,
800 cycles), recorded **before** those algorithms were moved onto the
shared scoring loop; the test re-runs the sweep and compares bytes, so any
change to their VC allocation, congestion reads, weights or jitter
consumption shows up as a diff.  UGAL+ is pinned under port scope, class
scope and sequential allocation — the three branches of the weight pass.
``DimWAR_round_robin`` pins the round-robin output rotation, recorded
while a separate arbiter class still served the terminal's ejection.

When a behaviour change is *intended*, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_stateful_golden.py --update-golden

and review the diff like any other source change.
"""

import os

import pytest

from repro.analysis.sweep import sweep_load
from repro.config import RouterConfig, SimConfig
from repro.core.dragonfly_routing import DragonflyUgal
from repro.core.registry import make_algorithm
from repro.core.torus_routing import TorusDOR
from repro.topology.dragonfly import balanced_dragonfly
from repro.topology.hyperx import HyperX
from repro.topology.torus import Torus
from repro.traffic.patterns import UniformRandom

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
RATES = [0.2, 0.5]
CYCLES = 800
SEED = 11


def _hyperx(name, **router):
    def build():
        topo = HyperX((4, 4), 2)
        return topo, make_algorithm(name, topo), RouterConfig(**router)

    return build


def _dragonfly():
    topo = balanced_dragonfly(2)
    return topo, DragonflyUgal(topo), RouterConfig()


def _torus():
    topo = Torus((4, 4), 2)
    return topo, TorusDOR(topo), RouterConfig()


#: case slug -> () -> (topology, algorithm, router config)
CASES = {
    "VAL": _hyperx("VAL"),
    "UGAL": _hyperx("UGAL"),
    "UGALplus": _hyperx("UGAL+"),
    "UGALplus_seq": _hyperx("UGAL+", sequential_allocation=True),
    "ROMM": _hyperx("ROMM"),
    "O1Turn": _hyperx("O1Turn"),
    "DimWAR_round_robin": _hyperx("DimWAR", arbiter="round_robin"),
    "DragonflyUgal": _dragonfly,
    "TorusDOR": _torus,
}


def _sweep_json(case):
    topo, algo, router = CASES[case]()
    return sweep_load(
        topo, algo, UniformRandom(topo.num_terminals), RATES,
        stop_after_unstable=False, total_cycles=CYCLES, seed=SEED,
        cfg=SimConfig(router=router).validated(),
    ).to_json()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stateful_sweep_matches_pinned_bytes(case, request):
    current = _sweep_json(case)
    path = os.path.join(GOLDEN_DIR, f"sweep_{case}.json")
    if request.config.getoption("--update-golden"):
        with open(path, "w") as f:
            f.write(current)
        pytest.skip(f"regenerated {os.path.basename(path)}")
    with open(path) as f:
        pinned = f.read()
    assert current == pinned, (
        f"{case}: sweep JSON diverges from {os.path.basename(path)} "
        "(intended change? regenerate with --update-golden)"
    )
