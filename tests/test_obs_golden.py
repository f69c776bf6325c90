"""Golden-trace corpus: pinned event streams, byte-for-byte.

Each file under ``tests/golden/`` is the complete canonical-JSONL event
stream of one tiny pinned run (4x4 HyperX, 1 terminal/router, UR at rate
0.25, seed 7, 160 inject + 80 drain cycles, every 4th packet sampled) for
one routing algorithm.  The fault-capable successor algorithms (FTHX,
VCFree) pin the same run on a statically degraded topology — two pinned
link faults — as ``trace_fault_<name>.jsonl``, covering the fault-masking
candidate paths the pristine corpus never takes; one more stream
(``trace_midrun_fault_DimWAR.jsonl``) pins DimWAR through a mid-run
degrade / link-failure / restore schedule.  The tests regenerate the same run from the current
code and compare **bytes** — any change to routing order, rng consumption,
event schema, or JSON canonicalization shows up as a diff against the
pinned stream, which is exactly the point: the trace pins the simulator's
observable behaviour.

When a behaviour change is *intended*, regenerate the corpus with::

    PYTHONPATH=src python -m pytest tests/test_obs_golden.py --update-golden

and review the diff like any other source change.
"""

import json
import os

import pytest

from repro.obs.golden import (
    GOLDEN_ALGORITHMS,
    GOLDEN_FAULT_ALGORITHMS,
    GOLDEN_MIDRUN_FAULT_SCENARIOS,
    GOLDEN_OPTIONS,
    golden_filename,
    golden_jsonl,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: every pinned stream: pristine baselines, faulted successor schemes,
#: and the mid-run fault schedule
ALL_GOLDEN = (
    GOLDEN_ALGORITHMS + GOLDEN_FAULT_ALGORITHMS + GOLDEN_MIDRUN_FAULT_SCENARIOS
)


def _pinned_path(algorithm):
    return os.path.join(GOLDEN_DIR, golden_filename(algorithm))


@pytest.mark.parametrize("algorithm", ALL_GOLDEN)
def test_golden_trace_matches_pinned_bytes(algorithm, request):
    """The pinned run reproduces its trace stream byte-for-byte."""
    current = golden_jsonl(algorithm)
    path = _pinned_path(algorithm)
    if request.config.getoption("--update-golden"):
        with open(path, "w") as f:
            f.write(current)
        pytest.skip(f"regenerated {os.path.relpath(path, GOLDEN_DIR)}")
    assert os.path.exists(path), (
        f"missing golden file {path}; regenerate with --update-golden"
    )
    with open(path) as f:
        pinned = f.read()
    if current != pinned:
        cur_lines, pin_lines = current.splitlines(), pinned.splitlines()
        for i, (a, b) in enumerate(zip(cur_lines, pin_lines)):
            if a != b:
                raise AssertionError(
                    f"{algorithm} golden trace diverges at line {i + 1}:\n"
                    f"  pinned:  {b}\n  current: {a}\n"
                    "(intended change? regenerate with --update-golden)"
                )
        raise AssertionError(
            f"{algorithm} golden trace length changed: "
            f"{len(pin_lines)} pinned vs {len(cur_lines)} current lines"
        )


@pytest.mark.parametrize("algorithm", ALL_GOLDEN)
def test_golden_stream_is_canonical_jsonl(algorithm):
    """Every pinned line round-trips through the canonical encoder."""
    with open(_pinned_path(algorithm)) as f:
        lines = f.read().splitlines()
    assert lines, "golden stream must not be empty"
    for line in lines:
        obj = json.loads(line)
        assert json.dumps(
            obj, sort_keys=True, separators=(",", ":"), allow_nan=False
        ) == line
        assert set(obj) == {"cycle", "data", "pkt", "type", "where"}


def test_golden_runs_fit_the_ring():
    """The pinned config must never overflow the ring (drops would make
    the 'complete stream' framing a lie)."""
    for algorithm in ALL_GOLDEN:
        tracer = _tracer(algorithm)
        assert tracer.ring.dropped == 0
        assert 0 < len(tracer.ring) <= GOLDEN_OPTIONS.capacity


def _tracer(algorithm):
    from repro.obs.golden import golden_tracer

    return golden_tracer(algorithm)


def test_golden_rejects_unknown_algorithm():
    from repro.obs.golden import golden_tracer

    with pytest.raises(ValueError):
        golden_tracer("Valiant")
