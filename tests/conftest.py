"""Shared test configuration: pinned Hypothesis profiles + golden regen.

Two registered profiles:

* ``ci`` (the default) — fully derandomized (fixed example generation, no
  wall-clock deadline), so CI and local tier-1 runs are reproducible: a
  property-test failure on one machine is a failure on every machine.
* ``dev`` — Hypothesis's random exploration with the deadline disabled;
  opt in with ``HYPOTHESIS_PROFILE=dev`` when hunting for new examples.

Per-test ``@settings(...)`` decorators still apply on top of the profile.

Also registers ``--update-golden``: rewrite the pinned files under
``tests/golden/`` (trace streams, sweep JSON, stencil execution times) from
the current simulator instead of comparing against them (see
tests/test_obs_golden.py and docs/OBSERVABILITY.md).

And the ``output_pass_audit`` fixture: the per-port reference the router's
output-pass wake bound is held to (tests/test_router_unit.py,
tests/test_skip_ahead.py).
"""

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the pinned files in tests/golden/ "
        "instead of comparing against them",
    )


class OutputPassAudit:
    """What the armed output pass is checked against, recomputed from the
    staged queues at every router step: if some staged head is past the
    crossbar and its link is outside a ``min_gap`` window, a flit could
    leave this cycle, so ``_step_outputs`` must run in this step."""

    def __init__(self):
        self.passes = []  # (router id, cycle) of every _step_outputs pass
        self.steps = 0  # Router.step calls
        self.ready_steps = 0  # ... of which the reference demanded a pass

    def could_emit(self, router, cycle) -> bool:
        for port, queues in enumerate(router.staged):
            ch = router.out_channels[port]
            if ch is None or (
                ch.min_gap > 1 and cycle - ch._last_push_cycle < ch.min_gap
            ):
                continue
            if any(q and q[0][0] <= cycle for q in queues):
                return True
        return False


@pytest.fixture
def output_pass_audit(monkeypatch):
    from repro.network.router import Router

    audit = OutputPassAudit()
    step, step_outputs = Router.step, Router._step_outputs

    def recording(self, cycle):
        audit.passes.append((self.router_id, cycle))
        step_outputs(self, cycle)

    def checked(self, cycle):
        ready = audit.could_emit(self, cycle)
        before = len(audit.passes)
        step(self, cycle)
        audit.steps += 1
        if ready:
            audit.ready_steps += 1
            assert audit.passes[before:] == [(self.router_id, cycle)], (
                f"router {self.router_id} slept through cycle {cycle} "
                f"(wake {self._out_wake}) with a flit ready to leave"
            )

    monkeypatch.setattr(Router, "_step_outputs", recording)
    monkeypatch.setattr(Router, "step", checked)
    return audit
