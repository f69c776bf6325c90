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
"""

import os

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
