"""Runtime simulator sanitizer and differential oracles.

``repro.check`` is the simulator's trust layer: a set of cross-component
invariant checkers that attach to any live
:class:`~repro.network.simulator.Simulator` through its generic hook points
and cost nothing when not attached.  Two halves:

* :class:`Sanitizer` — a simulator process auditing flit conservation,
  credit accounting, stall/deadlock progress, and per-hop VC-class legality
  on a configurable cycle cadence (see :mod:`repro.check.sanitizer`);
* the differential oracles (:mod:`repro.check.oracle`) — replay one spec
  through independently-optimised execution paths (serial vs parallel
  workers, compressed vs per-cycle stepping, pristine topology vs empty
  fault set) and assert byte-identical results.

``python -m repro check`` runs the package self-test
(:func:`repro.check.selftest.run_selftest`), which includes *mutation
canaries*: deliberately seeded bugs (a leaked credit, a dropped flit, a
cyclic wait, an illegal VC hop, a diverged replay) that each checker must
catch — the checkers are themselves tested, not just trusted.
"""

from .. import lazy_exports

lazy_exports(globals(), {
    "Sanitizer": ".sanitizer",
    "SanitizerError": ".sanitizer",
    "OracleReport": ".oracle",
    "diff_serial_parallel": ".oracle",
    "diff_pristine_empty_faultset": ".oracle",
    "run_all_oracles": ".oracle",
    "run_selftest": ".selftest",
})
