"""Sweep-request schema: validation, canonical form, and content hashing.

A service client describes a sweep as plain JSON — topology widths,
algorithm, pattern, rate ladder, cycle budget, seed, and an optional
declarative fault list — and the service turns it into the exact
:class:`~repro.analysis.parallel.PointSpec` list a direct
:func:`~repro.analysis.sweep.sweep_load` call would build.  Two invariants
make the service honest:

* **canonical form** — two requests describing the same sweep serialize
  identically (rates sorted the way ``sweep_load`` sorts them, defaults
  expanded, faults normalized to ``[class-name, field-dict]`` pairs), so
  the SHA-256 :func:`request_key` is a true content address.  The key is
  the job id: resubmitting the same sweep *is* the same job.
* **validation by construction** — :func:`build_request` actually builds
  the topology/algorithm/pattern (and rejects unknown keys), so every
  request that enters the queue is one the workers can execute.  What it
  built stays on the request (``scenario``, ``specs``): the queue probes
  the memo with those specs and executes with those objects instead of
  building them again.

Example::

    >>> from repro.service.spec import build_request, request_key
    >>> req = build_request({"widths": [2, 2], "rates": [0.2, 0.1]})
    >>> req.rates            # canonical: sorted ascending, like sweep_load
    (0.1, 0.2)
    >>> len(request_key(req))
    64
    >>> reordered = build_request({"rates": [0.1, 0.2], "widths": [2, 2]})
    >>> request_key(reordered) == request_key(req)
    True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from ..faults.model import faults_from_json, faults_to_json

#: request fields and their defaults — also the schema whitelist
REQUEST_FIELDS = (
    "widths", "terminals_per_router", "algorithm", "pattern", "rates",
    "total_cycles", "seed", "stop_after_unstable", "faults",
)


@dataclass(frozen=True)
class SweepRequest:
    """One validated, canonical sweep-job description."""

    widths: tuple[int, ...]
    terminals_per_router: int = 1
    algorithm: str = "DimWAR"
    pattern: str = "UR"
    rates: tuple[float, ...] = (0.1, 0.2, 0.3)
    total_cycles: int = 2000
    seed: int = 1
    stop_after_unstable: bool = True
    #: declarative faults, already parsed to frozen fault objects
    faults: tuple = field(default=())
    #: what :func:`build_request`'s validation built, kept for whoever
    #: executes the request: the live ``(topology, algorithm, pattern)`` and
    #: the :class:`~repro.analysis.parallel.PointSpec` list a direct
    #: ``sweep_load(..., workers=N)`` call builds.  Not part of the request's
    #: identity — canonical form, equality and hash ignore them.
    scenario: tuple = field(default=(), compare=False, repr=False)
    specs: tuple = field(default=(), compare=False, repr=False)

    def canonical(self) -> dict:
        """The JSON-able canonical form — the :func:`request_key` preimage."""
        return {
            "widths": list(self.widths),
            "terminals_per_router": self.terminals_per_router,
            "algorithm": self.algorithm,
            "pattern": self.pattern,
            "rates": list(self.rates),
            "total_cycles": self.total_cycles,
            "seed": self.seed,
            "stop_after_unstable": self.stop_after_unstable,
            "faults": faults_to_json(self.faults),
        }


def build_request(raw: dict) -> SweepRequest:
    """Validate a raw JSON request dict into a canonical SweepRequest.

    Raises ``ValueError`` on unknown keys, malformed fields, or any
    combination the simulator cannot execute (unknown algorithm/pattern,
    bad widths, faults that disconnect the network) — the 400 path of the
    service.  Validation is *by construction*: the topology, algorithm,
    pattern, and point specs are actually built — and returned on the
    request (``scenario``, ``specs``) — so acceptance here means the queue
    runner cannot fail on reconstruction later.
    """
    from ..analysis.parallel import point_specs

    if not isinstance(raw, dict):
        raise ValueError("request body must be a JSON object")
    unknown = sorted(set(raw) - set(REQUEST_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown request field(s) {unknown}; "
            f"allowed: {sorted(REQUEST_FIELDS)}"
        )
    try:
        widths = tuple(int(w) for w in raw.get("widths", ()))
        rates = tuple(
            sorted(float(r) for r in raw.get("rates", (0.1, 0.2, 0.3)))
        )
        req = SweepRequest(
            widths=widths,
            terminals_per_router=int(raw.get("terminals_per_router", 1)),
            algorithm=str(raw.get("algorithm", "DimWAR")),
            pattern=str(raw.get("pattern", "UR")),
            rates=rates,
            total_cycles=int(raw.get("total_cycles", 2000)),
            seed=int(raw.get("seed", 1)),
            stop_after_unstable=bool(raw.get("stop_after_unstable", True)),
            faults=faults_from_json(raw.get("faults", ())),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed request: {exc}") from None
    if not req.rates:
        raise ValueError("rates must be a non-empty list of offered loads")
    if any(r <= 0 for r in req.rates):
        raise ValueError("rates must be positive offered loads")
    if req.total_cycles < 10:
        raise ValueError("total_cycles must be >= 10")
    scenario = build_scenario(req)
    specs = point_specs(
        *scenario, list(req.rates),
        total_cycles=req.total_cycles, seed=req.seed,
    )
    return replace(req, scenario=scenario, specs=tuple(specs))


def build_scenario(req: SweepRequest) -> tuple:
    """Fresh live ``(topology, algorithm, pattern)`` objects for ``req``:
    :meth:`PointSpec.build <repro.analysis.parallel.PointSpec.build>` on
    the request's first point."""
    from ..analysis.parallel import PointSpec

    return PointSpec(
        req.widths, req.terminals_per_router, req.algorithm, req.pattern,
        req.rates[0], faults=req.faults,
    ).build()


def request_key(req: SweepRequest) -> str:
    """SHA-256 content address of a canonical request (the job id)."""
    preimage = json.dumps(
        req.canonical(), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()
