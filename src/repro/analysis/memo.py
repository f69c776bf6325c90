"""Disk-backed sweep memo: measure_point results keyed by canonical specs.

Every figure of the paper re-simulates the same ``(topology, algorithm,
pattern, load, seed)`` grid points; after an unrelated change (docs, a new
experiment, plotting code) those simulations produce byte-identical results
— the parallel-sweep engine already guarantees a :class:`PointSpec`
determines its :class:`~repro.analysis.sweep.PointResult` exactly.  This
module makes that determinism pay for itself: results are persisted under
``benchmarks/output/memo/`` keyed by a SHA-256 hash of the *canonical* spec
(topology widths and terminals, algorithm name + kwargs, pattern, offered
rate, cycle budget, seed, full simulator config, size distribution, and the
declarative fault list) plus a **code-version salt**.  Re-running a sweep
whose points are memoised is near-free; bumping the salt (done whenever a
change alters simulation semantics) invalidates every archived result at
once.

What is deliberately *not* in the key: execution machinery that provably
cannot change a result.  The ``shards`` field (how many processes the
sharded engine spreads the point over) is excluded — a point measured with
any shard count replays byte-identically for every other, which the
shard-on-vs-off differential oracle enforces.  The ``check`` sanitizer and
``trace`` observer flags can't change results either, but they make a spec
**unmemoisable** instead of being excluded — their whole point is their
side effects (audits, trace artifacts), which a cache hit would silently
skip.

Usage::

    memo = SweepMemo()                     # benchmarks/output/memo/
    sweep_load(topo, algo, patt, rates, memo=memo)        # fills the memo
    sweep_load(topo, algo, patt, rates, memo=memo)        # replays from disk
    saturation_throughput(topo, algo, patt, memo=memo)    # warm-started

See docs/SIMULATOR.md (performance notes) for the key schema and the
warm-start behaviour.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from typing import TYPE_CHECKING, Sequence

from ..faults.model import faults_to_json
from ..traffic.sizes import UniformSize

if TYPE_CHECKING:  # pragma: no cover
    from .parallel import PointSpec
    from .sweep import PointResult

#: Code-version salt mixed into every memo key.  Bump the suffix whenever a
#: change alters simulation *semantics* (routing decisions, arbitration,
#: flow control, traffic generation, stats windows) — i.e. whenever the
#: repro.check oracles would have to be re-baselined.  Pure optimisations
#: proven byte-identical by those oracles do NOT require a bump.
SIM_SALT = "repro-sim/2"  # /2: canonical input-VC service order (arbitration)

#: storage format version for the per-point JSON files
MEMO_SCHEMA = "repro-memo/1"


def canonical_spec(spec: "PointSpec") -> dict:
    """The canonical JSON-able description of a spec — the hash preimage.

    Canonical means two specs describing the same simulation serialize
    identically: kwargs are sorted, the config is expanded field-by-field
    (so ``None`` and an explicitly passed default differ only if the
    defaults differ), the size distribution is normalized to its
    parameter-encoding name (``None`` means the ``measure_point`` default,
    ``uniform1-16``), and faults take their one JSON form
    (:func:`repro.faults.model.faults_to_json`).
    """
    from ..config import default_config

    cfg = spec.cfg if spec.cfg is not None else default_config()
    size = spec.size_dist if spec.size_dist is not None else UniformSize(1, 16)
    return {
        "widths": list(spec.widths),
        "terminals_per_router": spec.terminals_per_router,
        "algorithm": spec.algorithm,
        "algorithm_kwargs": [[k, v] for k, v in sorted(spec.algorithm_kwargs)],
        "pattern": spec.pattern,
        "rate": spec.rate,
        "total_cycles": spec.total_cycles,
        "seed": spec.seed,
        "cfg": asdict(cfg),
        "size_dist": size.name,
        "faults": faults_to_json(spec.faults),
    }


def point_key(spec: "PointSpec", salt: str = SIM_SALT) -> str:
    """SHA-256 memo key of a spec under ``salt`` (hex digest)."""
    preimage = json.dumps(
        {"salt": salt, "spec": canonical_spec(spec)},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


def memoisable(spec: "PointSpec") -> bool:
    """False for specs whose runs exist for their side effects.

    A sanitized (``check=True``) or traced (``trace`` set) run must actually
    execute — the audits and trace artifacts are the product; replaying the
    numeric result from disk would skip them.
    """
    return not spec.check and spec.trace is None


class SweepMemo:
    """Disk-backed ``PointSpec -> PointResult`` store.

    One JSON file per point under ``root``, named by the full memo key.
    ``get`` misses (returning None) on absent, corrupt, or foreign-salt
    files — and unlinks corrupt ones so a later ``put`` can repair them;
    ``put`` publishes atomically (private temp file + hardlink) so a
    crashed run never leaves a half-written entry that later replays as
    garbage.  Publication is **first-writer-wins** across processes: when
    several workers race to memoise the same key (the shared-cache path of
    the sweep-farm service), exactly one hardlink lands and every loser
    degrades to a collision — the spec is deterministic, so the winner's
    bytes are the losers' bytes.  A ``put`` the filesystem refuses (full or
    read-only ``root``) is counted in ``write_errors`` and otherwise
    ignored: the memo is a cache, and the finished point it could not save
    is still the caller's.  Hit/miss/write/collision counters make
    warm-start tests (and curious users) precise about what was actually
    simulated.
    """

    def __init__(self, root: str = "benchmarks/output/memo",
                 salt: str = SIM_SALT):
        self.root = root
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.collisions = 0
        self.write_errors = 0

    # ------------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def __contains__(self, spec: "PointSpec") -> bool:
        """Whether an entry is published under ``spec``'s key — a presence
        probe: it reads nothing and counts nothing (probing is not
        replaying), so an entry it finds may still be corrupt and miss in
        :meth:`get`."""
        return memoisable(spec) and os.path.exists(
            self._path(spec.memo_key(self.salt))
        )

    def get(self, spec: "PointSpec") -> "PointResult | None":
        """The memoised result for ``spec``, or None (counted as a miss)."""
        from .sweep import PointResult

        if not memoisable(spec):
            return None
        key = spec.memo_key(self.salt)
        path = self._path(key)
        try:
            with open(path) as f:
                data = json.load(f)
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            self._evict_corrupt(path)
            self.misses += 1
            return None
        # The key embeds the salt, so a stale-salt file can only be found
        # under its own (different) name; the schema/key check guards
        # against truncated or hand-edited files.
        if data.get("schema") != MEMO_SCHEMA or data.get("key") != key:
            self._evict_corrupt(path)
            self.misses += 1
            return None
        self.hits += 1
        return PointResult(**data["result"])

    @staticmethod
    def _evict_corrupt(path: str) -> None:
        """Unlink an unreadable entry so first-writer-wins can repair it.

        Publication only refuses to overwrite an *existing* file; a corrupt
        entry left in place would therefore shadow every future ``put`` of
        its key.  Best-effort: a concurrent eviction losing the race is
        fine.
        """
        try:
            os.unlink(path)
        except OSError:
            pass

    def put(self, spec: "PointSpec", result: "PointResult") -> str | None:
        """Persist ``result`` under ``spec``'s key; returns the path, or
        None when the write failed (counted in ``write_errors``)."""
        if not memoisable(spec):
            return None
        key = spec.memo_key(self.salt)
        payload = asdict(result)
        # Host timing is nondeterministic and excluded from sweep JSON;
        # memoised replays read it back as 0.0 by construction.
        payload["wall_clock_s"] = 0.0
        data = {
            "schema": MEMO_SCHEMA,
            "salt": self.salt,
            "key": key,
            "spec": canonical_spec(spec),
            "result": payload,
        }
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(self.root, exist_ok=True)
            with open(tmp, "w") as f:
                json.dump(data, f, indent=2, allow_nan=True)
            try:
                # Atomic first-writer-wins publication: hardlinking the
                # private temp file fails with FileExistsError when another
                # process already published this key, and readers only ever
                # see complete files.
                os.link(tmp, path)
            except FileExistsError:
                # Lost the race.  The winner wrote the same bytes (the spec
                # determines the result), so this degrades to a hit on the
                # winner's entry rather than an error or a torn file.
                self.collisions += 1
                return path
            except OSError:  # pragma: no cover - no-hardlink filesystems
                os.replace(tmp, path)
            self.writes += 1
        except OSError:
            self.write_errors += 1
            return None
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return path

    # ------------------------------------------------------------------

    def warm_start_bounds(
        self, specs: Sequence["PointSpec"]
    ) -> tuple[int | None, int | None]:
        """Bisection bracket over ``specs`` (assumed rate-ascending) from
        memoised results alone: ``(highest stable index, lowest unstable
        index)``, either None when no cached point answers.

        The upper bound is the load-beyond-saturation truncation point for
        a warm-started :func:`~repro.analysis.sweep.saturation_throughput`:
        an ascending stop-at-first-unstable sweep can never emit a point
        past a rate already known unstable, so rates above it need neither
        simulation nor a cache probe.  (Counted separately from get()'s
        hit/miss statistics — probing is not replaying.)
        """
        hi: int | None = None
        lo: int | None = None
        hits, misses = self.hits, self.misses
        for i, spec in enumerate(specs):
            cached = self.get(spec)
            if cached is None:
                continue
            if cached.stable:
                lo = i if lo is None else max(lo, i)
            elif hi is None or i < hi:
                hi = i
        self.hits, self.misses = hits, misses  # probes aren't replays
        return lo, hi
