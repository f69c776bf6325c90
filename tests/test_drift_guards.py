"""Drift guards: every retired name and every pinned copy count, as one table.

A change that deletes a twin (an engine, a switch, a second copy of a road
through the code) adds a row here, so the deleted code cannot come back
unnoticed.  A row is a text check over the tree, read the way ``grep -r``
reads it: line by line, every file under a directory (``__pycache__``
skipped).  It is one of four kinds:

* ``ABSENT`` — no scanned line matches ``pattern``;
* ``AT_MOST`` — at most ``limit`` lines match (or files, ``per="file"``);
* ``ONLY_INSIDE`` — every match lies ``inside`` one directory, file or
  line span, which holds exactly ``count`` matches (when given); an
  ``inside`` file holds each literal of ``present``;
* ``IMPLIES`` — every scanned file that matches ``pattern`` also holds the
  literal ``then``.

A row names what it scans (``paths``: directories, files, globs or a
:class:`Span`), what it exempts (``exempt``: a name without ``/`` is any
file or directory of that name, like ``grep --exclude`` and
``--exclude-dir``; a name with one is that path; ``unless``: a literal
that exempts the line holding it), why, and the PR that retired the name.
It also carries a one-line :class:`Mutant`:
``test_row_fires_on_its_mutant`` plants it in a copy of the files the row
scans and demands that the row fail, so no row can go blind.
"""

import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

ABSENT, AT_MOST, ONLY_INSIDE, IMPLIES = "absent", "at most", "only inside", "implies"

SWEEP = "src/repro/analysis/sweep.py"
NETWORK = "src/repro/network/network.py"
SRC_AND_DOCS = ("src/", "docs/", "README.md", "DESIGN.md")


@dataclass(frozen=True)
class Span:
    """awk's ``/start/,/end/``: the lines of ``path`` from each line that
    matches ``start`` through the next line that matches ``end``."""

    path: str
    start: str
    end: str

    def line_numbers(self, root: Path) -> set[int]:
        kept, on = set(), False
        for no, line in enumerate(_lines(root / self.path), 1):
            on = on or re.search(self.start, line) is not None
            if on:
                kept.add(no)
                on = re.search(self.end, line) is None
        return kept

    def __str__(self) -> str:
        return f"{self.path} /{self.start}/,/{self.end}/"


@dataclass(frozen=True)
class Mutant:
    """One line planted in ``path``: appended, or in place of the first
    line holding the literal ``replaces``."""

    path: str
    line: str
    replaces: str | None = None


@dataclass(frozen=True)
class Row:
    name: str
    kind: str
    pattern: str
    paths: tuple
    reason: str
    pr: str
    mutant: Mutant
    exempt: tuple = ()
    fixed: bool = False  # pattern is a literal (grep -F)
    word: bool = False  # whole words only (grep -w)
    py_only: bool = False  # grep --include='*.py'
    unless: str | None = None
    limit: int = 0
    per: str = "line"
    inside: "str | Span | None" = None
    count: int | None = None
    present: tuple = ()
    then: str | None = None


ROWS = [
    Row("retired-engine-switch", ABSENT,
        r"route_cache=|\bscoring_kernel|cycle_skip|skip_safe", SRC_AND_DOCS,
        "The route cache, the scoring loop and cycle skip-ahead are not "
        "selectable: no RouterConfig field, and no doc that names one "
        "(\\b keeps docs free to name tests/test_scoring_kernel.py). Nor is "
        "there a marker that opts a process into skip-ahead: answering "
        "next_wakeup is the whole clock contract.",
        "15 (skip_safe: 18)",
        Mutant("README.md", "Pass `RouterConfig(route_cache=False)` to compare.")),
    Row("retired-perf-ratchet", ABSENT,
        r"BENCH_sim|check_perf_ratchet|test_perf_simulator|speedup_vs_seed",
        SRC_AND_DOCS + ("benchmarks/",),
        "The single-shot perf ratchet and its recorded file are retired "
        "(benchmarks/e2e/ is frozen and exempt).",
        "16", Mutant("benchmarks/conftest.py", 'BASELINE = "BENCH_sim.json"'),
        exempt=("e2e",)),
    Row("retired-sharded-tracing", ABSENT,
        r"pid_ids|merged_trace|canonical_jsonl|_boundary_in_dst"
        r"|_make_boundary_sink|REPRO_SHARDS", SRC_AND_DOCS,
        "Sharded tracing and the REPRO_SHARDS default are retired: a traced "
        "point runs in one process, and --shards is the one knob.",
        "26", Mutant("src/repro/network/shard.py",
                     'DEFAULT_SHARDS = os.environ.get("REPRO_SHARDS")')),
    Row("router-congestion-method", ABSENT,
        r"def port_congestion|def class_congestion", ("src/",),
        "A routing algorithm sees a router id and nothing else; the "
        "congestion estimates live in the scoring loop and, as reference "
        "functions, in tests/test_scoring_kernel.py.",
        "26", Mutant("src/repro/network/router.py",
                     "    def port_congestion(self, port):")),
    Row("congestion-scope-estimator", ABSENT,
        r"congestion_scope|class_congestion|get_estimator|_est_inline"
        r"|pick_min_weight", ("src/",),
        "One weight formula: congestion always covers the output port, and "
        "a mode is its two integer terms (congestion_terms), not an "
        "estimator callable beside an inlined default.",
        "33", Mutant("src/repro/network/router.py",
                     "        est = get_estimator(mode)")),
    Row("channel-push-copy", ABSENT,
        r"_last_push_cycle = |utilization_count \+= ", ("src/repro",),
        "One push: Channel.push is the only code that writes a channel's "
        "push state (the shard's import enqueues items stamped in another "
        "process and writes neither).",
        "27", Mutant("src/repro/network/router.py",
                     "        ch.utilization_count += 1"),
        exempt=("src/repro/network/channel.py",), py_only=True),
    Row("retired-datapath-name", ABSENT,
        r"Credit|make_arbiter|RoundRobinArbiter|AgeBasedArbiter"
        r"|percentile_latency|terminal_ports", ("src/",),
        "One rotation and no dead datapath vocabulary: the arbiter module, "
        "the Credit type, Router.terminal_ports and the truncating "
        "percentile are gone (nearest_rank is the one estimator).",
        "27", Mutant("src/repro/network/router.py",
                     "        self.arbiter = RoundRobinArbiter(radix)"),
        word=True),
    Row("credit-waiter-and-work-entries", ABSENT,
        r"\bwaiters\b|_out_ent|_in_ents|_credit_waiter", ("src/",),
        "The owner is the waiter: a credit wakes the output VC's owner "
        "(Router.out_vc_owner holds the input key), so there is no second "
        "per-VC sleeper table, and the output pass reads the router's "
        "per-port lists, not a preresolved tuple of them. One key per input "
        "VC: the input pass reads Router.fifos[key] / Router.routes[key], "
        "not a preresolved work entry.",
        "34 (_in_ents: 35)", Mutant("src/repro/network/buffers.py",
                                    "        self.waiters = []")),
    Row("retired-ejection-and-trace", ABSENT,
        r"ejection_rate|track_vc_trace|vc_trace|port_trace|_rx_live"
        r"|_rx_count|_step_ejection", ("src/",),
        "A terminal takes the one flit that arrived (no receive buffer, no "
        "ejection arbitration), and a per-hop trace is an observer "
        "(repro.obs.record_hops), not a NetworkConfig field or Packet slot.",
        "28", Mutant("src/repro/network/terminal.py",
                     "        self._rx_count = 0"),
        word=True),
    Row("one-fault-builder", AT_MOST, "FaultSet(list(", ("src/",),
        "One road from a scenario description to a measured point: a second "
        "names -> live objects builder must not grow back.",
        "17", Mutant("src/repro/faults/degraded.py",
                     "        faults = FaultSet(list(links))"),
        fixed=True, py_only=True, limit=1),
    Row("one-sanitizer-attach", AT_MOST, "Sanitizer(sim).attach()",
        ("src/repro",),
        "One road to a measured point: the observer ceremony must not grow "
        "back (the file that defines Sanitizer is exempt).",
        "17", Mutant("src/repro/cli.py", "        Sanitizer(sim).attach()"),
        exempt=("sanitizer.py",), fixed=True, py_only=True, limit=1,
        per="file"),
    Row("one-trace-export", AT_MOST, "write_point_trace(", ("src/repro",),
        "One road to a measured point: a second trace-export ceremony must "
        "not grow back (the file that defines write_point_trace is exempt).",
        "17", Mutant("src/repro/cli.py",
                     "        write_point_trace(tracer, args.jsonl)"),
        exempt=("export.py",), fixed=True, py_only=True, limit=1,
        per="file"),
    Row("one-fault-class-table", AT_MOST, r'"LinkFault": *[^" ]', ("src/",),
        "One road to a measured point: a second fault class table must not "
        "grow back (a package's lazy_exports table maps \"LinkFault\" to a "
        "module path string, not to the class, and is not a class table).",
        "17 (lazy_exports: 31)", Mutant("src/repro/faults/inject.py",
                                        '_CLASSES = {"LinkFault": LinkFault}'),
        py_only=True, limit=1, per="file"),
    Row("one-cycle-loop", ONLY_INSIDE, "_active_routers", ("src/repro",),
        "One cycle loop: nothing outside repro.network walks the router "
        "activity set (PhaseProfiler calls Simulator.run).",
        "18", Mutant("src/repro/analysis/bench.py",
                     "    live = sim.network._active_routers"),
        fixed=True, py_only=True, inside="src/repro/network/"),
    Row("collector-owner-holds-its-calls", ONLY_INSIDE,
        r"gc\.(disable|freeze|unfreeze)\(", (SWEEP,),
        "One owner of the cyclic collector's state: frozen_build "
        "(repro.analysis.sweep; PointRun is one) keeps it paused for a "
        "point's whole life and closes the network on exit, so "
        "gc.freeze( / gc.unfreeze( / gc.disable( must not leave its file. "
        "Network.__init__ carries no guard: see docs/PERFORMANCE.md, "
        "\"Construction without the collector\".",
        "21", Mutant(SWEEP, "        pass", replaces="gc.disable("),
        inside=SWEEP, present=("gc.freeze(", "gc.unfreeze(", "gc.disable(")),
    Row("collector-one-owner", ONLY_INSIDE,
        r"gc\.(disable|freeze|unfreeze)\(", ("src/",),
        "The collector's state is set in src/repro/analysis/sweep.py only "
        "(frozen_build is its one owner).",
        "21 (all three calls: 32)", Mutant(NETWORK, "        gc.freeze()"),
        inside=SWEEP),
    Row("census-only-collect", ONLY_INSIDE, r"gc\.collect\((?!1\))",
        ("src/repro",),
        "A dead network is freed by Network.close(), not by collection: the "
        "only full collect under src/repro is the census's "
        "(repro.analysis.bench.tracked_objects), so the collect-first "
        "cannot creep back into frozen_build.",
        "36", Mutant(SWEEP, "        gc.collect()"),
        count=1,
        inside=Span("src/repro/analysis/bench.py",
                    r"^def tracked_objects", r"^    return ")),
    Row("one-young-collect", ONLY_INSIDE, "gc.collect(1)", ("src/repro",),
        "frozen_build collects the young generations once, before it thaws, "
        "so that garbage made between two plain points is not frozen with "
        "the next build; no other code runs a young-generation collect.",
        "43", Mutant("src/repro/analysis/bench.py", "    gc.collect(1)"),
        fixed=True, count=1,
        inside=Span(SWEEP, r"^    def __init__\(self, build", r"gc\.freeze\(\)")),
    Row("network-slot-owner", ONLY_INSIDE, r"_network_slot|_NetworkSlot",
        ("src/", "tests/", "benchmarks/"),
        "One owner of the pooled network: frozen_build takes it out before a "
        "build and puts it back after a plain point, so nothing outside "
        "repro.analysis.sweep reads or writes the slot (the reuse oracle and "
        "the tests empty it through _empty_network_slot).",
        "42", Mutant("src/repro/analysis/parallel.py",
                     "    sweep._network_slot.net = None"),
        exempt=("test_drift_guards.py",), word=True, inside=SWEEP),
    Row("network-built-in-frozen-build", IMPLIES, "Network(",
        ("src/repro/experiments/*.py", "src/repro/cli.py"),
        "Every experiment / CLI site that builds a network to run it goes "
        "through the collector's one owner, frozen_build.",
        "23", Mutant("src/repro/experiments/fig2_scalability.py",
                     "    net = Network(topo, algo)"),
        fixed=True, then="frozen_build("),
    Row("credit-channel", ABSENT, r'limit_rate|"cr ', ("src/",),
        "A credit is a calendar entry, not a channel: no rate switch on "
        "Channel and no credit-channel name template.",
        "32", Mutant("src/repro/network/channel.py",
                     "    def limit_rate(self, every: int) -> None:")),
    Row("eager-jitter-block", ABSENT, "random(4096)", ("src/repro/",),
        "A cold point pays for what it touches: the eager 4096-draw jitter "
        "block must not grow back (the ring grows with use; the test tree's "
        "replay copy is the oracle and is exempt).",
        "22", Mutant("src/repro/traffic/injection.py",
                     "        block = self.rng.random(4096)"),
        fixed=True),
    Row("eager-channel-name", ABSENT, 'f"',
        (Span(NETWORK, "def _wire", "def flits_in_flight"),),
        "The wiring passes channel-name parts, never a rendered f-string: "
        "_wire / _wire_boundary must not format a channel name eagerly.",
        "22", Mutant(NETWORK, '                        f"r{r}p{port}->r{rp.router}",',
                     replaces='("r%dp%d->r%d", r, port, rp.router),'),
        fixed=True),
    Row("nested-sink-factory", ABSENT, r"def sink\(",
        ("src/repro/network/router.py", "src/repro/network/terminal.py",
         NETWORK),
        "A built network is its state, not its closures: a channel sink is "
        "a bound method of the object whose state it writes, never a nested "
        "factory (a shard edge's is BoundaryExport.accept).",
        "25", Mutant("src/repro/network/terminal.py",
                     "        def sink(flit):")),
    Row("link-records-in-links", ONLY_INSIDE, "LinkRecord(", ("src/",),
        "The LinkRecord map is built in one place only, when Network.links "
        "is first read.",
        "25", Mutant("src/repro/obs/export.py",
                     "    record = LinkRecord(kind, src, dst)"),
        fixed=True, py_only=True,
        inside=Span(NETWORK, r"def links\(", "def flits_in_flight")),
    Row("lazy-package-init", ABSENT,
        r"^(from \.|from repro\b|import repro\b)",
        ("src/repro/**/__init__.py",),
        "A process imports what it runs: a package __init__ names its "
        "exports in its lazy_exports table (resolved on first access) and "
        "imports nothing else.",
        "31", Mutant("src/repro/traffic/__init__.py",
                     "from repro.traffic.injection import SyntheticTraffic"),
        unless="import lazy_exports"),
    Row("cli-lazy-figures", ABSENT, r"^from \.experiments",
        ("src/repro/cli.py",),
        "The CLI imports each figure driver inside the handler that runs it, "
        "never repro.experiments at module level.",
        "31", Mutant("src/repro/cli.py",
                     "from .experiments import fig6_synthetic")),
]


@dataclass(frozen=True)
class Hit:
    path: str
    no: int
    text: str

    def __str__(self) -> str:
        return f"{self.path}:{self.no}: {self.text.strip()}"


def _text(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def _lines(path: Path) -> list[str]:
    return _text(path).split("\n")


def _exempt(rel: str, exempt: tuple) -> bool:
    parts = rel.split("/")
    return any(e == rel or rel.startswith(e.rstrip("/") + "/") if "/" in e
               else e in parts for e in exempt)


def _entry_files(root: Path, entry: str) -> list[Path]:
    if "*" in entry:
        found = root.glob(entry)
    elif (root / entry).is_dir():
        found = (root / entry).rglob("*")
    else:
        found = [root / entry]
    return sorted(p for p in found
                  if p.is_file() and "__pycache__" not in p.parts)


def _scanned(root: Path, row: Row):
    """Yield ``(relative path, line numbers or None for all)`` per file."""
    for entry in row.paths:
        if isinstance(entry, Span):
            if (root / entry.path).is_file():
                yield entry.path, entry.line_numbers(root)
            continue
        for p in _entry_files(root, entry):
            rel = p.relative_to(root).as_posix()
            if (row.py_only and p.suffix != ".py") or _exempt(rel, row.exempt):
                continue
            yield rel, None


def _hits(root: Path, row: Row) -> list[Hit]:
    pattern = re.escape(row.pattern) if row.fixed else row.pattern
    if row.word:
        pattern = rf"(?<!\w)(?:{pattern})(?!\w)"
    rx = re.compile(pattern, re.MULTILINE)
    hits = []
    for rel, only in _scanned(root, row):
        text = _text(root / rel)
        if rx.search(text):  # most files never match: skip the line split
            hits += [Hit(rel, no, line)
                     for no, line in enumerate(text.split("\n"), 1)
                     if (only is None or no in only) and rx.search(line)
                     and not (row.unless and row.unless in line)]
    return hits


def _in_scope(root: Path, scope: "str | Span", hit: Hit) -> bool:
    if isinstance(scope, Span):
        return hit.path == scope.path and hit.no in scope.line_numbers(root)
    if scope.endswith("/"):
        return hit.path.startswith(scope)
    return hit.path == scope


def offences(row: Row, root: Path) -> list[str]:
    """What breaks ``row`` in the tree at ``root``; empty when it holds."""
    hits = _hits(root, row)
    if row.kind == ABSENT:
        return [str(h) for h in hits]
    if row.kind == AT_MOST:
        n = len(hits) if row.per == "line" else len({h.path for h in hits})
        if n <= row.limit:
            return []
        return [f"{n} matching {row.per}s, at most {row.limit} allowed:"] + [
            str(h) for h in hits]
    if row.kind == IMPLIES:
        return [f"{h}  <- its file has no {row.then}" for h in hits
                if row.then not in _text(root / h.path)]
    assert row.kind == ONLY_INSIDE, row.kind
    scope = row.inside
    inner = [h for h in hits if _in_scope(root, scope, h)]
    bad = [f"{h}  <- outside {scope}" for h in hits if h not in inner]
    if row.count is not None and len(inner) != row.count:
        bad.append(f"{len(inner)} matches inside {scope}, {row.count} "
                   f"required")
    if row.present:
        text = _text(root / scope)
        bad += [f"{scope}: no {lit}" for lit in row.present if lit not in text]
    return bad


def verdict(row: Row, root: Path) -> str | None:
    """The failure report for ``row`` at ``root``, or None if it holds."""
    bad = offences(row, root)
    if not bad:
        return None
    return "\n".join([f"drift guard {row.name!r} ({row.kind}; PR {row.pr}): "
                      f"{row.reason}"] + ["  " + b for b in bad])


def _row_files(row: Row) -> set[str]:
    """Every file the row reads, relative to the root."""
    entries = [e.path if isinstance(e, Span) else e for e in row.paths]
    if row.inside is not None:
        entries.append(row.inside.path if isinstance(row.inside, Span)
                       else row.inside)
    return {p.relative_to(ROOT).as_posix()
            for e in entries for p in _entry_files(ROOT, e)}


def _plant(mutant: Mutant, root: Path) -> None:
    path = root / mutant.path
    lines = _lines(path)
    if mutant.replaces is None:
        lines.insert(len(lines) - 1 if lines[-1] == "" else len(lines),
                     mutant.line)
    else:
        at = next((i for i, line in enumerate(lines) if mutant.replaces in line),
                  None)
        assert at is not None, f"{mutant.path} has no {mutant.replaces!r}"
        lines[at] = mutant.line
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_tree_passes(row):
    failure = verdict(row, ROOT)
    assert failure is None, failure


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_row_fires_on_its_mutant(row, tmp_path):
    files = _row_files(row)
    assert row.mutant.path in files, "the mutant must go in a file the row reads"
    for rel in files:
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ROOT / rel, tmp_path / rel)
    _plant(row.mutant, tmp_path)
    failure = verdict(row, tmp_path)
    assert failure is not None, f"{row.name} did not fire on {row.mutant}"
    assert row.reason in failure and f"PR {row.pr}" in failure
