"""Documentation consistency checks — docs must not rot.

Verifies that DESIGN.md / EXPERIMENTS.md / README.md reference modules,
benchmarks, and CLI figures that actually exist, and that every public
module has a docstring.
"""

import doctest
import glob
import importlib
import os
import pkgutil
import re

import pytest

import repro

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _read(name):
    with open(os.path.join(ROOT, name)) as f:
        return f.read()


def test_design_references_existing_modules():
    text = _read("DESIGN.md")
    for ref in re.findall(r"`repro\.[a-z_.]+`", text):
        mod = ref.strip("`")
        # allow references to attributes: import the longest importable prefix
        parts = mod.split(".")
        for cut in range(len(parts), 1, -1):
            try:
                importlib.import_module(".".join(parts[:cut]))
                break
            except ImportError:
                continue
        else:
            raise AssertionError(f"DESIGN.md references missing module {mod}")


def test_design_references_existing_files():
    text = _read("DESIGN.md") + _read("EXPERIMENTS.md")
    for ref in re.findall(r"`(benchmarks/[a-z0-9_]+\.py)`", text):
        assert os.path.exists(os.path.join(ROOT, ref)), f"missing {ref}"
    for ref in re.findall(r"`(tests/[a-z0-9_]+\.py)`", text):
        assert os.path.exists(os.path.join(ROOT, ref)), f"missing {ref}"


def test_experiments_cli_figures_exist():
    from repro.cli import FIGURES

    text = _read("EXPERIMENTS.md")
    for name in re.findall(r"python -m repro figure ([a-z0-9_]+)", text):
        assert name in FIGURES, f"EXPERIMENTS.md references unknown figure {name}"


def test_readme_examples_exist():
    text = _read("README.md")
    for ref in re.findall(r"examples/([a-z_]+\.py)", text):
        assert os.path.exists(os.path.join(ROOT, "examples", ref)), ref


def test_every_module_has_docstring():
    missing = []
    for m in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if m.name.endswith("__main__"):
            continue
        mod = importlib.import_module(m.name)
        if not (mod.__doc__ or "").strip():
            missing.append(m.name)
    assert not missing, f"modules without docstrings: {missing}"


def _markdown_files():
    out = []
    for d in (ROOT, os.path.join(ROOT, "docs")):
        for fn in sorted(os.listdir(d)):
            if fn.endswith(".md"):
                out.append(os.path.join(d, fn))
    return out


def test_markdown_links_resolve():
    """Every relative link in root and docs/ markdown points at a real file."""
    link = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
    bad = []
    for path in _markdown_files():
        with open(path) as f:
            text = f.read()
        for target in link.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), rel))
            if not os.path.exists(resolved):
                bad.append(f"{os.path.relpath(path, ROOT)} -> {target}")
    assert not bad, f"markdown links to missing files: {bad}"


def test_faults_doc_covers_the_cli():
    text = _read(os.path.join("docs", "FAULTS.md"))
    for flag in (
        "--fail-links", "--fail-routers", "--fault-seed", "--schedule",
        "--compare", "--fault-counts", "--widths", "--terminals",
        "--no-saturation", "--granularity", "--max-rate", "--workers",
    ):
        assert flag in text, f"docs/FAULTS.md does not document {flag}"
    assert "python -m repro faults" in text


def test_faults_doc_covers_the_successor_algorithms():
    """The fault round's algorithms and their papers must be documented in
    both the fault guide and the algorithm reference."""
    faults = _read(os.path.join("docs", "FAULTS.md"))
    algos = _read(os.path.join("docs", "ALGORITHMS.md"))
    for name in ("FTHX", "VCFree"):
        assert name in faults, f"docs/FAULTS.md does not mention {name}"
        assert name in algos, f"docs/ALGORITHMS.md does not mention {name}"
    for arxiv_id in ("2404.04315", "2510.14730"):
        assert arxiv_id in algos, (
            f"docs/ALGORITHMS.md does not cite arXiv:{arxiv_id}"
        )


def test_observability_doc_covers_the_cli():
    text = _read(os.path.join("docs", "OBSERVABILITY.md"))
    for flag in (
        "--sample-every", "--window", "--heatmap", "--golden",
        "--jsonl", "--chrome", "--profile", "--update-golden",
    ):
        assert flag in text, f"docs/OBSERVABILITY.md does not document {flag}"
    assert "python -m repro trace" in text
    # The event schema table must name every event type the tracer emits.
    from repro.obs import EVENT_TYPES

    for t in EVENT_TYPES:
        assert f"`{t}`" in text, f"docs/OBSERVABILITY.md misses event {t!r}"


def test_service_doc_covers_the_cli():
    text = _read(os.path.join("docs", "SERVICE.md"))
    for flag in (
        "--host", "--port", "--workers", "--queue-depth",
        "--rate-limit", "--burst", "--memo-root", "--job-log",
    ):
        assert flag in text, f"docs/SERVICE.md does not document {flag}"
    assert "python -m repro serve" in text
    # Every endpoint the handler routes must appear in the doc.
    for endpoint in ("/jobs", "/healthz", "/stats", "/cancel", "/result"):
        assert endpoint in text, f"docs/SERVICE.md misses endpoint {endpoint}"
    # ...and every HTTP status the error contract can produce.
    for code in ("400", "404", "409", "413", "429", "503"):
        assert code in text, f"docs/SERVICE.md misses status {code}"


#: Modules whose docstrings promise runnable examples (ISSUE: fault modules
#: plus the parallel engine, telemetry probe, and the observability layer;
#: the simulator's run_until contract rides along since the skip-ahead PR).
DOCTEST_MODULES = [
    "repro.faults",
    "repro.faults.model",
    "repro.faults.degraded",
    "repro.faults.inject",
    "repro.analysis.parallel",
    "repro.network.simulator",
    "repro.network.telemetry",
    "repro.check.sanitizer",
    "repro.check.oracle",
    "repro.obs.tracer",
    "repro.obs.timeseries",
    "repro.obs.profile",
    "repro.service.spec",
    "repro.service.jobs",
    "repro.service.ratelimit",
]


@pytest.mark.parametrize("name", DOCTEST_MODULES)
def test_module_doctests_pass(name):
    mod = importlib.import_module(name)
    result = doctest.testmod(mod, verbose=False)
    assert result.attempted > 0, f"{name} has no doctest examples"
    assert result.failed == 0, f"{name} doctests failed"


def test_performance_doc_covers_fallback_reasons():
    """docs/PERFORMANCE.md's fallback matrix must name every
    ``*_fallback_reason`` attribute the engines expose."""
    attrs = set()
    src = os.path.join(ROOT, "src", "repro", "network")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for fn in filenames:
            with open(os.path.join(dirpath, fn), errors="replace") as f:
                attrs.update(re.findall(r"[a-z_]+_fallback_reason", f.read()))
    assert attrs, "no *_fallback_reason attributes found under src/repro/network/"
    text = _read(os.path.join("docs", "PERFORMANCE.md"))
    missing = sorted(a for a in attrs if a not in text)
    assert not missing, f"docs/PERFORMANCE.md does not document: {missing}"


# A citation names the file (bare, in backticks or as a markdown link
# target), then one or more double-quoted titles joined by commas or "and".
_CITED = re.compile(
    r'PERFORMANCE\.md`?\)?,?\s+("[^"]+"(?:(?:\s*,)?(?:\s+and)?\s+"[^"]+")*)')


def _citing_files():
    for pattern in ("src/**/*.py", "tests/**/*.py", "benchmarks/*.py", "docs/*.md",
                    "DESIGN.md", "README.md", "ROADMAP.md"):
        yield from sorted(glob.glob(os.path.join(ROOT, pattern), recursive=True))


def _cited_titles(text):
    """Titles cited in ``text``, read as one line of prose: adjacent Python
    string literals joined, ``#`` comment prefixes and line wraps dropped,
    escaped quotes unescaped."""
    text = re.sub(r'"\s*\n\s*"', "", text).replace('\\"', '"')
    flat = " ".join(re.sub(r"^\s*(#+\s*)?", "", line) for line in text.splitlines())
    return [t for group in _CITED.findall(flat) for t in re.findall(r'"([^"]+)"', group)]


def test_cited_performance_titles_are_headings():
    """Every section title the code and the docs cite from docs/PERFORMANCE.md
    is still one of its headings."""
    headings = {m.strip() for m in re.findall(
        r"^#+\s+(.+)$", _read(os.path.join("docs", "PERFORMANCE.md")), re.M)}
    cited = {}
    for path in _citing_files():
        with open(path, errors="replace") as f:
            for title in _cited_titles(f.read()):
                cited.setdefault(title, []).append(os.path.relpath(path, ROOT))
    # the normaliser must see through a wrapped docstring citing two titles
    # and an escaped title inside a Python string
    for path, title in (("tests/test_construction.py", "A built network is its state"),
                        ("tests/test_drift_guards.py", "Construction without the collector")):
        assert path in cited.get(title, ()), f"{path} citation of {title!r} not read"
    missing = {t: sorted(set(p)) for t, p in cited.items() if t not in headings}
    assert not missing, f"cited titles that are not headings of docs/PERFORMANCE.md: {missing}"


def test_public_algorithms_documented_in_algorithms_md():
    from repro.core.registry import algorithm_names

    text = _read(os.path.join("docs", "ALGORITHMS.md"))
    for name in algorithm_names():
        base = name.replace("-b2b", "")
        assert base in text, f"docs/ALGORITHMS.md does not mention {base}"
