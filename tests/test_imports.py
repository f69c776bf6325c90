"""A process imports what it runs.

Each entry-point case runs in a fresh interpreter (``sys.executable`` with
``PYTHONPATH=src``) and pins the set of modules one entry point leaves in
``sys.modules``: package exports resolve on first access, the registry
imports the one algorithm it builds, the CLI imports the one subcommand it
runs.  The export-table cases hold every package's ``__all__`` to the
objects its defining modules hold.
"""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line, as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after it has run ``code``."""
    return set(_fresh(textwrap.dedent(code) + (
        "\nimport json as _json, sys as _sys\n"
        "print(_json.dumps(sorted(_sys.modules)))\n"
    )))


def _under(modules: set[str], roots) -> list[str]:
    return sorted(m for m in modules
                  if any(m == r or m.startswith(r + ".") for r in roots))


def test_a_sweep_imports_no_other_layer():
    mods = _modules_after("""
        from repro.analysis import sweep_load
        from repro.core.registry import make_algorithm
        from repro.topology.hyperx import HyperX
        from repro.traffic.patterns import pattern_by_name

        topo = HyperX((2, 2), 1)
        sweep_load(topo, make_algorithm("DimWAR", topo),
                   pattern_by_name("UR", topo), [0.1, 0.2], total_cycles=300)
    """)
    assert "repro.analysis.sweep" in mods
    assert _under(mods, (
        "repro.service", "repro.obs", "repro.check", "repro.experiments",
        "repro.cost", "repro.faults", "concurrent.futures", "http.server",
    )) == []


def test_the_registry_imports_the_one_algorithm_it_builds():
    from repro.core.registry import algorithm_names, make_algorithm
    from repro.topology.hyperx import HyperX

    algorithm_modules = {
        type(make_algorithm(name, HyperX((2, 2), 1))).__module__
        for name in algorithm_names()
    }
    mods = _modules_after("""
        from repro import HyperX, make_algorithm

        make_algorithm("DimWAR", HyperX((2, 2), 1))
    """)
    assert "repro.core.dimwar" in algorithm_modules
    assert sorted(algorithm_modules & mods) == ["repro.core.dimwar"]


def test_a_figure_driver_imports_no_other_driver():
    import repro.experiments

    drivers = {
        f"repro.experiments.{m.name}"
        for m in pkgutil.iter_modules(repro.experiments.__path__)
    } - {"repro.experiments.common"}
    mods = _modules_after(
        "from repro.experiments.fig8_stencil import run_stencil_once"
    )
    assert sorted(drivers & mods) == ["repro.experiments.fig8_stencil"]


def test_cli_help_imports_no_numpy():
    mods = _modules_after("""
        import runpy, sys

        sys.argv = ["repro", "--help"]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            assert exc.code == 0
    """)
    assert "repro.cli" in mods
    assert _under(mods, ("numpy", "repro.analysis.sweep",
                         "repro.network")) == []


def test_a_cold_service_job_forks_warm_workers():
    # The runner's one pool is built by its first cold job, after the
    # runner imported the point runner and build_request built the
    # algorithm, so its forked workers import nothing: record sys.modules
    # when a pool is constructed.  A second cold job reuses that pool.
    at_pool = set(_fresh("""
        import concurrent.futures, json, sys, tempfile

        from repro.analysis.memo import SweepMemo
        from repro.service.jobs import JobQueue, JobStore
        from repro.service.spec import build_request

        at_pool = []

        class Recorder(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                at_pool.append(sorted(sys.modules))
                super().__init__(*args, **kwargs)

        concurrent.futures.ProcessPoolExecutor = Recorder
        queue = JobQueue(JobStore(), SweepMemo(root=tempfile.mkdtemp()),
                         workers=2).start()
        jobs = []
        for seed in (1, 2):
            job, _ = queue.submit(build_request({
                "widths": [2, 2], "algorithm": "OmniWAR", "rates": [0.1, 0.2],
                "total_cycles": 200, "stop_after_unstable": False,
                "seed": seed,
            }))
            assert queue.join(timeout=90)
            jobs.append(job)
        queue.stop()
        assert [job.state for job in jobs] == ["done", "done"]
        assert len(at_pool) == 1 and queue.pool_builds == 1
        print(json.dumps(at_pool[0]))
    """))
    for module in ("repro.analysis.sweep", "repro.network.router",
                   "repro.core.omniwar"):
        assert module in at_pool


# -- export tables ----------------------------------------------------------

PACKAGES = ["repro"] + sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if m.ispkg
)


def _defined(package, name: str):
    """``name`` as its defining module (per the package's table) holds it."""
    module = package._EXPORTS[name]
    if module is None:
        return importlib.import_module(f".{name}", package.__name__)
    return getattr(importlib.import_module(module, package.__name__), name)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_its_defining_modules_object(name):
    package = importlib.import_module(name)
    assert package.__all__ == list(package._EXPORTS)
    listed = dir(package)
    for export in package.__all__:
        assert getattr(package, export) is _defined(package, export), export
        assert export in listed, export


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_export(name):
    package = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    for export in package.__all__:
        assert namespace[export] is _defined(package, export), export


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_names_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=re.escape(repr(name))):
        getattr(package, "no_such_export")


def test_an_export_named_after_its_module_survives_the_module_import():
    # repro.analysis.ascii_plot is a module and the function it defines;
    # importing the module first must not rebind the package's export.
    mods = _modules_after("""
        from repro.analysis.ascii_plot import ascii_plot as defined
        from repro.analysis import ascii_plot

        assert ascii_plot is defined
    """)
    assert "repro.analysis.ascii_plot" in mods
