"""A plain point reuses the last point's wiring: ``Network.reset`` returns a
finished network to the state a fresh ``Network`` starts in, and
``PointRun`` keeps one finished plain network per process for the next point
on an equal scenario (docs/PERFORMANCE.md, "A plain point reuses the last
point's wiring")."""

import ast
import inspect
import multiprocessing
import textwrap
import types
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import repro.analysis.sweep as sweep
from repro.analysis.parallel import PointSpec, run_point
from repro.analysis.sweep import PointRun, _empty_network_slot, measure_point
from repro.check.oracle import diff_reuse_on_off
from repro.config import default_config
from repro.core.registry import algorithm_names, make_algorithm
from repro.faults import DegradedTopology, FaultEvent, FaultSchedule
from repro.network.buffers import NEVER_USED, CreditTracker
from repro.network.channel import Channel
from repro.network.network import Network
from repro.network.router import Router
from repro.network.simulator import Simulator
from repro.network.terminal import Terminal
from repro.obs import TraceOptions, record_hops
from repro.topology.hyperx import HyperX
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import UniformRandom
from repro.traffic.sizes import UniformSize

WIDTHS, TERMINALS = (3, 3), 2


def _labels(net) -> dict:
    """``id`` -> a label naming the object's place in the wiring: the same
    label in any two builds of one scenario.  Components compare by label;
    a labelled container compares by label *and* contents, so a per-port
    list that a tracker or a link record holds must stay the same object."""
    labels = {id(net): "net", id(net._calendar): "calendar",
              id(net._active_channels): "active channels",
              id(net._active_routers): "active routers",
              id(net._active_terminals): "active terminals",
              id(net.vc_map): "vc_map"}
    for b, bucket in enumerate(net._calendar):
        labels[id(bucket)] = ("bucket", b)
    for i, r in enumerate(net.routers):
        labels[id(r)] = ("router", i)
        labels[id(r._asleep)] = ("asleep", i)
        labels[id(r._dest_router)] = "dest_router"
        for p, unit in enumerate(r.inputs):
            labels[id(unit)] = ("input", i, p)
        for p, tracker in enumerate(r.credit_trackers):
            labels[id(tracker)] = ("tracker", i, p)
        for table, name in ((r.out_vc_owner, "owner"), (r.staged, "staged"),
                            (r._staged_live, "live")):
            for p, per_port in enumerate(table):
                labels[id(per_port)] = (name, i, p)
    for i, t in enumerate(net.terminals):
        labels[id(t)] = ("terminal", i)
        labels[id(t.inject_credits)] = ("injection tracker", i)
    for i, ch in enumerate(net.channels):
        labels[id(ch)] = ("channel", i)
    return labels


COMPONENT = ("net", "vc_map", "router", "terminal", "input", "tracker",
             "injection tracker", "channel")


def _canon(x, labels):
    """A comparable picture of ``x``: wiring objects by their label, queues
    and tables by value (``NEVER_USED`` by name), anything else by
    identity (the rebound topology, algorithm and config are the same
    objects in both networks; a leftover packet or route is not)."""
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if x is NEVER_USED:
        return "NEVER_USED"
    label = labels.get(id(x))
    kind = label if isinstance(label, str) else label and label[0]
    if kind in COMPONENT:
        return label
    if isinstance(x, types.MethodType):
        return ("method", _canon(x.__self__, labels), x.__func__.__name__)
    if isinstance(x, dict):
        body = [(_canon(k, labels), _canon(v, labels)) for k, v in x.items()]
    elif isinstance(x, (set, frozenset)):
        body = sorted(repr(_canon(v, labels)) for v in x)
    elif isinstance(x, (list, tuple)) or type(x).__name__ == "deque":
        body = [_canon(v, labels) for v in x]
    else:
        return ("object", id(x))
    return (label, type(x).__name__, body)


def _fields(obj) -> dict:
    names = getattr(type(obj), "__slots__", None)
    return dict(vars(obj)) if names is None else {n: getattr(obj, n) for n in names}


def _state(net, labels) -> dict:
    """Every field of every component, as :func:`_canon` sees it (the
    jitter ring and the generator behind it are compared by their draws)."""
    parts = [("net", net), ("vc_map", net.vc_map)]
    parts += [(labels[id(c)], c) for c in (*net.routers, *net.terminals,
                                           *net.channels)]
    parts += [(labels[id(u)], u) for r in net.routers for u in r.inputs]
    parts += [(labels[id(t)], t) for r in net.routers for t in r.credit_trackers]
    parts += [(labels[id(t.inject_credits)], t.inject_credits)
              for t in net.terminals]
    out = {}
    for label, obj in parts:
        fields = _fields(obj)
        for name in ("rng", "_jitter"):
            fields.pop(name, None)
        out[label] = {k: _canon(v, labels) for k, v in fields.items()}
    return out


def _dirty(net) -> None:
    """What a saturating run leaves as built, set by hand so that
    ``reset`` must restore it: observer hooks and listeners, a degraded
    link, a cache eviction, a stalled decision, and what a raising step
    would leave behind (pass scratch lists, an unconsumed arrival)."""
    record_hops(net)
    for r in net.routers:
        r.add_forward_hook(lambda *args: None)
        r.route_cache_evictions += 1
        r.route_stalls += 1
        r._dead_in.append(0)
        r._dead_out.append(0)
    for t in net.terminals:
        t.delivery_listeners.append(print)
        t.inject_listeners.append(print)
        t._arrived = (0, None)
    net.channels[0].min_gap = 3


VARIANTS = [(name, {}) for name in algorithm_names()] + [
    ("DimWAR", {"arbiter": "round_robin"}),
    ("UGAL", {"sequential_allocation": True}),
]


@pytest.mark.parametrize(
    "name,router", VARIANTS,
    ids=[n + "".join(f"-{k}" for k in kw) for n, kw in VARIANTS])
def test_a_reset_network_is_a_fresh_network(name, router):
    cfg = default_config()
    cfg = replace(cfg, router=replace(cfg.router, **router))
    topo = HyperX(WIDTHS, TERMINALS)
    used = Network(topo, make_algorithm(name, topo), cfg)
    sim = Simulator(used)
    sim.add_process(SyntheticTraffic(
        used, UniformRandom(topo.num_terminals), 1.0, UniformSize(1, 16), seed=2))
    sim.run(300)
    assert used.total_ejected_flits() > 0
    assert any(r._active_in for r in used.routers)
    assert any(r._asleep for r in used.routers)
    _dirty(used)

    # The next point's scenario: equal by value, other objects.
    topo = HyperX(WIDTHS, TERMINALS)
    algo, cfg = make_algorithm(name, topo), replace(cfg)
    fresh = Network(topo, algo, cfg)
    assert used.reset(topo, algo, cfg) is used
    assert _state(used, _labels(used)) == _state(fresh, _labels(fresh))

    drawn = 0
    for was, new in zip(used.routers, fresh.routers):
        ring = len(was._jitter)
        drawn += ring
        assert was._jitter == new.rng.random(ring).tolist()
        assert np.array_equal(was.rng.random(16), new.rng.random(16))
    assert drawn > 0


def _unpacked(target):
    """The single targets of an assignment target (tuples unpacked)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _unpacked(elt)
    elif isinstance(target, ast.Starred):
        yield from _unpacked(target.value)
    else:
        yield target


def _self_writes(method: ast.FunctionDef) -> set[str]:
    """The ``self.<name>`` attributes ``method`` binds (an in-place fill
    such as ``self.staged[p][:] = ...`` binds none)."""
    names = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for t in _unpacked(target):
                if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                        and t.value.id == "self"):
                    names.add(t.attr)
    return names


@pytest.mark.parametrize("cls", [Router, Terminal, Channel, CreditTracker],
                         ids=lambda cls: cls.__name__)
def test_reset_is_the_one_writer_of_run_state(cls):
    """``__init__`` builds the wiring and calls ``reset()`` once; no field is
    written by both, so a field added to one cannot be missed by the
    other and leak from one point into the next."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    methods = {node.name: node for node in tree.body[0].body
               if isinstance(node, ast.FunctionDef)}
    init, reset = methods["__init__"], methods["reset"]
    calls = [node for node in ast.walk(init) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "reset"
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "self"]
    assert len(calls) == 1
    assert _self_writes(init) & _self_writes(reset) == set()
    assert _self_writes(reset)


def _plain_or_not(kind, tmp_path):
    """One point on the 3x3 t=2 DimWAR scenario; ``kind`` picks what makes it
    something other than a plain point."""
    topo = HyperX(WIDTHS, TERMINALS)
    kwargs = {
        "plain": {},
        "check": {"check": True},
        "trace": {"trace": TraceOptions(out_dir=str(tmp_path))},
        "faults": {"schedule": FaultSchedule([FaultEvent(30, "link", 0, port=0)])},
        "degraded": {},
        "owned_routers": {"owned_routers": frozenset(range(9))},
    }[kind]
    if kind in ("faults", "degraded"):
        topo = DegradedTopology(topo)
    algo = make_algorithm("DimWAR", topo)
    with PointRun(topo, algo, UniformRandom(topo.num_terminals), 0.3,
                  **kwargs) as run:
        run.run(100)
        net = run.net
        run.close("point")
    return net


@pytest.mark.parametrize(
    "kind", ["check", "trace", "faults", "degraded", "owned_routers"])
def test_only_a_plain_point_is_pooled(kind, tmp_path, monkeypatch):
    """An observed, faulted, degraded or partial point builds and closes as
    ever: it takes nothing from the slot (the plain point before it is
    closed first) and leaves nothing in it."""
    built = []

    def counting(*args, **kwargs):
        built.append(Network(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sweep, "Network", counting)
    _empty_network_slot()
    plain = _plain_or_not("plain", tmp_path)
    assert plain.routers[0].fifos is not None  # waiting in the slot
    other = _plain_or_not(kind, tmp_path)
    assert other is built[1]
    for net in (plain, other):  # both closed
        with pytest.raises(AttributeError):
            net.routers[0].fifos
    again = _plain_or_not("plain", tmp_path)
    assert len(built) == 3 and again is built[2]
    assert _empty_network_slot() == 0


def test_a_plain_point_leaves_no_reference_behind():
    topo = HyperX(WIDTHS, TERMINALS)
    with PointRun(topo, make_algorithm("DimWAR", topo),
                  UniformRandom(topo.num_terminals), 0.3) as run:
        run.run(50)
        assert run.net.total_ejected_flits() > 0
    for name in ("net", "sim", "traffic"):
        with pytest.raises(AttributeError):
            getattr(run, name)
    assert run._lifetime.built is None


def test_an_unequal_scenario_builds_afresh(monkeypatch):
    """Each part of the key — widths, terminals per router, any config
    value, the algorithm's VcMap inputs — forces a build; an equal one by
    value (other objects, another algorithm of the same classes) reuses."""
    built = []

    def counting(*args, **kwargs):
        built.append(args[:3])
        return Network(*args, **kwargs)

    monkeypatch.setattr(sweep, "Network", counting)
    _empty_network_slot()
    base = default_config()
    points = [
        ((3, 3), 2, "DimWAR", base, True),
        ((3, 3), 2, "DimWAR", default_config(), False),
        ((3, 3), 2, "UGAL", default_config(), False),  # same classes
        ((3, 3), 2, "OmniWAR", base, True),  # more classes
        ((3, 3), 1, "OmniWAR", base, True),
        ((3, 4), 1, "OmniWAR", base, True),
        ((3, 4), 1, "OmniWAR", default_config(seed=7), True),
        ((3, 4), 1, "OmniWAR", replace(base, router=replace(
            base.router, buffer_depth=12)), True),
        ((3, 4), 1, "FTHX", base, True),
        ((3, 4), 1, "FTHX", base, False),
    ]
    for widths, t, name, cfg, builds in points:
        topo = HyperX(widths, t)
        n = len(built)
        measure_point(topo, make_algorithm(name, topo),
                      UniformRandom(topo.num_terminals), 0.2,
                      total_cycles=60, cfg=cfg)
        assert len(built) == n + builds, (widths, t, name)
    assert _empty_network_slot() == 1  # the last point reused its network


_INHERITED: dict = {}


def _point_in_a_forked_worker(spec):
    net = _INHERITED["net"]
    before = net.routers[0].flits_forwarded
    run_point(spec)
    return before, net.routers[0].flits_forwarded, _empty_network_slot()


def test_a_forked_worker_never_touches_the_inherited_network():
    """A worker forked while a network waits in the slot builds its own:
    the parent's network is neither reset (its counters stand) nor closed
    (its state still reads) in the child."""
    spec = PointSpec(WIDTHS, TERMINALS, "DimWAR", "UR", 0.4, total_cycles=100)
    _empty_network_slot()
    topo, algo, pattern = spec.build()
    with PointRun(topo, algo, pattern, spec.rate) as run:
        run.run(100)
        _INHERITED["net"] = net = run.net
    forwarded = net.routers[0].flits_forwarded
    assert forwarded > 0
    try:
        with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            before, after, reuses = pool.submit(
                _point_in_a_forked_worker, spec).result()
    finally:
        _INHERITED.clear()
    assert before == after == forwarded
    assert reuses == 0  # the child's point built its own network
    _empty_network_slot()  # the parent's slot still holds its own network
    with pytest.raises(AttributeError):
        net.routers[0].fifos


def test_the_reuse_oracle_sees_a_forgotten_field(monkeypatch):
    """``diff_reuse_on_off`` passes on the tree and fails when a reset
    leaves a field as the last point left it (here: consumed credits; the
    broken reset still fills a fresh tracker, which ``__init__`` hands to
    it)."""
    args = {"widths": WIDTHS, "rates": (0.3, 0.6), "total_cycles": 600}
    assert diff_reuse_on_off(**args).ok
    fill = CreditTracker.reset
    monkeypatch.setattr(CreditTracker, "reset", lambda self: (
        None if hasattr(self, "credits") else fill(self)))
    report = diff_reuse_on_off(**args)
    assert not report.ok and report.detail.startswith("point ")
