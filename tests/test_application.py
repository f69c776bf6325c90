"""Tests for the 27-point stencil application model."""

import dataclasses
import itertools
import json
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.application.collective import DisseminationCollective
from repro.application.engine import StencilApplication
from repro.application.placement import LinearPlacement, RandomPlacement
from repro.application.stencil import Neighbor, StencilDecomposition
from repro.config import default_config
from repro.core.registry import make_algorithm
from repro.experiments.common import SCALES
from repro.experiments.fig8_stencil import run_stencil_once
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.topology.hyperx import HyperX


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


def test_periodic_grid_has_26_neighbors():
    d = StencilDecomposition((3, 3, 3), aggregate_flits=260)
    for rank in range(d.num_ranks):
        nbrs = d.neighbors(rank)
        assert len(nbrs) == 26  # the 27-point stencil's 26 halo partners
        kinds = [n.kind for n in nbrs]
        assert kinds.count("face") == 6
        assert kinds.count("edge") == 12
        assert kinds.count("corner") == 8


def test_nonperiodic_corner_rank_has_7_neighbors():
    d = StencilDecomposition((3, 3, 3), aggregate_flits=260, periodic=False)
    # a corner sub-cube touches 7 others: 3 faces, 3 edges, 1 corner
    corner = d.rank_id((0, 0, 0))
    nbrs = d.neighbors(corner)
    assert len(nbrs) == 7
    center = d.rank_id((1, 1, 1))
    assert len(d.neighbors(center)) == 26


def test_neighbor_sizes_follow_face_edge_corner_weights():
    d = StencilDecomposition(
        (3, 3, 3), aggregate_flits=2600, face_edge_corner_weights=(16, 4, 1)
    )
    nbrs = d.neighbors(0)
    by_kind = {k: next(n for n in nbrs if n.kind == k).size_flits
               for k in ("face", "edge", "corner")}
    assert by_kind["face"] > by_kind["edge"] > by_kind["corner"] >= 1
    assert by_kind["face"] == pytest.approx(16 * by_kind["corner"], rel=0.30)


def test_aggregate_roughly_preserved():
    d = StencilDecomposition((4, 4, 4), aggregate_flits=2600)
    total = sum(n.size_flits for n in d.neighbors(5))
    assert total == pytest.approx(2600, rel=0.05)


def test_neighbor_symmetry():
    """If A lists B as a neighbour, B lists A (same offsets, mirrored)."""
    d = StencilDecomposition((3, 4, 2), aggregate_flits=260)
    for rank in range(d.num_ranks):
        for n in d.neighbors(rank):
            back = [m.rank for m in d.neighbors(n.rank)]
            assert rank in back


def test_coords_roundtrip_and_traffic_matrix():
    d = StencilDecomposition((2, 3, 4), aggregate_flits=520)
    for r in range(d.num_ranks):
        assert d.rank_id(d.coords(r)) == r
    tm = d.traffic_matrix()
    assert all(src != dst for src, dst in tm)
    assert all(f >= 1 for f in tm.values())


def test_decomposition_validation():
    with pytest.raises(ValueError):
        StencilDecomposition((0, 3, 3), aggregate_flits=260)
    with pytest.raises(ValueError):
        StencilDecomposition((3, 3, 3), aggregate_flits=10)
    with pytest.raises(ValueError):
        StencilDecomposition((3, 3, 3), aggregate_flits=260,
                             face_edge_corner_weights=(0, 1, 1))


def _neighbors_from_scratch(grid, aggregate, periodic, weights, rank):
    """The halo partners of ``rank``, enumerated here from the geometry
    alone (Figure 7b): the oracle for the decomposition's table."""
    gx, gy, gz = grid
    x, y, z = rank % gx, (rank // gx) % gy, rank // (gx * gy)
    weight_of = dict(zip(("face", "edge", "corner"), weights))
    found = []
    for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3):
        if (dx, dy, dz) == (0, 0, 0):
            continue
        nx, ny, nz = x + dx, y + dy, z + dz
        if periodic:
            nx, ny, nz = nx % gx, ny % gy, nz % gz
        elif not (0 <= nx < gx and 0 <= ny < gy and 0 <= nz < gz):
            continue
        nbr = nx + ny * gx + nz * gx * gy
        if nbr != rank:
            kind = ("face", "edge", "corner")[abs(dx) + abs(dy) + abs(dz) - 1]
            found.append((nbr, kind))
    total = sum(weight_of[kind] for _, kind in found)
    return [
        Neighbor(nbr, kind, max(1, round(aggregate * weight_of[kind] / total)))
        for nbr, kind in found
    ]


_extent = st.integers(1, 4)
_weight = st.floats(0.25, 32.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(grid=st.tuples(_extent, _extent, _extent), periodic=st.booleans(),
       weights=st.tuples(_weight, _weight, _weight),
       aggregate=st.integers(26, 3000), order_seed=st.integers(0, 999))
def test_property_neighbor_table_matches_enumeration(
    grid, periodic, weights, aggregate, order_seed
):
    """The tabulated schedule is the from-scratch one, for every rank, in
    any call order, on the first call and on the lookups after it."""
    d = StencilDecomposition(grid, aggregate, periodic, weights)
    ranks = list(range(d.num_ranks)) * 2
    random.Random(order_seed).shuffle(ranks)
    for rank in ranks:
        nbrs = d.neighbors(rank)
        assert type(nbrs) is tuple
        assert list(nbrs) == _neighbors_from_scratch(
            grid, aggregate, periodic, weights, rank
        )
        assert d.neighbor_count(rank) == len(nbrs)
        assert d.neighbors(rank) is nbrs  # derived once, then looked up
    tm = {}
    for rank in range(d.num_ranks):
        for n in _neighbors_from_scratch(grid, aggregate, periodic, weights, rank):
            tm[(rank, n.rank)] = tm.get((rank, n.rank), 0) + n.size_flits
    assert d.traffic_matrix() == tm


def test_decompositions_never_share_a_table():
    a = StencilDecomposition((3, 3, 3), aggregate_flits=260)
    b = StencilDecomposition((3, 3, 3), aggregate_flits=2600)
    assert a.neighbors(4) == a.neighbors(4)
    assert [n.rank for n in a.neighbors(4)] == [n.rank for n in b.neighbors(4)]
    assert a.neighbors(4) != b.neighbors(4)  # sizes follow each one's aggregate
    assert a._neighbors is not b._neighbors


# ---------------------------------------------------------------------------
# Collective
# ---------------------------------------------------------------------------


def test_dissemination_rounds_are_log2():
    assert DisseminationCollective(8).num_rounds == 3
    assert DisseminationCollective(27).num_rounds == 5  # ceil(log2 27)
    assert DisseminationCollective(2).num_rounds == 1


def test_dissemination_sends_are_id_plus_minus_2k():
    c = DisseminationCollective(16)
    sends = c.sends(5, 0)
    assert {s.dst_rank for s in sends} == {4, 6}  # ID-1, ID+1
    sends = c.sends(5, 2)
    assert {s.dst_rank for s in sends} == {1, 9}  # ID-4, ID+4


def test_dissemination_send_recv_symmetry():
    """Every send in a round has a matching expected receive at the peer."""
    for n in (5, 8, 12):
        c = DisseminationCollective(n)
        for rnd in range(c.num_rounds):
            incoming = {r: 0 for r in range(n)}
            for rank in range(n):
                for s in c.sends(rank, rnd):
                    incoming[s.dst_rank] += 1
            for rank in range(n):
                assert incoming[rank] == c.expected_receives(rank, rnd)


def test_dissemination_degenerate_half_distance():
    # N=4, round 1: ID+2 == ID-2 (mod 4) -> a single send, not two
    c = DisseminationCollective(4)
    assert len(c.sends(0, 1)) == 1


def test_collective_validation():
    with pytest.raises(ValueError):
        DisseminationCollective(1)
    with pytest.raises(ValueError):
        DisseminationCollective(8, message_flits=0)
    with pytest.raises(ValueError):
        DisseminationCollective(8).sends(0, 99)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 70), order_seed=st.integers(0, 999))
def test_property_send_table_matches_enumeration(n, order_seed):
    c = DisseminationCollective(n)
    assert c.num_rounds == max(1, math.ceil(math.log2(n)))
    keys = [(r, k) for r in range(n) for k in range(c.num_rounds)] * 2
    random.Random(order_seed).shuffle(keys)
    for rank, rnd in keys:
        sends = c.sends(rank, rnd)
        assert type(sends) is tuple
        expected = sorted({(rank + 2 ** rnd) % n, (rank - 2 ** rnd) % n} - {rank})
        assert [(s.round, s.dst_rank) for s in sends] == [(rnd, d) for d in expected]
        assert c.expected_receives(rank, rnd) == len(expected)
        assert c.sends(rank, rnd) is sends
    for rnd in (-1, c.num_rounds):
        with pytest.raises(ValueError):
            c.sends(0, rnd)
        with pytest.raises(ValueError):
            c.expected_receives(0, rnd)
    assert DisseminationCollective(n)._sends is not c._sends


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


def test_linear_placement():
    p = LinearPlacement(10, 20)
    p.validate()
    assert p.terminal_of(3) == 3
    assert p.rank_of(3) == 3
    assert p.rank_of(15) is None


def test_random_placement_is_injective_and_seeded():
    a = RandomPlacement(20, 30, seed=4)
    b = RandomPlacement(20, 30, seed=4)
    c = RandomPlacement(20, 30, seed=5)
    a.validate()
    assert [a.terminal_of(r) for r in range(20)] == [
        b.terminal_of(r) for r in range(20)
    ]
    assert [a.terminal_of(r) for r in range(20)] != [
        c.terminal_of(r) for r in range(20)
    ]


def test_placement_rejects_overflow():
    with pytest.raises(ValueError):
        LinearPlacement(10, 5)


@settings(max_examples=25, deadline=None)
@given(ranks=st.integers(2, 40), extra=st.integers(0, 20), seed=st.integers(0, 99))
def test_property_random_placement_bijective(ranks, extra, seed):
    p = RandomPlacement(ranks, ranks + extra, seed=seed)
    terms = [p.terminal_of(r) for r in range(ranks)]
    assert len(set(terms)) == ranks
    for r, t in enumerate(terms):
        assert p.rank_of(t) == r


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _run_app(mode, iterations, algo="DimWAR", grid=(2, 2, 2), seed=1,
             widths=(3, 3), tpr=2):
    topo = HyperX(widths, tpr)
    algorithm = make_algorithm(algo, topo)
    net = Network(topo, algorithm, default_config())
    sim = Simulator(net)
    decomp = StencilDecomposition(grid, aggregate_flits=52)
    placement = RandomPlacement(decomp.num_ranks, topo.num_terminals, seed=seed)
    app = StencilApplication(net, decomp, placement, iterations=iterations, mode=mode)
    t = app.run(sim, max_cycles=2_000_000)
    return app, t


@pytest.mark.parametrize("mode", ["collective", "halo", "full"])
def test_app_completes(mode):
    app, t = _run_app(mode, iterations=1)
    assert app.done and t > 0
    assert app.execution_time == t


def test_app_message_counts():
    app, _ = _run_app("full", iterations=2, grid=(2, 2, 2))
    n = app.decomp.num_ranks
    halo_msgs = sum(app.decomp.neighbor_count(r) for r in range(n))
    coll_msgs = sum(
        len(app.collective.sends(r, k))
        for r in range(n)
        for k in range(app.collective.num_rounds)
    )
    assert app.messages_sent == 2 * (halo_msgs + coll_msgs)


def test_app_more_iterations_take_longer():
    _, t1 = _run_app("full", iterations=1)
    _, t4 = _run_app("full", iterations=4)
    assert t4 > t1 * 2


def test_collective_only_mode_sends_no_halos():
    app, _ = _run_app("collective", iterations=1, grid=(2, 2, 2))
    n = app.decomp.num_ranks
    coll_msgs = sum(
        len(app.collective.sends(r, k))
        for r in range(n)
        for k in range(app.collective.num_rounds)
    )
    assert app.messages_sent == coll_msgs


def test_app_rejects_bad_configs():
    topo = HyperX((3, 3), 2)
    algorithm = make_algorithm("DOR", topo)
    net = Network(topo, algorithm, default_config())
    decomp = StencilDecomposition((2, 2, 2), aggregate_flits=52)
    placement = RandomPlacement(decomp.num_ranks, topo.num_terminals)
    with pytest.raises(ValueError):
        StencilApplication(net, decomp, placement, mode="warp")
    with pytest.raises(ValueError):
        StencilApplication(net, decomp, placement, iterations=0)
    bad_placement = RandomPlacement(4, topo.num_terminals)
    with pytest.raises(ValueError):
        StencilApplication(net, decomp, bad_placement)


def test_app_deterministic():
    _, t1 = _run_app("full", 1, seed=2)
    _, t2 = _run_app("full", 1, seed=2)
    assert t1 == t2


def test_full_bar_derives_each_ranks_neighbours_at_most_once(monkeypatch):
    """The schedule is compiled, not re-derived per delivery: 64 ranks,
    64 enumerations (1,920 before the table)."""
    derived = []
    enumerate_neighbors = StencilDecomposition._enumerate_neighbors

    def counting(self, rank):
        derived.append(rank)
        return enumerate_neighbors(self, rank)

    monkeypatch.setattr(StencilDecomposition, "_enumerate_neighbors", counting)
    app, _ = _run_app("full", iterations=1, grid=(4, 4, 4), widths=(4, 4), tpr=4)
    assert app.decomp.num_ranks == 64
    assert sorted(derived) == list(range(64))
    assert app.ranks_done() == 64 and app.done


# ---------------------------------------------------------------------------
# Golden Figure 8 bars
# ---------------------------------------------------------------------------

STENCIL_GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "stencil_times.json"
)


def _stencil_times_json():
    """Nine Figure 8 bars at smoke scale plus one collective bar over the
    paper's 50-cycle channels (a ``Scale`` named "paper" selects
    ``paper_scale()`` latencies), where most cycles are quiet and the run
    really jumps."""
    times = {
        f"{algo}/{mode}": run_stencil_once(algo, mode, iterations=2, scale="smoke")
        for algo in ("DOR", "DimWAR", "OmniWAR")
        for mode in ("collective", "halo", "full")
    }
    paper_latency = dataclasses.replace(SCALES["smoke"], name="paper")
    times["DimWAR/collective@paper-latency"] = run_stencil_once(
        "DimWAR", "collective", iterations=2, scale=paper_latency
    )
    return json.dumps(times, indent=1, sort_keys=True) + "\n"


def test_stencil_times_match_pinned_bytes(request):
    """Recorded before ``StencilApplication`` answered ``next_wakeup``
    (every cycle executed); compressing the quiet cycles must not move one
    execution time.  Regenerate with ``--update-golden``."""
    current = _stencil_times_json()
    if request.config.getoption("--update-golden"):
        with open(STENCIL_GOLDEN, "w") as f:
            f.write(current)
        pytest.skip("regenerated stencil_times.json")
    with open(STENCIL_GOLDEN) as f:
        assert current == f.read()
