"""Tests for the VC map, configuration presets, and weight functions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import default_config, paper_scale
from repro.core.vcmap import VcMap
from repro.core.weights import congestion_terms, estimator_modes, route_weight


# ---------------------------------------------------------------------------
# VcMap
# ---------------------------------------------------------------------------


def test_even_partition():
    m = VcMap(2, 8)
    assert m.vcs_of(0) == (0, 1, 2, 3)
    assert m.vcs_of(1) == (4, 5, 6, 7)


def test_spares_go_to_early_classes():
    m = VcMap(3, 8)
    assert m.vcs_of(0) == (0, 1, 2)
    assert m.vcs_of(1) == (3, 4, 5)
    assert m.vcs_of(2) == (6, 7)


def test_exact_fit():
    m = VcMap(8, 8)
    for k in range(8):
        assert m.vcs_of(k) == (k,)


def test_class_of_inverse():
    m = VcMap(3, 8)
    for k in range(3):
        for v in m.vcs_of(k):
            assert m.class_of(v) == k


def test_rejects_too_few_vcs():
    with pytest.raises(ValueError):
        VcMap(4, 3)
    with pytest.raises(ValueError):
        VcMap(0, 3)


@given(classes=st.integers(1, 12), spare=st.integers(0, 12))
def test_property_partition_is_contiguous_ordered_and_total(classes, spare):
    num_vcs = classes + spare
    m = VcMap(classes, num_vcs)
    seen = []
    for k in range(classes):
        group = m.vcs_of(k)
        assert group  # never empty
        assert list(group) == list(range(group[0], group[-1] + 1))  # contiguous
        if seen:
            assert group[0] == seen[-1] + 1  # ordered, no gap
        seen.extend(group)
    assert seen == list(range(num_vcs))  # total


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_default_config_valid():
    cfg = default_config()
    assert cfg.router.num_vcs == 8  # the paper's VC count
    assert cfg.router.buffer_depth >= 1
    # buffering covers the credit round trip (the paper's sizing rule)
    assert cfg.router.buffer_depth * cfg.router.num_vcs >= cfg.credit_round_trip


def test_paper_scale_latencies():
    cfg = paper_scale()
    assert cfg.network.channel_latency_rr == 50  # 10 m at 5 ns/m
    assert cfg.network.channel_latency_rt == 5  # 1 m
    assert cfg.router.xbar_latency == 50
    assert cfg.router.buffer_depth > cfg.credit_round_trip


def test_config_validation_errors():
    from dataclasses import replace

    cfg = default_config()
    bad = replace(cfg, router=replace(cfg.router, num_vcs=0))
    with pytest.raises(ValueError):
        bad.validated()
    bad = replace(cfg, router=replace(cfg.router, buffer_depth=0))
    with pytest.raises(ValueError):
        bad.validated()
    bad = replace(cfg, network=replace(cfg.network, channel_latency_rr=0))
    with pytest.raises(ValueError):
        bad.validated()


@pytest.mark.parametrize("field", ["arbiter", "congestion_mode"])
def test_config_validation_names_the_router_field(field):
    """An unknown router mode is refused once, by ``validated()``, before
    any router is built — and the message names the field."""
    from dataclasses import replace

    cfg = default_config()
    bad = replace(cfg, router=replace(cfg.router, **{field: "psychic"}))
    with pytest.raises(ValueError, match=f"unknown {field} 'psychic'"):
        bad.validated()


def test_config_overrides():
    cfg = default_config(seed=99)
    assert cfg.seed == 99


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def test_estimator_modes_cover_paper_options():
    assert set(estimator_modes()) == {"credit", "queue", "credit_queue"}


def test_estimators():
    # each mode is its (consumed-credit, staged-flit) integer terms
    assert congestion_terms("credit") == (1, 0)
    assert congestion_terms("queue") == (0, 1)
    assert congestion_terms("credit_queue") == (1, 1)
    with pytest.raises(ValueError, match="unknown congestion_mode 'psychic'"):
        congestion_terms("psychic")


def test_route_weight_prefers_short_paths_when_idle():
    # congestion 0 everywhere: 1-hop minimal must beat a 2-hop deroute
    assert route_weight(0.0, 1) < route_weight(0.0, 2)


def test_route_weight_is_congestion_times_hops():
    # the paper's weight function, with the +1 idle-bias per hop
    assert route_weight(3.0, 2) == pytest.approx((3.0 + 1.0) * 2)
    assert route_weight(5.0, 1, bias=0.0) == pytest.approx(5.0)


def test_deroute_wins_only_under_congestion():
    # minimal hop congested by c, deroute idle: deroute (2 hops) wins iff
    # (c+1)*1 > (0+1)*2 i.e. c > 1
    assert route_weight(1.0, 1) <= route_weight(0.0, 2)
    assert route_weight(2.5, 1) > route_weight(0.0, 2)
