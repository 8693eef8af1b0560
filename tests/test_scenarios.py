import random

import pytest

from microburst.scenarios import (InvalidParam, build_schedule, cdf_mean,
                                  gen_async_fanin, gen_background_prev_hop,
                                  gen_background_same_hop, gen_incast,
                                  gen_long_flow_batches, gen_one_background,
                                  gen_sync_fanin, gen_websearch, load_size_cdf,
                                  sample_size, validate_schedule, FlowSpec)
from microburst.units import GBPS


def rng(seed=1):
    return random.Random(seed)


# -- fan-in scenarios ----------------------------------------------------------

def test_sync_fanin_basic():
    flows, queries = gen_sync_fanin(18)
    assert len(flows) == 18
    assert queries == []
    assert all(f.dst == "h10" for f in flows)
    assert all(f.size_bytes == 1_000_000 for f in flows)
    assert all(f.start_ns == 0 for f in flows)


def test_sync_fanin_one_flow_per_host_at_nine():
    flows, _ = gen_sync_fanin(9)
    assert sorted(f.src for f in flows) == sorted(f"h{i}" for i in range(1, 10))


def test_sync_fanin_degenerate_single():
    flows, _ = gen_sync_fanin(1)
    assert len(flows) == 1


def test_sync_fanin_rejects_zero():
    with pytest.raises(InvalidParam, match=r"^scenario\.n: "):
        build_schedule({"kind": "sync_fanin", "n": 0}, rng(), GBPS)


def test_sync_fanin_jitter_within_window():
    flows, _ = gen_sync_fanin(18, jitter_ns=20_000, rng=rng())
    assert all(0 <= f.start_ns < 20_000 for f in flows)


def test_async_fanin_starts_inside_window():
    flows, _ = gen_async_fanin(18, window_ns=2_000_000, rng=rng())
    assert len(flows) == 18
    assert all(0 <= f.start_ns < 2_000_000 for f in flows)
    assert len({f.start_ns for f in flows}) > 1


def test_async_fanin_zero_window_is_sync():
    flows, _ = gen_async_fanin(18, window_ns=0, rng=rng())
    assert all(f.start_ns == 0 for f in flows)


def test_async_fanin_deterministic_under_seed():
    a, _ = gen_async_fanin(18, rng=rng(7))
    b, _ = gen_async_fanin(18, rng=rng(7))
    assert a == b


# -- background placements -----------------------------------------------------

def test_one_background_placement():
    flows, _ = gen_one_background(rng=rng())
    bg = [f for f in flows if not f.burst]
    assert len(bg) == 1 and bg[0].src == "h9" and bg[0].dst == "h11"
    assert bg[0].start_ns == 0
    fanin = [f for f in flows if f.burst]
    assert len(fanin) == 8
    assert all(f.start_ns == 500_000_000 for f in fanin)
    assert all(f.src != "h9" for f in fanin)


def test_same_hop_background_excludes_bg_hosts_from_fanin():
    flows, _ = gen_background_same_hop(background_count=3, rng=rng())
    bg = [f for f in flows if not f.burst]
    assert [f.src for f in bg] == ["h1", "h4", "h7"]
    assert all(f.dst in ("h11", "h12") for f in bg)
    fanin = [f for f in flows if f.burst]
    assert len(fanin) == 12
    assert not {f.src for f in fanin} & {"h1", "h4", "h7"}
    # 12 flows x 3 initial segments of 1.5KB: 54KB first-round volume
    assert sum(3 * 1500 for _ in fanin) == 54_000


def test_prev_hop_background_is_rack3():
    flows, _ = gen_background_prev_hop(rng=rng())
    bg = [f for f in flows if not f.burst]
    assert {f.src for f in bg} == {"h7", "h8", "h9"}
    fanin = [f for f in flows if f.burst]
    assert {f.src for f in fanin} == {f"h{i}" for i in range(1, 7)}


# -- incast --------------------------------------------------------------------

def test_incast_fixed_response():
    flows, queries = gen_incast(40, mode="fixed_response")
    assert len(flows) == 40
    assert all(f.size_bytes == 64_000 for f in flows)
    assert len(queries) == 1 and len(queries[0].flow_ids) == 40


def test_incast_fixed_total_even_split():
    flows, _ = gen_incast(8, mode="fixed_total")
    assert [f.size_bytes for f in flows] == [128_000] * 8


def test_incast_fixed_total_remainder_on_first():
    flows, _ = gen_incast(3, mode="fixed_total")
    sizes = [f.size_bytes for f in flows]
    assert sum(sizes) == 1_024_000
    assert sizes[1] == sizes[2] == 1_024_000 // 3
    assert sizes[0] == 1_024_000 - 2 * (1_024_000 // 3)


def test_incast_single_flow_total():
    flows, _ = gen_incast(1, mode="fixed_total")
    assert flows[0].size_bytes == 1_024_000


def test_incast_unknown_mode():
    with pytest.raises(InvalidParam):
        gen_incast(4, mode="bogus")


# -- long flows ----------------------------------------------------------------

def test_long_flow_batches():
    flows, _ = gen_long_flow_batches(batch=3, interval_ns=10**9, batches=3)
    assert len(flows) == 9
    assert sorted({f.start_ns for f in flows}) == [0, 10**9, 2 * 10**9]
    # first batch lands in three different racks
    first = [f.src for f in flows if f.start_ns == 0]
    assert first == ["h1", "h4", "h7"]


# -- web-search workload -------------------------------------------------------

def test_cdf_loads_and_is_normalized():
    sizes, probs = load_size_cdf()
    assert probs[-1] == 1.0
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    assert cdf_mean((sizes, probs)) > 0


def test_cdf_rejects_non_increasing(tmp_path):
    bad = tmp_path / "bad.cdf"
    bad.write_text("1000 0.5\n900 1.0\n")
    with pytest.raises(InvalidParam):
        load_size_cdf(str(bad))


def test_cdf_sampling_deterministic():
    cdf = load_size_cdf()
    a = [sample_size(cdf, rng(3)) for _ in range(5)]
    b = [sample_size(cdf, rng(3)) for _ in range(5)]
    assert a == b


def test_websearch_query_split():
    flows, queries = gen_websearch(0.4, 1_000_000_000, rng())
    q = queries[0]
    members = [f for f in flows if f.query_id == q.query_id]
    assert len(members) == 11
    sizes = sorted(f.size_bytes for f in members)
    assert sizes[:10] == [100_000 // 11] * 10
    assert sizes[10] == 100_000 - 10 * (100_000 // 11)
    assert sum(sizes) == 100_000


def test_websearch_rejects_bad_load():
    with pytest.raises(InvalidParam):
        gen_websearch(1.5, 10**9, rng())
    with pytest.raises(InvalidParam):
        gen_websearch(0.0, 10**9, rng())


def test_websearch_offered_load_matches_in_expectation():
    duration = 5_000_000_000
    loads = []
    for seed in range(1, 11):
        flows, _ = gen_websearch(0.4, duration, rng(seed))
        total = sum(f.size_bytes for f in flows)
        loads.append(total * 8 / (GBPS * (duration / 1e9)))
    mean = sum(loads) / len(loads)
    assert abs(mean - 0.4) <= 0.02   # within 5% of the target load


def test_websearch_scale_implies_order_1e5_flows_per_5min():
    flows, queries = gen_websearch(0.4, 10_000_000_000, rng())
    per_5min = len(queries) * 30 * 11
    assert 2e5 <= per_5min <= 2e6


def test_websearch_deterministic():
    a, qa = gen_websearch(0.4, 10**9, rng(5))
    b, qb = gen_websearch(0.4, 10**9, rng(5))
    assert a == b and len(qa) == len(qb)


# -- schedule validation and dispatch ------------------------------------------

def test_validate_rejects_same_endpoints():
    with pytest.raises(InvalidParam):
        validate_schedule([FlowSpec(0, "h1", "h1", 100, 0)])


def test_validate_rejects_hosts_outside_the_preset():
    for src, dst in (("h99", "h10"), ("h1", "h0"), ("h1", "root")):
        with pytest.raises(InvalidParam, match="preset hosts"):
            validate_schedule([FlowSpec(0, src, dst, 100, 0)])


def test_validate_rejects_duplicate_ids():
    with pytest.raises(InvalidParam):
        validate_schedule([FlowSpec(0, "h1", "h2", 100, 0),
                           FlowSpec(0, "h2", "h3", 100, 0)])


def test_build_schedule_dispatch():
    flows, _ = build_schedule({"kind": "sync_fanin", "n": 4}, rng(), GBPS)
    assert len(flows) == 4


def test_build_schedule_unknown_kind():
    with pytest.raises(InvalidParam):
        build_schedule({"kind": "nope"}, rng(), GBPS)


def test_build_schedule_bad_param_names_scenario():
    with pytest.raises(InvalidParam):
        build_schedule({"kind": "sync_fanin", "bogus": 3}, rng(), GBPS)
