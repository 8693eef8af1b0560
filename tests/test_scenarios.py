import hashlib
import inspect
import os
import random

import pytest
from hypothesis import given, strategies as st

from microburst import scenarios
from microburst.config import ConfigError, load_config
from microburst.scenarios import (build_schedule, cdf_mean, gen_async_fanin,
                                  gen_background_prev_hop,
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
    with pytest.raises(ConfigError, match=r"^scenario\.n: "):
        build_schedule({"kind": "sync_fanin", "n": 0}, rng(), GBPS)


@pytest.mark.parametrize("senders", [[], "h1", {"h1": 1}],
                         ids=["empty", "string", "mapping"])
def test_sync_fanin_senders_must_be_a_non_empty_host_list(senders):
    with pytest.raises(ConfigError, match=r"^scenario\.senders: must be a "
                       r"non-empty list of preset hosts"):
        build_schedule({"kind": "sync_fanin", "n": 2, "senders": senders},
                       rng(), GBPS)


def test_sync_fanin_senders_default_only_when_missing_or_null():
    for scenario in ({}, {"senders": None}):
        flows, _ = build_schedule(dict(scenario, kind="sync_fanin", n=9),
                                  rng(), GBPS)
        assert [f.src for f in flows] == [f"h{i}" for i in range(1, 10)]
    flows, _ = build_schedule({"kind": "sync_fanin", "n": 2,
                               "senders": ["h4"]}, rng(), GBPS)
    assert [f.src for f in flows] == ["h4", "h4"]


def test_sync_fanin_receiver_may_be_a_listed_sender_the_burst_never_uses():
    flows, _ = build_schedule({"kind": "sync_fanin", "n": 1, "receiver": "h1",
                               "senders": ["h2", "h1"]}, rng(), GBPS)
    assert [(f.src, f.dst) for f in flows] == [("h2", "h1")]
    with pytest.raises(ConfigError, match=r"^scenario\.receiver: h1 is one "
                                           r"of the senders the burst uses"):
        build_schedule({"kind": "sync_fanin", "n": 2, "receiver": "h1",
                        "senders": ["h2", "h1"]}, rng(), GBPS)


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
    assert len(queries) == 1
    assert [f.query_id for f in flows] == [queries[0].query_id] * 40


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
    with pytest.raises(ConfigError):
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
    with pytest.raises(ConfigError):
        load_size_cdf(str(bad))


def test_cdf_ending_just_below_one_samples_the_largest_size(tmp_path):
    class Draw:   # an rng whose one draw lies above the final probability
        def random(self):
            return 0.9999999998

    short = tmp_path / "short.cdf"
    short.write_text("1000 0.5\n2000 0.9999999995\n")
    assert sample_size(load_size_cdf(str(short)), Draw()) == 2000


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


def test_integer_cdf_path_is_rejected_unopened(monkeypatch):
    # open(0) would read standard input and then close it
    monkeypatch.setattr(scenarios, "open", lambda *a: pytest.fail("opened"),
                        raising=False)
    with pytest.raises(ConfigError, match=r"^scenario\.cdf_path: "):
        build_schedule({"kind": "websearch", "load": 0.4,
                        "duration_ns": 10_000_000, "cdf_path": 0},
                       rng(), GBPS)


def test_websearch_rejects_bad_load():
    with pytest.raises(ConfigError):
        gen_websearch(1.5, 10**9, rng())
    with pytest.raises(ConfigError):
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


WEBSEARCH_YAML = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                              "websearch.yaml")

# sha256 over the flows and queries of configs/websearch.yaml, per seed
WEBSEARCH_DIGESTS = {
    1: "00924adf571346ac8aa4c72983fd6a3121a528f9da81ff569aa14ed48437acce",
    11: "f4f58b0619dc682b258c6020f50f829c6742eeee4487b1041280cfe3ef4dcb9a",
}


def schedule_digest(flows, queries):
    h = hashlib.sha256()
    for f in flows:
        h.update(f"{f.flow_id} {f.src} {f.dst} {f.size_bytes} {f.start_ns} "
                 f"{f.query_id} {f.burst}\n".encode())
    for q in queries:
        h.update(f"q {q.query_id} {q.issue_ns}\n".encode())
    return h.hexdigest()


def test_websearch_config_schedule_is_pinned():
    cfg = load_config(WEBSEARCH_YAML)
    digests = {}
    for seed in WEBSEARCH_DIGESTS:
        flows, queries = build_schedule(cfg.scenario, rng(seed),
                                        cfg.link_rate_bps)
        if seed == 1:
            assert len(flows) == 27_621
        digests[seed] = schedule_digest(flows, queries)
    assert digests == WEBSEARCH_DIGESTS


# -- schedule validation and dispatch ------------------------------------------

# valid parameters of every scenario kind, small enough to build quickly
_times = st.integers(0, 2_000_000)
_jitters = st.sampled_from([0, 1, 20_000])   # 0 makes every start tie
_bytes = st.integers(1, 2_000_000)
KIND_PARAMS = {
    "sync_fanin": st.fixed_dictionaries({
        "n": st.integers(1, 40), "response_bytes": _bytes,
        "start_ns": _times, "jitter_ns": _jitters}),
    "async_fanin": st.fixed_dictionaries({
        "n": st.integers(1, 40), "window_ns": _jitters,
        "response_bytes": _bytes, "start_ns": _times}),
    **{kind: st.fixed_dictionaries({
        "background_count": st.integers(1, 5), "fanin_count": st.integers(1, 20),
        "response_bytes": _bytes, "delay_ns": _times,
        "background_bytes": _bytes, "jitter_ns": _jitters})
       for kind in ("background_same_hop", "background_prev_hop")},
    "one_background": st.fixed_dictionaries({
        "fanin_count": st.integers(1, 20), "response_bytes": _bytes,
        "delay_ns": _times, "background_bytes": _bytes,
        "jitter_ns": _jitters}),
    "incast": st.integers(1, 40).flatmap(lambda n: st.fixed_dictionaries({
        "n": st.just(n),
        "mode": st.sampled_from(["fixed_response", "fixed_total"]),
        "response_bytes": _bytes, "total_bytes": st.integers(n, 2_000_000),
        "start_ns": _times})),
    "websearch": st.fixed_dictionaries({
        "load": st.floats(0.01, 0.99),
        "duration_ns": st.integers(1, 20_000_000),
        "query_fraction": st.floats(0.01, 0.99),
        "query_bytes": st.integers(11_000, 200_000)}),
    "long_flow_batches": st.fixed_dictionaries({
        "batch": st.integers(1, 6), "interval_ns": _times,
        "batches": st.integers(1, 5), "flow_bytes": _bytes}),
}


@pytest.mark.parametrize("kind", sorted(scenarios.GENERATORS))
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_every_kind_numbers_flows_densely_in_start_then_id_order(
        kind, data, seed):
    params = data.draw(KIND_PARAMS[kind], label="params")
    flows, _ = build_schedule(dict(params, kind=kind), rng(seed), GBPS)
    assert sorted(f.flow_id for f in flows) == list(range(len(flows)))
    keys = [(f.start_ns, f.flow_id) for f in flows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("flows, message", [
    ([FlowSpec(0, "h1", "h2", 0, 0)], "flow 0: non-positive size"),
    ([FlowSpec(0, "h1", "h2", 100, -1)], "flow 0: negative start"),
    ([FlowSpec(0, "h1", "h2", 100, 5), FlowSpec(1, "h2", "h3", 100, 4)],
     "schedule not sorted by start time"),
], ids=["size", "start", "unsorted"])
def test_validate_rejects_a_malformed_schedule(flows, message):
    with pytest.raises(ConfigError, match=f"^scenario: {message}$"):
        validate_schedule(flows)


def test_validate_rejects_same_endpoints():
    with pytest.raises(ConfigError):
        validate_schedule([FlowSpec(0, "h1", "h1", 100, 0)])


def test_validate_rejects_hosts_outside_the_preset():
    for src, dst in (("h99", "h10"), ("h1", "h0"), ("h1", "root")):
        with pytest.raises(ConfigError, match="preset hosts"):
            validate_schedule([FlowSpec(0, src, dst, 100, 0)])


def test_validate_rejects_duplicate_ids():
    with pytest.raises(ConfigError):
        validate_schedule([FlowSpec(0, "h1", "h2", 100, 0),
                           FlowSpec(0, "h2", "h3", 100, 0)])


def test_build_schedule_dispatch():
    flows, _ = build_schedule({"kind": "sync_fanin", "n": 4}, rng(), GBPS)
    assert len(flows) == 4


def test_build_schedule_unknown_kind():
    with pytest.raises(ConfigError):
        build_schedule({"kind": "nope"}, rng(), GBPS)


def test_build_schedule_bad_param_names_scenario():
    with pytest.raises(ConfigError):
        build_schedule({"kind": "sync_fanin", "bogus": 3}, rng(), GBPS)


@pytest.mark.parametrize("scenario, message", [
    ({"kind": "incast", "n": 4, "foo": 1}, "foo: not a parameter of incast"),
    ({"kind": "incast", "n": 4, "cdf_path": "sizes.cdf"},
     "cdf_path: not a parameter of incast"),
    ({"kind": "long_flow_batches", "n": 4}, "n: not a parameter of "
     "long_flow_batches"),
], ids=["unknown", "websearch_only", "other_kind"])
def test_build_schedule_names_a_key_the_kind_does_not_take(scenario, message):
    with pytest.raises(ConfigError, match=f"^scenario\\.{message}$"):
        build_schedule(scenario, rng(), GBPS)


@pytest.mark.parametrize("scenario, message", [
    ({"kind": "sync_fanin"}, "n: required by sync_fanin"),
    ({"kind": "websearch", "load": 0.4}, "duration_ns: required by websearch"),
], ids=["sync_fanin", "websearch"])
def test_build_schedule_names_a_missing_required_key(scenario, message):
    with pytest.raises(ConfigError, match=f"^scenario\\.{message}$"):
        build_schedule(scenario, rng(), GBPS)


@pytest.mark.parametrize("scenario, field", [
    ({"kind": "sync_fanin", "jitter_ns": -1, "n": 0}, "n"),
    ({"kind": "sync_fanin", "n": 2, "start_ns": -5, "response_bytes": 0},
     "response_bytes"),
    ({"kind": "websearch", "duration_ns": 0, "load": 0.4,
      "query_bytes": "1"}, "query_bytes"),
], ids=["n_first", "given_order_reversed", "string_and_zero"])
def test_of_two_bad_integers_the_first_in_table_order_is_named(scenario,
                                                               field):
    # the check follows the integer table, not the order the config gives
    with pytest.raises(ConfigError, match=f"^scenario\\.{field}: must be an "
                       "integer"):
        build_schedule(scenario, rng(), GBPS)


@pytest.mark.parametrize("key", ["receiver", "senders"])
def test_unhashable_host_is_named(key):
    value = [1] if key == "receiver" else [[1]]
    with pytest.raises(ConfigError, match=f"^scenario\\.{key}: no host "
                       r"\[1\] in the preset"):
        build_schedule({"kind": "sync_fanin", "n": 2, key: value}, rng(), GBPS)


# -- flow records and the parameter table -------------------------------------

def test_positional_flow_equals_its_keyword_twin():
    # gen_websearch builds its query flows positionally through map
    [positional] = map(FlowSpec, [3], ["h1"], ["h10"], [1500], [7], [2], [False])
    keyword = FlowSpec(flow_id=3, src="h1", dst="h10", size_bytes=1500,
                       start_ns=7, query_id=2, burst=False)
    assert positional == keyword
    keyword.end_ns = 9
    assert positional != keyword


def test_flow_outcome_starts_empty_and_has_no_dict():
    flow = FlowSpec(0, "h1", "h2", 100, 5)
    assert (flow.query_id, flow.burst) == (None, True)
    assert (flow.end_ns, flow.first_ece_cut_ns) == (None, None)
    assert (flow.retransmits, flow.timeouts, flow.delivered_bytes, flow.sent,
            flow.received) == (0, 0, 0, 0, 0)
    assert not hasattr(flow, "__dict__")
    with pytest.raises(AttributeError):
        flow.note = "x"


@pytest.mark.parametrize("kind", sorted(scenarios.GENERATORS))
def test_param_table_matches_the_generator_signature(kind):
    # inspect is the oracle here only; the package reads the code object
    params = inspect.signature(scenarios.GENERATORS[kind]).parameters
    table = scenarios._PARAMS[kind]
    assert list(table) == list(params)
    assert [name for name, required in table.items() if required] == \
           [name for name, p in params.items() if p.default is p.empty]
