from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microburst.analysis import (InsufficientData, _percentile, fit_slope,
                                 later_phases, segment_phases,
                                 slope_distribution, slope_upper_bound,
                                 time_weighted_stddev)
from microburst.config import RunConfig
from microburst.netmodel import DROP, ENQUEUE, PortTrace
from microburst.sim import run_simulation


def synthetic_trace(times, occupancy):
    """A trace whose samples are exactly ``times`` and ``occupancy``."""
    trace = PortTrace("syn")
    trace.log = [x for t, q in zip(times, occupancy)
                 for x in (t, 0, q, 0, ENQUEUE)]
    return trace


def test_fit_slope_exact_on_linear_trace():
    # queue grows at exactly 1 Gbps: 125 bytes per microsecond
    times = range(0, 1_000_000, 1_000)
    occupancy = [t // 8 for t in times]
    trace = synthetic_trace(times, occupancy)
    slope = fit_slope(trace, (0, 1_000_000))
    assert abs(slope - 1e9) / 1e9 < 1e-9


def test_fit_slope_flat_is_zero():
    trace = synthetic_trace([0, 100, 200, 300], [500, 500, 500, 500])
    assert fit_slope(trace, (0, 300)) == 0.0


def test_fit_slope_piecewise_window_selects_segment():
    times = list(range(0, 1000, 100)) + list(range(1000, 2000, 100))
    occupancy = [t for t in times[:10]] + [1000 + 3 * (t - 1000) for t in times[10:]]
    trace = synthetic_trace(times, occupancy)
    s1 = fit_slope(trace, (0, 900))
    s2 = fit_slope(trace, (1000, 1900))
    assert abs(s1 - 8e9) / 8e9 < 1e-9
    assert abs(s2 - 24e9) / 24e9 < 1e-9


def test_fit_slope_insufficient_data():
    trace = synthetic_trace([0], [0])
    with pytest.raises(InsufficientData):
        fit_slope(trace, (0, 100))


def test_slope_upper_bound_algebra():
    assert slope_upper_bound(1e9, 1e9) == 1e9
    assert slope_upper_bound(3e9, 1e9) == 1.5e9
    assert abs(slope_upper_bound(1e15, 1e9) - 2e9) / 2e9 < 1e-5
    with pytest.raises(ValueError):
        slope_upper_bound(0, 1e9)


def test_slope_distribution_stats():
    dist = slope_distribution([1.0e9, 1.1e9, 0.9e9])
    assert dist["mean_bps"] == pytest.approx(1e9)
    assert dist["cv"] == pytest.approx(np.std([1.0, 1.1, 0.9]) / 1.0, rel=1e-9)
    single = slope_distribution([5e8])
    assert single["cv"] == 0.0


def test_time_weighted_stddev_step_function():
    trace = synthetic_trace([0, 10], [0, 100])
    # 0 for [0,10), 100 for [10,20): mean 50, stddev 50
    assert time_weighted_stddev(trace, 0, 20) == pytest.approx(50.0)


def test_time_weighted_stddev_constant_is_zero():
    trace = synthetic_trace([0, 10], [42, 42])
    assert time_weighted_stddev(trace, 0, 20) == pytest.approx(0.0)


# -- numpy as the oracle ---------------------------------------------------------
# The references are numpy's float64 forms, centred before summing.  The
# package sums exact integers instead, so its slope and stddev may differ from
# them by rounding, which grows with how badly conditioned the window is.

def _numpy_window(times, occupancy, lo_side, start, end):
    t = np.asarray(times, dtype=np.int64)
    q = np.asarray(occupancy, dtype=np.int64)
    lo = np.searchsorted(t, start, side=lo_side)
    hi = np.searchsorted(t, end, side="right")
    return t, q, lo, hi


@st.composite
def integer_traces(draw, max_size=300):
    first = draw(st.integers(0, 10**10))
    gaps = draw(st.lists(st.integers(0, 10_000), max_size=max_size - 1))
    times = list(accumulate([first, *gaps]))
    occupancy = draw(st.lists(st.integers(0, 2_000_000),
                              min_size=len(times), max_size=len(times)))
    return times, occupancy


def _window_in(draw, times):
    ends = st.integers(times[0] - 100, times[-1] + 100)
    a, b = draw(ends), draw(ends)
    return min(a, b), max(a, b)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fit_slope_matches_numpy_centred_form(data):
    times, occupancy = data.draw(integer_traces())
    window = _window_in(data.draw, times)
    t, q, lo, hi = _numpy_window(times, occupancy, "left", *window)
    tc, qc = t[lo:hi].astype(np.float64), q[lo:hi].astype(np.float64)
    trace = synthetic_trace(times, occupancy)
    if len(tc) < 2 or tc[0] == tc[-1]:
        with pytest.raises(InsufficientData):
            fit_slope(trace, window)
        return
    tc -= tc.mean()
    qc -= qc.mean()
    expected = float(np.dot(tc, qc) / np.dot(tc, tc)) * 8e9
    scale = float(np.dot(np.abs(tc), np.abs(qc)) / np.dot(tc, tc)) * 8e9
    assert fit_slope(trace, window) == pytest.approx(expected, rel=1e-9,
                                                     abs=1e-9 * scale)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_time_weighted_stddev_matches_numpy_centred_form(data):
    times, occupancy = data.draw(integer_traces())
    t0, t1 = _window_in(data.draw, times)
    trace = synthetic_trace(times, occupancy)
    if t1 <= t0:
        with pytest.raises(InsufficientData):
            time_weighted_stddev(trace, t0, t1)
        return
    t, q, lo, hi = _numpy_window(times, occupancy, "right", t0, t1)
    before = np.searchsorted(t, t0, side="right") - 1
    start_occ = 0 if before < 0 else int(q[before])
    edges = np.concatenate(([t0], t[lo:hi], [t1])).astype(np.float64)
    occ = np.concatenate(([start_occ], q[lo:hi])).astype(np.float64)
    widths = np.diff(edges)
    mean = (occ * widths).sum() / widths.sum()
    expected = float((widths * (occ - mean) ** 2).sum() / widths.sum()) ** 0.5
    assert time_weighted_stddev(trace, t0, t1) == pytest.approx(
        expected, rel=1e-9, abs=1e-9 * max(occupancy))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e6, 1e11), min_size=1, max_size=30))
def test_slope_distribution_matches_numpy(slopes):
    dist = slope_distribution(slopes)
    arr = np.asarray(slopes, dtype=np.float64)
    assert dist["slopes_bps"] == np.sort(arr).tolist()
    assert dist["mean_bps"] == pytest.approx(float(arr.mean()), rel=1e-9)
    assert dist["cv"] == pytest.approx(float(arr.std() / arr.mean()),
                                       rel=1e-9, abs=1e-12)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(st.integers(0, 10**12), min_size=1, max_size=200),
                 st.lists(st.floats(-1e15, 1e15), min_size=1, max_size=200)),
       st.one_of(st.integers(0, 100), st.floats(0, 100)))
def test_percentile_equals_numpy_linear_method(values, pct):
    expected = float(np.percentile(np.asarray(values, dtype=np.float64), pct))
    assert _percentile(values, pct) == expected


# -- phase segmentation on real runs -------------------------------------------

def law1_result(seed=1):
    cfg = RunConfig(seed=seed, protocol="TCP",
                    scenario={"kind": "sync_fanin", "n": 18,
                              "response_bytes": 1_000_000, "jitter_ns": 20_000},
                    duration_ns=6_000_000)
    return run_simulation(cfg)


def test_segment_phases_sync_fanin():
    res = law1_result()
    trace = res.traces["root->t4"]
    report = segment_phases(trace, res.first_ece_cut_ns)
    # phase 1 ends when the last first-window packet clears the port
    assert report.phase1.end_ns == trace.first_window_last_departure_ns
    # height = queue level once the first-round burst has cleared; above the
    # 54KB burst residue, well below the buffer
    assert 40_000 <= report.phase1.height_bytes <= 250_000
    assert report.phase1.height_bytes == (
        trace.occupancy_at(report.phase1.end_ns)
        - trace.occupancy_at(report.phase1.start_ns - 1))
    assert report.phase1.slope_bps > report.phase2.slope_bps
    # phase 2 ends at the first congestion reaction: the tail drop, give or
    # take the final enqueue that fills the buffer
    assert (trace.first_drop_ns - 50_000 <= report.phase2.end_ns
            <= trace.first_drop_ns)
    assert 0.9e9 <= report.phase2.slope_bps <= 1.1e9


def test_trace_derives_its_samples_once_on_first_read():
    res = law1_result()
    trace = res.traces["root->t4"]
    # recording only appends to the log
    assert not {"times", "occupancy", "first_drop_ns"} & vars(trace).keys()
    report = segment_phases(trace, res.first_ece_cut_ns)
    times, occupancy = trace.times, trace.occupancy
    assert segment_phases(trace, res.first_ece_cut_ns) == report
    assert trace.times is times and trace.occupancy is occupancy
    # one sample per enqueue and dequeue, none per drop
    drops = [t for t, _, _, _, code in trace.rows() if code == DROP]
    assert drops and trace.first_drop_ns == drops[0]
    assert list(zip(times, occupancy)) == [
        (t, q_after) for t, _, q_after, _, code in trace.rows()
        if code != DROP]


def test_single_small_burst_has_no_phase2():
    cfg = RunConfig(seed=1, protocol="TCP",
                    scenario={"kind": "sync_fanin", "n": 1,
                              "response_bytes": 4_500},
                    duration_ns=2_000_000)
    res = run_simulation(cfg)
    trace = res.traces["root->t4"]
    report = segment_phases(trace, res.first_ece_cut_ns)
    assert report.phase2 is None


def test_same_hop_scenario_has_multiple_later_phases():
    cfg = RunConfig(seed=1, protocol="TCP",
                    scenario={"kind": "background_same_hop",
                              "background_count": 3,
                              "delay_ns": 20_000_000, "jitter_ns": 5_000},
                    duration_ns=40_000_000)
    res = run_simulation(cfg)
    trace = res.traces["root->t4"]
    assert len(later_phases(trace)) >= 3


def test_phase1_slope_grows_with_fanin_count():
    means = []
    for n in (9, 18, 27):
        cfg = RunConfig(seed=1, protocol="TCP",
                        scenario={"kind": "sync_fanin", "n": n,
                                  "response_bytes": 1_000_000,
                                  "jitter_ns": 20_000},
                        duration_ns=6_000_000)
        res = run_simulation(cfg)
        trace = res.traces["root->t4"]
        means.append(segment_phases(trace, res.first_ece_cut_ns).phase1.slope_bps)
    assert means[0] < means[1] < means[2]
    assert all(m > 1e9 for m in means)    # phase 1 always beyond port rate


def test_same_hop_slope_similar_across_background_counts():
    slopes = []
    for bg in (3, 6, 9):
        cfg = RunConfig(seed=1, protocol="TCP",
                        scenario={"kind": "background_same_hop",
                                  "background_count": bg,
                                  "delay_ns": 20_000_000, "jitter_ns": 5_000},
                        duration_ns=40_000_000)
        res = run_simulation(cfg)
        trace = res.traces["root->t4"]
        slopes.append(segment_phases(trace, res.first_ece_cut_ns).phase2.slope_bps)
    assert all(s < 0.5e9 for s in slopes)          # well below the port rate
    assert max(slopes) <= 1.5 * min(slopes)        # and mutually similar


def test_metrics_qct_is_max_member_fct():
    cfg = RunConfig(seed=1, protocol="DCTCP",
                    scenario={"kind": "incast", "n": 8, "mode": "fixed_total"},
                    buffer_bytes=128_000, telemetry_mode="off")
    res = run_simulation(cfg)
    (qid, issue, end, qct), = res.query_completions()
    assert end == max(f.end_ns for f in res.flows)
    assert qct == max(f.end_ns - issue for f in res.flows)
