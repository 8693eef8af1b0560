import numpy as np
import pytest

from microburst.analysis import (InsufficientData, QueueTrace, fit_slope,
                                 segment_phases, slope_distribution,
                                 slope_upper_bound, time_weighted_stddev)
from microburst.config import RunConfig
from microburst.netmodel import PortTrace
from microburst.sim import run_simulation


def synthetic_trace(times, occupancy):
    return QueueTrace("syn", np.asarray(times, dtype=np.int64),
                      np.asarray(occupancy, dtype=np.int64), PortTrace("syn"))


def test_fit_slope_exact_on_linear_trace():
    # queue grows at exactly 1 Gbps: 125 bytes per microsecond
    times = np.arange(0, 1_000_000, 1_000)
    occupancy = times // 8
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


# -- phase segmentation on real runs -------------------------------------------

def law1_result(seed=1):
    cfg = RunConfig(seed=seed, protocol="TCP",
                    scenario={"kind": "sync_fanin", "n": 18,
                              "response_bytes": 1_000_000, "jitter_ns": 20_000},
                    duration_ns=6_000_000)
    return run_simulation(cfg)


def test_segment_phases_sync_fanin():
    res = law1_result()
    trace = QueueTrace.from_port_trace(res.traces["root->t4"])
    report = segment_phases(trace, res.first_ece_cut_ns)
    ann = trace.annotations
    # phase 1 ends when the last first-window packet clears the port
    assert report.phase1.end_ns == ann.first_window_last_departure_ns
    # height = queue level once the first-round burst has cleared; above the
    # 54KB burst residue, well below the buffer
    assert 40_000 <= report.phase1.height_bytes <= 250_000
    assert report.phase1.height_bytes == (
        trace.occupancy_at(report.phase1.end_ns)
        - trace.occupancy_at(report.phase1.start_ns - 1))
    assert report.phase1.slope_bps > report.phase2.slope_bps
    # phase 2 ends at the first congestion reaction: the tail drop, give or
    # take the final enqueue that fills the buffer
    assert ann.first_drop_ns - 50_000 <= report.phase2.end_ns <= ann.first_drop_ns
    assert 0.9e9 <= report.phase2.slope_bps <= 1.1e9


def test_single_small_burst_has_no_phase2():
    cfg = RunConfig(seed=1, protocol="TCP",
                    scenario={"kind": "sync_fanin", "n": 1,
                              "response_bytes": 4_500},
                    duration_ns=2_000_000)
    res = run_simulation(cfg)
    trace = QueueTrace.from_port_trace(res.traces["root->t4"])
    report = segment_phases(trace, res.first_ece_cut_ns)
    assert report.phase2 is None


def test_same_hop_scenario_has_multiple_later_phases():
    cfg = RunConfig(seed=1, protocol="TCP",
                    scenario={"kind": "background_same_hop",
                              "background_count": 3,
                              "delay_ns": 20_000_000, "jitter_ns": 5_000},
                    duration_ns=40_000_000)
    res = run_simulation(cfg)
    trace = QueueTrace.from_port_trace(res.traces["root->t4"])
    report = segment_phases(trace, res.first_ece_cut_ns)
    assert len(report.later_phases) >= 3


def test_phase1_slope_grows_with_fanin_count():
    means = []
    for n in (9, 18, 27):
        cfg = RunConfig(seed=1, protocol="TCP",
                        scenario={"kind": "sync_fanin", "n": n,
                                  "response_bytes": 1_000_000,
                                  "jitter_ns": 20_000},
                        duration_ns=6_000_000)
        res = run_simulation(cfg)
        trace = QueueTrace.from_port_trace(res.traces["root->t4"])
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
        trace = QueueTrace.from_port_trace(res.traces["root->t4"])
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
