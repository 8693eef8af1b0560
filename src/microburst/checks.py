"""Named acceptance experiments, the executable forms of the queue-dynamics
laws and the marking policy's suppression/equivalence claims.

A check is a plan (a base config in the sectioned schema and the axes
``config.expand`` sweeps it over), a measure that keeps one small value of
each run, and a verdict: PASS/FAIL notes over the measures in plan order
that print the measured values against the check's tolerance.

``analysis`` is imported inside the measures and verdicts that use it, so
a check that reads no trace and takes no percentile (``incast``,
``pacing``, ``overshoot``, ``suppression``, ``utilization``,
``equivalence``) never loads it; ``hashlib``, ``tempfile`` and
``pathlib`` load only when ``determinism`` digests its outputs.
"""

from collections import namedtuple

from .config import DEFAULT_MONITOR_PORT as PORT, expand
from .marking import SlopeEcn, mark_probability_from_arrival
from .sim import run_plan, write_outputs
from .units import GBPS


class CheckResult:
    def __init__(self, name, passed):
        self.name, self.passed, self.lines = name, passed, []

    def note(self, ok, text):
        self.passed = self.passed and bool(ok)
        self.lines.append(f"{'ok  ' if ok else 'FAIL'} {text}")


# base: sectioned config, None for no simulation; axes: base seed -> ordered
# {dotted.path: values}; measure: RunResult -> small value; verdict: see run_check
Check = namedtuple("Check", "base axes measure verdict")


CHECKS = {}


def _check(name, base=None, axes=lambda seed: {}, measure=None):
    """Register the decorated verdict as check ``name``."""
    def register(verdict):
        CHECKS[name] = Check(base, axes, measure, verdict)
        return verdict
    return register


def plan(name, base_seed=1):
    """The ``(label, RunConfig)`` points check ``name`` runs, in order."""
    check = CHECKS[name]
    if check.base is None:
        return []
    return expand(dict(check.base, seed=base_seed), check.axes(base_seed))


def run_check(name, base_seed=1):
    check = CHECKS.get(name)
    if check is None:
        raise KeyError(f"unknown check {name!r}; available: "
                       f"{', '.join(sorted(CHECKS))}")
    values = [value for _, value in run_plan(plan(name, base_seed),
                                             check.measure)]
    result = CheckResult(name, True)
    check.verdict(result, values, check.axes(base_seed))
    return result


def _grid(values, axes):
    """``values`` in plan order as nested ``{axis value: ...}`` dicts."""
    if not axes:
        return values[0]
    (_, outer), *inner = axes.items()
    size = len(values) // len(outer)
    return {key: _grid(values[i * size:(i + 1) * size], dict(inner))
            for i, key in enumerate(outer)}


# -- measures: one small value per run ----------------------------------------

def _phase2(res):
    """The fan-in port's queue trace and its phase-2 growth slope (bps)."""
    from .analysis import QueueTrace, segment_phases
    trace = QueueTrace.from_port_trace(res.traces[PORT])
    return trace, segment_phases(trace, res.first_ece_cut_ns).phase2.slope_bps


def _phase2_slope(res):
    return _phase2(res)[1]


def _slope_and_bound(res):
    """Phase-2 slope and its hidden-buffer bound 2aR/(a+R)."""
    from .analysis import first_window_rate, slope_upper_bound
    trace, slope = _phase2(res)
    return slope, slope_upper_bound(first_window_rate(trace), GBPS)


def _peak(res):
    return res.ports[PORT]["max_queue_bytes"]


def _peak_and_stddev(res):
    """Peak queue and its time-weighted stddev after ``stddev_after_ns``."""
    from .analysis import QueueTrace, time_weighted_stddev
    trace = QueueTrace.from_port_trace(res.traces[PORT])
    return _peak(res), time_weighted_stddev(trace, res.cfg.stddev_after_ns,
                                            res.end_ns)


def _goodput_mbps(res):
    return sum(f.delivered_bytes for f in res.flows) * 8e3 / res.end_ns


def _query_goodput_mbps(res):
    """Bytes over first start to last end; 0 if a flow is unfinished."""
    ends = [f.end_ns for f in res.flows]
    if any(e is None for e in ends):
        return 0.0
    span = max(ends) - min(f.start_ns for f in res.flows)
    return sum(f.size_bytes for f in res.flows) * 8e3 / span


def _qcts(res):
    return [q for _, _, _, q in res.query_completions() if q is not None]


_OUTPUTS = ("trace.csv", "metrics.csv", "flows.csv", "summary.txt")


def _output_digests(res):
    """sha256 of each output file the run writes."""
    import hashlib
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(res, tmp)
        return {name: hashlib.sha256(Path(tmp, name).read_bytes()).hexdigest()
                for name in _OUTPUTS}


# -- queue-dynamics laws -------------------------------------------------------

_SYNC_FANIN = {"kind": "sync_fanin", "n": 18, "response_bytes": 1_000_000,
               "jitter_ns": 20_000}


@_check("law1", {"protocol": "TCP", "scenario": _SYNC_FANIN,
                 "duration_ns": 6_000_000},
        lambda seed: {"seed": range(seed, seed + 20)}, _phase2_slope)
def _law1(result, slopes, axes):
    """Sync fan-in without background: growth slope equals the port rate."""
    from .analysis import slope_distribution
    dist = slope_distribution(slopes)
    gbps = [s / 1e9 for s in slopes]
    result.note(all(0.95 <= g <= 1.05 for g in gbps),
                f"every slope in [0.95, 1.05] Gbps: min {min(gbps):.3f}, "
                f"max {max(gbps):.3f} over {len(slopes)} runs")
    result.note(dist["cv"] < 0.05,
                f"coefficient of variation {dist['cv']:.4f} < 0.05 "
                f"(mean {dist['mean_bps'] / 1e9:.3f} Gbps)")


@_check("law2", {"protocol": "TCP",
                 "scenario": {"kind": "one_background", "fanin_count": 8,
                              "response_bytes": 1_000_000,
                              "delay_ns": 20_000_000, "jitter_ns": 20_000},
                 "duration_ns": 34_000_000},
        lambda seed: {"seed": range(seed, seed + 10)}, _phase2_slope)
def _law2(result, slopes, axes):
    """A full-window background flow caps growth below the port rate."""
    gbps = [s / 1e9 for s in slopes]
    result.note(all(s < 0.95 for s in gbps),
                f"every slope < 0.95 Gbps: values "
                f"{[round(s, 3) for s in gbps]}")


@_check("law3", {"protocol": "TCP",
                 "scenario": {"kind": "background_prev_hop",
                              "fanin_count": 6, "response_bytes": 1_000_000,
                              "delay_ns": 40_000_000, "jitter_ns": 20_000},
                 "duration_ns": 60_000_000,
                 "transport": {"max_cwnd_packets": 256}},
        lambda seed: {"network.tor_uplink_buffer_bytes":
                      [128_000, 256_000, 512_000],
                      "seed": range(seed, seed + 5)},
        _slope_and_bound)
def _law3(result, values, axes):
    """Hidden upstream buffer: slope grows with the upstream buffer size and
    stays below 2aR/(a+R)."""
    means = {buffer_bytes // 1000: sum(s for s, _ in runs.values()) / len(runs)
             for buffer_bytes, runs in _grid(values, axes).items()}
    bound_text = [f"{slope / 1e9:.3f}<=1.05*{bound / 1e9:.3f}"
                  for slope, bound in values]
    m = {k: round(v / 1e9, 3) for k, v in means.items()}
    result.note(means[128] < means[256] < means[512],
                f"mean slope strictly increasing with upstream buffer: {m}")
    result.note(not any(slope > 1.05 * bound for slope, bound in values),
                f"every slope within 1.05x of 2aR/(a+R) "
                f"[{bound_text[0]} ... {bound_text[-1]}]")


# -- marking-policy behavior ---------------------------------------------------

_BURST = {"scenario": {"kind": "sync_fanin", "n": 9,
                       "response_bytes": 20_000_000, "jitter_ns": 20_000},
          "duration_ns": 60_000_000,
          "metrics": {"stddev_after_ns": 10_000_000}}


@_check("overshoot", dict(_BURST, protocol="ECN*"), measure=_peak)
def _overshoot(result, values, axes):
    """Threshold marking overshoots: queue exceeds twice the threshold."""
    maxq = values[0]
    result.note(maxq >= 64_000,
                f"ECN* max queue {maxq} B >= 64000 B (2x threshold)")


@_check("suppression", _BURST,
        lambda seed: {"protocol": ["ECN*", "S-ECN", "SL-ECN"]}, _peak)
def _suppression(result, values, axes):
    """Slope marking at least halves the threshold-marking peak."""
    peak = _grid(values, axes)
    result.note(peak["S-ECN"] <= 0.5 * peak["ECN*"],
                f"S-ECN peak {peak['S-ECN']} <= 50% of ECN* peak {peak['ECN*']}")
    result.note(abs(peak["SL-ECN"] - peak["S-ECN"]) <= 0.15 * peak["S-ECN"],
                f"SL-ECN peak {peak['SL-ECN']} within 15% of S-ECN peak "
                f"{peak['S-ECN']}")


@_check("dctcp", _BURST, lambda seed: {"protocol": ["DCTCP", "DCTCP+SL-ECN"]},
        _peak_and_stddev)
def _dctcp(result, values, axes):
    """Slope marking under DCTCP: lower peak and steadier converged queue."""
    (peak, stddev), (sl_peak, sl_stddev) = values   # DCTCP, DCTCP+SL-ECN
    result.note(sl_peak <= 0.6 * peak,
                f"DCTCP+SL-ECN peak {sl_peak} <= 60% of DCTCP peak {peak}")
    result.note(sl_stddev < stddev,
                f"post-slow-start stddev {sl_stddev:.0f} B < {stddev:.0f} B")


@_check("equivalence")
def _equivalence(result, values, axes, packets=10_000):
    """Accumulator marking matches the per-packet probability expectation."""
    mss = 1500
    cases = [(1.0, 0.0), (1.25, 0.25), (1.5, 0.5), (1.75, 0.75), (2.0, 1.0)]
    for mult, expected in cases:
        gap = int(round(mss * 8e9 / (mult * GBPS)))
        policy = SlopeEcn(GBPS)
        marks = 0
        oracle = 0.0
        prev = None
        for i in range(packets):
            t = i * gap
            if policy.decide(0, mss, t):
                marks += 1
            if prev is not None:
                oracle += mark_probability_from_arrival(mss, t - prev, GBPS)
            prev = t
        frac = marks / packets
        result.note(abs(frac - expected) <= 0.05,
                    f"rate {mult:.2f}R: marked fraction {frac:.3f} vs "
                    f"expectation {expected:.2f} (oracle sum {oracle / packets:.3f})")
        if mult <= 1.0:
            result.note(marks == 0, f"rate {mult:.2f}R: zero marks at or "
                                    f"below line rate ({marks})")
    # below line rate: never marks
    policy = SlopeEcn(GBPS)
    gap = int(round(mss * 8e9 / (0.8 * GBPS)))
    marks = sum(bool(policy.decide(0, mss, i * gap)) for i in range(packets))
    result.note(marks == 0, f"rate 0.80R: zero marks ({marks})")


@_check("utilization",
        {"scenario": {"kind": "long_flow_batches", "batch": 3,
                      "interval_ns": 1_000_000_000, "batches": 1},
         "duration_ns": 1_000_000_000, "telemetry": {"mode": "off"}},
        lambda seed: {"protocol": ["DCTCP+SL-ECN", "S-ECN", "SL-ECN"]},
        _goodput_mbps)
def _utilization(result, values, axes):
    """Three saturating flows: DCTCP+SL-ECN keeps goodput above 900 Mbps
    while halving-based hosts with slope marking fall short of it."""
    goodput = _grid(values, axes)
    g = {k: round(v, 1) for k, v in goodput.items()}
    result.note(goodput["DCTCP+SL-ECN"] > 900,
                f"DCTCP+SL-ECN goodput {g['DCTCP+SL-ECN']} Mbps > 900 Mbps")
    result.note(goodput["S-ECN"] < goodput["DCTCP+SL-ECN"],
                f"S-ECN {g['S-ECN']} < DCTCP+SL-ECN {g['DCTCP+SL-ECN']} Mbps")
    result.note(goodput["SL-ECN"] < goodput["DCTCP+SL-ECN"],
                f"SL-ECN {g['SL-ECN']} < DCTCP+SL-ECN {g['DCTCP+SL-ECN']} Mbps")


_INCAST = {"scenario": {"kind": "incast", "mode": "fixed_response",
                        "response_bytes": 64_000},
           "network": {"buffer_bytes": 128_000},
           "telemetry": {"mode": "off"}}


def _collapse_onset(goodputs):
    """First fan-in count under half the first three's plateau, or None."""
    plateau = max(list(goodputs.values())[:3])
    for n, g in goodputs.items():
        if g < 0.5 * plateau:
            return n
    return None


@_check("incast", _INCAST,
        lambda seed: {"protocol": ["TCP", "ECN*", "SL-ECN", "DCTCP",
                                   "DCTCP+SL-ECN"],
                      "scenario.n": list(range(2, 51, 2))},
        _query_goodput_mbps)
def _incast(result, values, axes):
    """Collapse-onset ordering across the protocol matrix."""
    onset = {p: _collapse_onset(g) for p, g in _grid(values, axes).items()}

    def val(p):
        return onset[p] if onset[p] is not None else float("inf")

    text = {p: (o if o is not None else "none<=50") for p, o in onset.items()}
    result.note(val("TCP") <= val("ECN*") <= val("SL-ECN"),
                f"onset ordering TCP <= ECN* <= SL-ECN: {text['TCP']} <= "
                f"{text['ECN*']} <= {text['SL-ECN']}")
    result.note(val("DCTCP") <= val("DCTCP+SL-ECN"),
                f"onset ordering DCTCP <= DCTCP+SL-ECN: {text['DCTCP']} <= "
                f"{text['DCTCP+SL-ECN']}")


@_check("pacing", dict(_INCAST, protocol="TCP",
                       scenario=dict(_INCAST["scenario"], n=40)),
        lambda seed: {"transport.pacing": [False, True]}, _peak)
def _pacing(result, values, axes):
    """Pacing does not tame the fan-in peak: heights within 10%."""
    peaks = _grid(values, axes)
    diff = abs(peaks[True] - peaks[False])
    result.note(diff < 0.10 * peaks[False],
                f"max queue paced {peaks[True]} vs unpaced {peaks[False]}: "
                f"difference {diff} B < 10%")


@_check("workload",
        {"scenario": {"kind": "websearch", "load": 0.4,
                      "duration_ns": 10_000_000_000, "query_fraction": 0.5},
         "duration_ns": 10_000_000_000,
         "network": {"buffer_bytes": 128_000},
         "transport": {"max_cwnd_packets": 32},
         "telemetry": {"mode": "off"},
         "metrics": {"drain_grace_ns": 1_000_000_000}},
        lambda seed: {"protocol": ["DCTCP", "DCTCP+SL-ECN"],
                      "seed": range(seed, seed + 10)},
        _qcts)
def _workload(result, values, axes):
    """Reduced-scale web-search workload: slope marking lowers query
    completion times under DCTCP hosts."""
    from .analysis import _percentile
    pools = {p: [q for qcts in runs.values() for q in qcts]
             for p, runs in _grid(values, axes).items()}
    base, slope = pools["DCTCP"], pools["DCTCP+SL-ECN"]
    base_mean, slope_mean = sum(base) / len(base), sum(slope) / len(slope)
    mean_gain = 1 - slope_mean / base_mean
    p99_base = _percentile(base, 99)
    p99_slope = _percentile(slope, 99)
    p99_gain = 1 - p99_slope / p99_base
    result.note(slope_mean < base_mean,
                f"mean QCT {slope_mean / 1e6:.3f} ms < "
                f"{base_mean / 1e6:.3f} ms ({mean_gain * 100:.1f}% lower)")
    result.note(p99_slope < p99_base,
                f"p99 QCT {p99_slope / 1e6:.3f} ms < {p99_base / 1e6:.3f} ms")
    result.note(p99_gain >= 0.05,
                f"p99 QCT improvement {p99_gain * 100:.1f}% >= 5% "
                f"({len(base)} queries per protocol, "
                f"{len(axes['seed'])} seeds)")


@_check("determinism", {"protocol": "SL-ECN", "scenario": _SYNC_FANIN,
                        "duration_ns": 6_000_000},
        lambda seed: {"seed": [seed, seed]}, _output_digests)
def _determinism(result, values, axes):
    """Identical (config, seed) produces byte-identical outputs."""
    for name in _OUTPUTS:
        result.note(values[0][name] == values[1][name],
                    f"{name} byte-identical across repeated runs")
