"""Post-processing of queue traces: phase segmentation, slope fitting,
slope distributions, and flow/query metrics.

Traces are the run's ``netmodel.PortTrace`` objects: queue samples plus
ground-truth annotations.  Phase boundaries come from those annotations,
not from change-point inference: the first growth phase ends when the last
first-window packet reaches the monitored port, and the second ends at the
first congestion reaction (drop at the port or mark-induced window cut),
falling back to the time the queue peaks.

Traces hold integer nanoseconds and bytes, so slopes and variances are
computed from exact integer sums with one rounding at the final division.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from operator import mul, sub

from .units import NS_PER_S


class InsufficientData(Exception):
    """Too few trace samples in the requested window."""


Phase = namedtuple("Phase", "start_ns end_ns slope_bps height_bytes",
                   defaults=(0,))
# phase2 is None when the burst ends before phase 2
PhaseReport = namedtuple("PhaseReport", "phase1 phase2")


def fit_slope(trace, window) -> float:
    """Least-squares slope of queue length over [start, end], in bits/s."""
    start, end = window
    lo = bisect_left(trace.times, start)
    hi = bisect_right(trace.times, end)
    t = trace.times[lo:hi]
    q = trace.occupancy[lo:hi]
    n = len(t)
    if n < 2 or t[0] == t[-1]:
        raise InsufficientData(f"{n} samples in window {window}")
    sum_t, sum_q = sum(t), sum(q)
    slope_bytes_per_ns = ((n * sum(map(mul, t, q)) - sum_t * sum_q)
                          / (n * sum(map(mul, t, t)) - sum_t * sum_t))
    return slope_bytes_per_ns * 8.0 * NS_PER_S


def slope_upper_bound(first_round_rate_bps: float, port_rate_bps: float) -> float:
    """Growth-rate cap when an upstream queue drains into the port:
    2*a*R / (a + R) with a the first-round arrival rate."""
    a, r = first_round_rate_bps, port_rate_bps
    if a <= 0 or r <= 0:
        raise ValueError("rates must be positive")
    return 2.0 * a * r / (a + r)


def first_window_rate(trace) -> float:
    """Measured arrival rate of first-window packets at the port, bits/s."""
    if trace.first_window_first_ns is None or trace.first_window_bytes == 0:
        raise InsufficientData("no first-window packets observed")
    span = trace.first_window_last_ns - trace.first_window_first_ns
    if span <= 0:
        raise InsufficientData("first-window span is empty")
    return trace.first_window_bytes * 8.0 * NS_PER_S / span


def segment_phases(trace, first_cut_ns=None) -> PhaseReport:
    """Split the burst onset into its growth phases using annotations.

    The first phase ends when the last first-window packet has cleared the
    monitored port (its dequeue): with store-and-forward switching, bursts
    parked in upstream queues keep feeding the port above its drain rate
    until then, so the arrival of the last first-window packet would cut
    the boundary too early.
    """
    if trace.first_window_first_ns is None:
        raise InsufficientData("trace has no first-window annotations")
    p1_start = trace.first_window_first_ns
    p1_end = trace.first_window_last_departure_ns
    if p1_end is None:
        p1_end = trace.first_window_last_ns
    base = trace.occupancy_at(p1_start - 1)
    try:
        p1_slope = fit_slope(trace, (p1_start, p1_end))
    except InsufficientData:
        p1_slope = 0.0
    phase1 = Phase(p1_start, p1_end, p1_slope,
                   trace.occupancy_at(p1_end) - base)

    candidates = []
    if trace.first_drop_ns is not None and trace.first_drop_ns > p1_end:
        candidates.append(trace.first_drop_ns)
    if first_cut_ns is not None and first_cut_ns > p1_end:
        candidates.append(first_cut_ns)
    lo = bisect_right(trace.times, p1_end)
    if lo < len(trace.times):
        top = max(trace.occupancy[lo:])
        # growth stop counts only if the queue actually kept growing
        if top > trace.occupancy_at(p1_end):
            candidates.append(trace.times[trace.occupancy.index(top, lo)])
    phase2 = None
    if candidates:
        p2_end = min(candidates)
        try:
            phase2 = Phase(p1_end, p2_end, fit_slope(trace, (p1_end, p2_end)))
        except InsufficientData:
            phase2 = None

    return PhaseReport(phase1, phase2)


def later_phases(trace) -> list:
    """Growth phases after the first: the arrival spans of the following
    send rounds (up to 16), separated by the pauses while each round's ACKs
    travel back."""
    spans = trace.round_spans
    later = []
    for rnd in sorted(r for r in spans if r != 0)[:16]:
        lo_ns, hi_ns = spans[rnd]
        try:
            later.append(Phase(lo_ns, hi_ns, fit_slope(trace, (lo_ns, hi_ns))))
        except InsufficientData:
            continue
    return later


def slope_distribution(slopes_bps) -> dict:
    """Sorted slopes with mean and coefficient of variation."""
    if len(slopes_bps) == 0:
        raise InsufficientData("no slopes")
    ordered = sorted(slopes_bps)
    n = len(ordered)
    mean = sum(ordered) / n
    std = (sum((s - mean) ** 2 for s in ordered) / n) ** 0.5
    cv = std / mean if mean else float("inf")
    return {"slopes_bps": ordered, "mean_bps": mean, "cv": cv}


def time_weighted_stddev(trace, t0_ns, t1_ns) -> float:
    """Stddev of the queue-length step function over [t0, t1], bytes."""
    if t1_ns <= t0_ns:
        raise InsufficientData("empty stddev window")
    lo = bisect_right(trace.times, t0_ns)
    hi = bisect_right(trace.times, t1_ns)
    times = [t0_ns, *trace.times[lo:hi], t1_ns]
    occ = [trace.occupancy_at(t0_ns), *trace.occupancy[lo:hi]]
    weighted = list(map(mul, map(sub, times[1:], times), occ))
    total = t1_ns - t0_ns
    first, second = sum(weighted), sum(map(mul, weighted, occ))
    return ((total * second - first * first) / (total * total)) ** 0.5


def _percentile(values, pct):
    """``numpy.percentile``'s default linear method, bit for bit."""
    ordered = sorted(values)
    index = (len(ordered) - 1) * (pct / 100)
    lo = int(index)
    if lo >= len(ordered) - 1:
        return float(ordered[-1])
    below, above = float(ordered[lo]), float(ordered[lo + 1])
    gamma = index - lo
    diff = above - below
    # numpy's lerp: from the nearer end, so gamma 1 gives exactly ``above``
    if gamma >= 0.5:
        return above - diff * (1 - gamma)
    return below + diff * gamma


def compute_metrics(result) -> dict:
    """Long-form metric rows for one finished run."""
    cfg = result.cfg
    s = result.summary
    metrics = {
        "events_dispatched": s.events_dispatched,
        "packets_sent": s.packets_sent,
        "packets_delivered": s.packets_delivered,
        "packets_dropped": s.packets_dropped,
        "packets_marked": s.packets_marked,
    }
    flows = result.flows
    completed = [f for f in flows if f.end_ns is not None]
    metrics["flows_total"] = len(flows)
    metrics["flows_completed"] = len(completed)

    delivered = sum(f.delivered_bytes for f in flows)
    if flows:
        start = min(f.start_ns for f in flows)
        if completed and len(completed) == len(flows):
            end = max(f.end_ns for f in completed)
        else:
            end = result.end_ns
        span = max(end - start, 1)
        metrics["goodput_mbps"] = round(delivered * 8e3 / span, 3)
        metrics["measure_span_ns"] = span

    if completed:
        fcts = [f.end_ns - f.start_ns for f in completed]
        metrics["fct_mean_ns"] = int(sum(fcts) / len(fcts))
        metrics["fct_p99_ns"] = int(_percentile(fcts, 99))

    qcts = [qct for _, _, _, qct in result.query_completions() if qct is not None]
    if qcts:
        metrics["queries_total"] = len(result.queries)
        metrics["queries_completed"] = len(qcts)
        metrics["qct_mean_ns"] = int(sum(qcts) / len(qcts))
        metrics["qct_p99_ns"] = int(_percentile(qcts, 99))

    for port_id in sorted(result.ports):
        snap = result.ports[port_id]
        if port_id in result.traces or snap["max_queue_bytes"] > 0:
            metrics[f"max_queue_bytes[{port_id}]"] = snap["max_queue_bytes"]

    for port_id, trace in sorted(result.traces.items()):
        if not trace.times:
            continue
        t0 = cfg.stddev_after_ns
        t1 = result.end_ns
        if t1 > t0:
            try:
                metrics[f"queue_stddev_bytes[{port_id}]"] = round(
                    time_weighted_stddev(trace, t0, t1), 3)
            except InsufficientData:
                pass
        try:
            report = segment_phases(trace, result.first_ece_cut_ns)
            metrics[f"phase1_end_ns[{port_id}]"] = report.phase1.end_ns
            metrics[f"phase1_height_bytes[{port_id}]"] = report.phase1.height_bytes
            if report.phase2 is not None:
                metrics[f"phase2_slope_gbps[{port_id}]"] = round(
                    report.phase2.slope_bps / 1e9, 3)
        except InsufficientData:
            pass
    return metrics
