"""Traced pass: per-module self time, measured at module boundaries.

The tracer wraps, on their classes and modules, the entry points each
microburst module exposes to the others, including the callbacks the engine
dispatches.  Every wrapped call adds its duration to its caller's child
time, so a boundary's self time is its own time minus that of the wrapped
calls beneath it.  Per-packet boundaries keep only count, total and self
time per name (a span per packet would be tens of millions of objects on
the web-search run); coarse boundaries (simulation, build, loop, analysis,
output) also keep one span each with its parent.

A call made while another call of the same name is open belongs to the
outer one: the hybrid marking policy's inner slope decision is part of one
``marking.decide``.
"""

import importlib
import sys
import time

# (defining module, class or None, attribute, traced name)
PER_CALL = (
    ("engine", "Engine", "schedule", "engine.schedule"),
    ("netmodel", "Port", "enqueue", "netmodel.enqueue"),
    ("netmodel", "Port", "_tx_done", "netmodel.tx_done"),
    ("netmodel", None, "_forward", "netmodel.forward"),
    ("netmodel", "PortTrace", "record_enqueue", "netmodel.trace_record"),
    ("netmodel", "PortTrace", "record_dequeue", "netmodel.trace_record"),
    ("netmodel", "PortTrace", "record_drop", "netmodel.trace_record"),
    ("marking", "TailDrop", "decide", "marking.decide"),
    ("marking", "ThresholdEcn", "decide", "marking.decide"),
    ("marking", "SlopeEcn", "decide", "marking.decide"),
    ("marking", "RandomSlopeEcn", "decide", "marking.decide"),
    ("marking", "SlopeThresholdEcn", "decide", "marking.decide"),
    ("transport", "Sender", "start", "transport.start"),
    ("transport", "Sender", "on_ack", "transport.on_ack"),
    ("transport", "Sender", "_rto_fire", "transport.rto_fire"),
    ("transport", "Sender", "_pace_fire", "transport.pace_fire"),
    ("transport", "Receiver", "on_data", "transport.on_data"),
    ("sim", "Network", "_deliver", "sim.deliver"),
    ("sim", None, "_start_flow", "sim.start_flow"),
)

SPANS = (
    ("sim", None, "run_simulation", "sim.run_simulation"),
    ("scenarios", None, "build_schedule", "scenarios.build_schedule"),
    ("engine", "Engine", "run_until", "engine.run_until"),
    ("sim", None, "write_outputs", "sim.write_outputs"),
    ("analysis", None, "compute_metrics", "analysis.compute_metrics"),
    ("analysis", None, "segment_phases", "analysis.segment_phases"),
    ("analysis", None, "fit_slope", "analysis.fit_slope"),
    ("analysis", None, "time_weighted_stddev", "analysis.time_weighted_stddev"),
    ("checks", None, "run_check", "checks.run_check"),
)


def import_modules():
    """Import every traced module, so none binds a wrapper by importing it
    while patches are in place."""
    for module_name in sorted({entry[0] for entry in PER_CALL + SPANS}):
        try:
            importlib.import_module(f"microburst.{module_name}")
        except ImportError:
            pass


def _fit_window_samples(trace, window, *_):
    lo = trace.times.searchsorted(window[0], side="left")
    hi = trace.times.searchsorted(window[1], side="right")
    return int(hi - lo)


def _heap_size(engine, *_):
    return len(engine._heap)


class Tracer:
    """Count, total and self time per boundary name, spans of coarse ones."""

    def __init__(self):
        # name -> [calls, total_ns, self_ns, size_sum, size_max]
        self.stats = {}
        # [name, parent span index or -1, start_ns, end_ns]
        self.spans = []
        self.skipped = []
        self._child = [0]
        self._open = [-1]
        self._active = {}

    def install(self, patches):
        """Wrap every boundary of a loaded module; the ones not found are
        listed in ``skipped``.  Call ``import_modules`` first, while no
        patch is in place."""
        from microburst.engine import Engine

        sizes = {"analysis.fit_slope": _fit_window_samples}
        if hasattr(Engine(), "_heap"):
            sizes["engine.schedule"] = _heap_size
        for table, coarse in ((PER_CALL, False), (SPANS, True)):
            for module_name, cls_name, attr, name in table:
                module = sys.modules.get(f"microburst.{module_name}")
                if module is None:
                    self.skipped.append(name)
                    continue
                size_fn = sizes.get(name)

                def make(fn, name=name, coarse=coarse, size_fn=size_fn):
                    return self._wrap(fn, name, coarse, size_fn)
                if cls_name is None:
                    if hasattr(module, attr):
                        patches.wrap_function(module, attr, make)
                        continue
                elif attr in vars(getattr(module, cls_name, object)):
                    patches.wrap_method(getattr(module, cls_name), attr, make)
                    continue
                self.skipped.append(name)

    def _wrap(self, fn, name, coarse, size_fn):
        stat = self.stats.setdefault(name, [0, 0, 0, 0, 0])
        active = self._active.setdefault(name, [False])
        child = self._child
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            if coarse:
                sid = len(spans)
                spans.append([name, open_spans[-1], 0, 0])
                open_spans.append(sid)
            child.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                active[0] = False
                inner = child.pop()
                child[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                if coarse:
                    open_spans.pop()
                    spans[sid][2] = t0
                    spans[sid][3] = t1
                if size_fn is not None:
                    size = size_fn(*args)
                    stat[3] += size
                    if size > stat[4]:
                        stat[4] = size
        return traced

    def add_span(self, name, parent, start_ns, end_ns):
        self.spans.append([name, parent, start_ns, end_ns])

    def span_ids(self, name):
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def calls(self, name):
        return self.stats.get(name, (0,))[0]

    def self_ns(self, *names):
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def total_ns(self, name):
        return self.stats[name][1] if name in self.stats else 0

    def table(self):
        """Per-boundary breakdown, heaviest self time first."""
        rows = [{"name": name, "calls": s[0], "total_s": s[1] / 1e9,
                 "self_s": s[2] / 1e9,
                 "self_ns_per_call": s[2] / s[0] if s[0] else 0.0}
                for name, s in self.stats.items() if s[0]]
        return sorted(rows, key=lambda row: -row["self_s"])

    def span_dump(self, origin_ns):
        return [{"name": name, "parent": parent,
                 "start_s": (start - origin_ns) / 1e9,
                 "end_s": (end - origin_ns) / 1e9}
                for name, parent, start, end in self.spans]


def _percentile(values, pct):
    """Linear interpolation between closest ranks."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _per(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, facts, output_bytes, untraced, gc_watch, cpu_s,
                  overhead_s):
    """Per-layer metrics of one workload run.

    Counts come from the simulations' exact counters (``facts``, one dict
    per simulation) and the traced call counts; times are traced self
    times, except the gc and checks figures, which come from the untraced
    pass (``untraced`` holds its SimRecords).
    """
    def total(key):
        return sum(f[key] for f in facts)

    events = total("events")
    hops = tracer.calls("netmodel.enqueue")
    decides = tracer.calls("marking.decide")
    records = tracer.calls("netmodel.trace_record")
    fit = tracer.stats.get("analysis.fit_slope", [0, 0, 0, 0, 0])
    sim_ms = [rec.wall_s * 1e3 for rec in untraced]
    return {
        "engine.events": events,
        "engine.schedule_calls": tracer.calls("engine.schedule"),
        "engine.pending_peak": tracer.stats.get("engine.schedule",
                                                [0, 0, 0, 0, 0])[4],
        "engine.ns_per_event": _per(
            tracer.self_ns("engine.run_until", "engine.schedule"), events),
        "gc.gen2_collections": gc_watch.collections[2],
        "gc.pause_s": gc_watch.pause_ns / 1e9,
        "netmodel.hops": hops,
        "netmodel.ns_per_hop": _per(
            tracer.self_ns("netmodel.enqueue", "netmodel.tx_done"), hops),
        "netmodel.drops": total("drops"),
        "netmodel.trace_rows": records,
        "netmodel.ns_per_trace_row": _per(
            tracer.self_ns("netmodel.trace_record"), records),
        "marking.decide_calls": decides,
        "marking.ns_per_decide": _per(tracer.self_ns("marking.decide"),
                                      decides),
        "marking.mark_ratio": _per(total("marks"), decides),
        "transport.acks": tracer.calls("transport.on_ack"),
        "transport.ns_per_ack": _per(tracer.self_ns("transport.on_ack"),
                                     tracer.calls("transport.on_ack")),
        "transport.ns_per_data": _per(tracer.self_ns("transport.on_data"),
                                      tracer.calls("transport.on_data")),
        "transport.retransmit_ratio": _per(total("retransmits"),
                                           total("sent")),
        "transport.timeouts": total("timeouts"),
        "sim.ns_per_deliver": _per(tracer.self_ns("sim.deliver"),
                                   tracer.calls("sim.deliver")),
        "sim.write_outputs_s": tracer.self_ns("sim.write_outputs") / 1e9,
        "sim.output_bytes": output_bytes,
        "scenarios.flows": total("flows"),
        "scenarios.build_s": tracer.self_ns("scenarios.build_schedule") / 1e9,
        "analysis.compute_metrics_s":
            tracer.total_ns("analysis.compute_metrics") / 1e9,
        "analysis.fit_slope_calls": fit[0],
        "analysis.ns_per_fit_sample": _per(fit[2], fit[3]),
        "analysis.stddev_s":
            tracer.self_ns("analysis.time_weighted_stddev") / 1e9,
        "checks.runs": len(untraced),
        "checks.run_p50_ms": _percentile(sim_ms, 50),
        "checks.run_p90_ms": _percentile(sim_ms, 90),
        "checks.cpu_s": cpu_s,
        "trace.overhead_s": overhead_s,
    }
