"""The traced benchmark's boundaries name code the package still has, so a
refactor cannot drop a layer from the per-layer figures unnoticed."""

import importlib
import inspect
import os
import statistics

import pytest

from microburst.analysis import QueueTrace, fit_slope, segment_phases
from microburst.config import RunConfig
from microburst.engine import Engine
from microburst.netmodel import Port
from microburst.packets import DATA, Packet
from microburst.scenarios import FlowSpec
from microburst.sim import run_simulation
from microburst.transport import Sender
from microburst.units import GBPS

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

# hooked by the benchmark but deleted from the package; listed under
# ``skipped_boundaries`` of every traced run
KNOWN_STALE = {"marking.TailDrop.decide", "marking.SlopeThresholdEcn.decide"}


def test_every_traced_boundary_is_a_function_of_the_package(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    missing = set()
    for module_name, cls, attr, _ in tracing.PER_CALL + tracing.SPANS:
        module = importlib.import_module(f"microburst.{module_name}")
        owner = module if cls is None else getattr(module, cls, None)
        fn = getattr(owner, attr, None)
        if not (inspect.isfunction(fn)
                and fn.__module__ == module.__name__):
            missing.add(".".join(filter(None, (module_name, cls, attr))))
    assert missing <= KNOWN_STALE


def test_traced_fit_sizes_count_the_samples_fit_slope_fits(monkeypatch):
    """The traced pass sizes each ``analysis.fit_slope`` call by its window's
    sample count through ``QueueTrace.times.searchsorted``; that count is
    the number of samples, ends included, the slope is fitted to."""
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    res = run_simulation(RunConfig(
        seed=1, protocol="TCP", duration_ns=6_000_000,
        scenario={"kind": "sync_fanin", "n": 18, "response_bytes": 1_000_000,
                  "jitter_ns": 20_000}))
    trace = QueueTrace.from_port_trace(res.traces["root->t4"])
    report = segment_phases(trace, res.first_ece_cut_ns)
    times = trace.times
    windows = [(report.phase1.start_ns, report.phase1.end_ns),
               (report.phase2.start_ns, report.phase2.end_ns),
               (times[0], times[-1]), (times[5] + 1, times[60] - 1)]
    for window in windows:
        inside = [i for i, t in enumerate(times)
                  if window[0] <= t <= window[1]]
        assert tracing._fit_window_samples(trace, window) == len(inside) > 2
        ref = statistics.linear_regression(
            [times[i] for i in inside], [trace.occupancy[i] for i in inside])
        assert fit_slope(trace, window) == pytest.approx(ref.slope * 8e9,
                                                         rel=1e-9)


def test_traced_pending_peak_sizes_the_hot_heap(monkeypatch):
    """The traced ``engine.pending_peak`` is the length of ``Engine._heap``
    at each schedule: the hot heap, which holds port departures but not
    retransmission timers."""
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    engine = Engine()
    assert type(engine._heap) is list
    assert tracing._heap_size(engine) == 0

    port = Port("p", GBPS, None, None, engine)
    port.enqueue(Packet(0, DATA, 1500, ()), 0)
    [departure] = engine._heap
    assert departure[2] is port._tx_done_fn

    cfg = RunConfig(seed=1, protocol="TCP", scenario={"kind": "incast"})
    sender = Sender(FlowSpec(1, "h1", "h10", 3000, 0), (port,), engine,
                    cfg.validate())
    sender.start(0)
    assert sender.rto_timer is not None
    assert all(entry is not sender.rto_timer for entry in engine._heap)
    assert tracing._heap_size(engine) == 1
