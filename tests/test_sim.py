"""End-to-end runs on the 12-host preset: timing ground truths, byte
conservation, determinism, telemetry modes."""

import gc
import os
import re
import tracemalloc
import weakref
from collections import Counter, deque

import pytest

from microburst import sim
from microburst.config import PROTOCOLS, RunConfig, config_from_dict
from microburst.engine import Engine
from microburst.marking import SlopeEcn, ThresholdEcn
from microburst.netmodel import (ACK_ENQUEUE, CSV_CHUNK_ROWS, DEQUEUE, DROP,
                                 ENQUEUE, ENQUEUE_MARKED, Port, PortTrace,
                                 stamp_telemetry)
from microburst.packets import ACK, ACK_SIZE, DATA, Packet
from microburst.scenarios import FlowSpec
from microburst.sim import (AuditError, Network, run_simulation,
                            write_outputs)
from microburst.topology import HOSTS, PORT_IDS, path
from microburst.transport import DCTCP, NEWRENO, Receiver, Sender
from microburst.units import GBPS
from test_golden import CASES, FANIN

MSS = 1500


def run_sync(n=18, seed=1, **kw):
    defaults = dict(seed=seed, protocol="TCP",
                    scenario={"kind": "sync_fanin", "n": n,
                              "response_bytes": 1_000_000, "jitter_ns": 20_000},
                    duration_ns=6_000_000)
    defaults.update(kw)
    return run_simulation(RunConfig(**defaults))


def test_unloaded_inter_rack_rtt_is_about_50us():
    # one 1500B segment h1 -> h10 and its 64B ACK: four store-and-forward
    # hops each way: 4*12us + 4*0.512us
    cfg = RunConfig(seed=1, protocol="TCP",
                    scenario={"kind": "sync_fanin", "n": 1,
                              "response_bytes": MSS},
                    duration_ns=2_000_000)
    res = run_simulation(cfg)
    fct = res.flows[0].end_ns - res.flows[0].start_ns
    assert fct == 4 * 12_000 + 4 * 512
    assert 45_000 <= fct <= 55_000


def test_fifty_four_first_round_packets_converge_on_root():
    res = run_sync(18)
    ann = res.traces["root->t4"]
    assert ann.first_window_bytes == 54 * MSS
    burst = {flow for t, _, _, flow, _ in ann.rows()
             if t <= ann.first_window_last_ns}
    assert burst == set(range(18))


def test_lone_megabyte_flow_fct_matches_round_progression():
    # Independent oracle, computed from first principles: the initial
    # window (3 segments) leaves at t=0; the first ACK returns at
    # 4*12us + 4*0.512us; from then on each ACK adds two segments of work,
    # so the NIC never idles again and the last of the remaining 664
    # segments departs 664 serializations later; add 3 forwarding hops and
    # the final ACK's 4 hops.
    first_ack = 4 * 12_000 + 4 * 512
    oracle = first_ack + 664 * 12_000 + 3 * 12_000 + 4 * 512
    cfg = RunConfig(seed=1, protocol="TCP",
                    scenario={"kind": "sync_fanin", "n": 1,
                              "response_bytes": 1_000_000},
                    duration_ns=20_000_000)
    res = run_simulation(cfg)
    fct = res.flows[0].end_ns
    assert abs(fct - oracle) / oracle < 0.01
    assert 8_000_000 <= fct <= 8_600_000    # ~8 ms plus startup rounds


def test_byte_conservation_on_every_port():
    res = run_sync(18)
    for pid, snap in res.ports.items():
        assert snap["bytes_in"] == snap["bytes_out"] + snap["queue_bytes"], pid


def test_audit_names_port_that_breaks_conservation(leaky_root_port):
    with pytest.raises(AuditError, match=r"^port root->t4: bytes_in"):
        run_sync(4)


def test_audit_names_flow_delivered_past_its_size(monkeypatch):
    receivers = []
    init, run_until = Receiver.__init__, Engine.run_until

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        receivers.append(self)

    def overcounting_run_until(self, t_end_ns):
        run_until(self, t_end_ns)
        if t_end_ns == 6_000_000:   # the horizon: the loop's last call
            receivers[2].flow.delivered_bytes += 1_000_000

    monkeypatch.setattr(Receiver, "__init__", recording_init)
    monkeypatch.setattr(Engine, "run_until", overcounting_run_until)
    with pytest.raises(AuditError) as err:
        run_sync(4)
    assert str(err.value).startswith(
        f"flow {receivers[2].flow.flow_id}: delivered_bytes 1300000 > "
        f"size_bytes 1000000")


def test_deterministic_replay_same_seed():
    a = run_sync(18, seed=9)
    b = run_sync(18, seed=9)
    assert a.traces["root->t4"].log == b.traces["root->t4"].log
    assert [(f.flow_id, f.end_ns, f.retransmits) for f in a.flows] == \
           [(f.flow_id, f.end_ns, f.retransmits) for f in b.flows]
    assert a.summary == b.summary


def test_different_seed_changes_schedule():
    a = run_sync(18, seed=1)
    b = run_sync(18, seed=2)
    assert a.traces["root->t4"].log != b.traces["root->t4"].log


# tail drops on root->t4, and slope marks on it with the ACKs of the same
# flows traced on t4->root
TRACED_RUNS = (
    CASES["tcp_fanin_drops"],
    {"seed": 2, "protocol": "SL-ECN", "scenario": dict(FANIN, n=8),
     "telemetry": {"mode": "exact", "ports": ["root->t4", "t4->root"]}},
)


def test_trace_rows_share_the_ports_queue_length_ints():
    codes = Counter()
    for raw in TRACED_RUNS:
        res = run_simulation(config_from_dict(raw))
        for trace in res.traces.values():
            assert trace.log and len(trace.log) % 5 == 0
            rows = list(trace.rows())
            # each row starts from the queue-length int the previous one left
            assert rows[0][1] == 0
            assert all(row[1] is prev[2] for prev, row in zip(rows, rows[1:]))
            queued = deque()    # the size of each admitted packet, in order
            for _, q_before, q_after, _, code in rows:
                codes[code] += 1
                change = q_after - q_before
                if code == DROP:
                    assert change == 0
                elif code == DEQUEUE:
                    assert -change == queued.popleft()
                else:   # an admission: an ACK, or data of at most one MSS
                    assert (change == ACK_SIZE if code == ACK_ENQUEUE
                            else 0 < change <= MSS)
                    queued.append(change)
            assert not queued and rows[-1][2] == 0  # both runs drain
    assert codes[DROP] and codes[ENQUEUE_MARKED] and codes[ACK_ENQUEUE]


def reference_csv(trace):
    """``trace``'s trace.csv text, formatted row by row from its log."""
    lines = []
    for t, q_before, q_after, flow, code in trace.rows():
        if code == DEQUEUE:
            lines.append(f"{t},{trace.port_id},{q_after},{flow},dequeue\n")
        elif code == DROP:
            lines.append(f"{t},{trace.port_id},{q_before},{flow},drop\n")
        else:
            t_stamp, q_stamp = stamp_telemetry(
                t, q_before, trace.fidelity and code != ACK_ENQUEUE)
            lines.append(f"{t_stamp},{trace.port_id},{q_stamp},{flow},"
                         f"enqueue\n")
            if code == ENQUEUE_MARKED:
                lines.append(f"{t},{trace.port_id},{q_before},{flow},mark\n")
    return "".join(lines)


@pytest.mark.parametrize("mode", ["exact", "fidelity"])
def test_trace_csv_chunks_match_a_per_row_reference(mode):
    spans = []
    for raw in TRACED_RUNS:
        telemetry = dict(raw.get("telemetry", {}), mode=mode)
        res = run_simulation(config_from_dict(dict(raw, telemetry=telemetry)))
        for trace in res.traces.values():
            assert trace.fidelity == (mode == "fidelity")
            chunks = list(trace.csv_chunks())
            events = len(trace.log) // 5
            # one chunk per CSV_CHUNK_ROWS events, each ending a line
            assert len(chunks) == -(-events // CSV_CHUNK_ROWS)
            assert all(chunk.endswith("\n") for chunk in chunks)
            assert "".join(chunks) == reference_csv(trace)
            spans.append(len(chunks))
    assert max(spans) > 1


def test_an_empty_trace_yields_no_text():
    for fidelity in (False, True):
        assert list(PortTrace("p", fidelity).csv_chunks()) == []


def test_trace_csv_is_written_one_chunk_at_a_time(tmp_path, monkeypatch):
    # the golden tail-drop case, scaled up to a trace of many chunks
    raw = dict(CASES["tcp_fanin_drops"],
               scenario=dict(FANIN, n=18, response_bytes=2_000_000))
    res = run_simulation(config_from_dict(raw))

    class Written(Exception):
        """Raised where write_outputs has written trace.csv and the flows."""

    def stop(result):
        raise Written

    from microburst import analysis
    monkeypatch.setattr(analysis, "compute_metrics", stop)
    tracemalloc.start()
    try:
        with pytest.raises(Written):
            write_outputs(res, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = os.path.getsize(tmp_path / "trace.csv")
    assert size > 8 * CSV_CHUNK_ROWS * 30   # bytes: many chunks' worth
    assert peak < size / 4


def test_trace_is_freed_with_its_result_not_with_the_network():
    # the finished network is reference-cyclic: were a trace still held by
    # its port, it would live until the collector's next full pass
    res = run_sync(4)
    trace = weakref.ref(res.traces["root->t4"])
    gc.disable()
    try:
        del res
        assert trace() is None
    finally:
        gc.enable()


def test_telemetry_off_records_nothing():
    res = run_sync(18, telemetry_mode="off")
    assert res.traces == {}
    # counters still live
    assert res.ports["root->t4"]["max_queue_bytes"] > 0


def enqueue_rows(trace):
    """(time, queue) of the trace.csv enqueue rows."""
    rows = [line.split(",")
            for line in "".join(trace.csv_chunks()).splitlines()]
    return [(int(t), int(q)) for t, _, q, _, event in rows
            if event == "enqueue"]


def test_fidelity_mode_quantizes_stamped_rows():
    res = run_sync(18, telemetry_mode="fidelity")
    rows = enqueue_rows(res.traces["root->t4"])
    assert rows, "expected enqueue rows"
    assert all(t % 800 == 0 and q % 8 == 0 for t, q in rows)


def test_exact_mode_keeps_raw_values():
    res = run_sync(18, telemetry_mode="exact")
    rows = enqueue_rows(res.traces["root->t4"])
    assert any(t % 800 != 0 or q % 8 != 0 for t, q in rows)


def test_telemetry_mode_changes_only_trace_csv(tmp_path):
    # stamps are applied when trace.csv is written; nothing else may see them
    out = {}
    for mode in ("exact", "fidelity"):
        res = run_simulation(RunConfig(
            seed=4, protocol="ECN*", telemetry_mode=mode,
            scenario={"kind": "sync_fanin", "n": 8,
                      "response_bytes": 200_000, "jitter_ns": 20_000}))
        write_outputs(res, str(tmp_path / mode))
        out[mode] = (res.traces["root->t4"],
                     {name: (tmp_path / mode / name).read_text()
                      for name in ("trace.csv", "flows.csv", "metrics.csv")})
    (exact, exact_files), (fid, fid_files) = out["exact"], out["fidelity"]
    assert exact.times == fid.times
    assert exact.occupancy == fid.occupancy
    for name in ("flows.csv", "metrics.csv"):
        assert exact_files[name] == fid_files[name]
    exact_rows, fid_rows = (files["trace.csv"].splitlines()
                            for files in (exact_files, fid_files))
    assert len(exact_rows) == len(fid_rows) > 1000
    assert [r.rsplit(",", 1)[1] for r in exact_rows] == \
           [r.rsplit(",", 1)[1] for r in fid_rows]
    assert exact_rows != fid_rows


def test_completed_flow_records():
    cfg = RunConfig(seed=1, protocol="DCTCP",
                    scenario={"kind": "incast", "n": 4,
                              "mode": "fixed_response",
                              "response_bytes": 64_000},
                    buffer_bytes=128_000, telemetry_mode="off")
    res = run_simulation(cfg)
    for f in res.flows:
        assert f.end_ns is not None
        assert f.delivered_bytes == f.size_bytes


def test_overloaded_incast_under_taildrop_hits_timeouts():
    cfg = RunConfig(seed=1, protocol="TCP",
                    scenario={"kind": "incast", "n": 47,
                              "mode": "fixed_response",
                              "response_bytes": 64_000},
                    buffer_bytes=128_000, telemetry_mode="off")
    res = run_simulation(cfg)
    assert res.summary.packets_dropped > 0
    assert any(f.timeouts >= 1 for f in res.flows)


def test_run_to_quiescence_without_duration():
    cfg = RunConfig(seed=1, protocol="TCP",
                    scenario={"kind": "sync_fanin", "n": 2,
                              "response_bytes": 15_000},
                    telemetry_mode="off")
    res = run_simulation(cfg)
    assert all(f.end_ns is not None for f in res.flows)
    assert res.end_ns < 10_000_000


def test_websearch_smoke_run():
    cfg = RunConfig(seed=1, protocol="DCTCP+SL-ECN",
                    scenario={"kind": "websearch", "load": 0.4,
                              "duration_ns": 300_000_000},
                    duration_ns=300_000_000, drain_grace_ns=200_000_000,
                    buffer_bytes=128_000, max_cwnd_packets=32,
                    telemetry_mode="off")
    res = run_simulation(cfg)
    done = [q for _, _, _, q in res.query_completions() if q is not None]
    assert len(res.queries) > 10
    assert len(done) >= 0.9 * len(res.queries)


def test_query_ends_match_completion_order_when_cut_at_horizon(monkeypatch):
    # a 20 ms run over a 40 ms schedule.  Oracle: replay the flow completions
    # in dispatch order; a query ends at its last flow's completion and is
    # unfinished while any of its flows is
    completions = []
    complete = Sender._complete

    def recording_complete(self, now):
        completions.append((self.flow.flow_id, now))
        complete(self, now)

    monkeypatch.setattr(Sender, "_complete", recording_complete)
    cfg = RunConfig(seed=3, protocol="TCP", duration_ns=20_000_000,
                    scenario={"kind": "websearch", "load": 0.6,
                              "duration_ns": 40_000_000},
                    buffer_bytes=64_000, telemetry_mode="off")
    res = run_simulation(cfg)
    members = {q.query_id: {f.flow_id for f in res.flows
                            if f.query_id == q.query_id}
               for q, _ in res.queries}
    pending = {qid: set(fids) for qid, fids in members.items()}
    ends = dict.fromkeys(pending)
    for flow_id, now in completions:
        for qid, flows in pending.items():
            if flow_id in flows:
                flows.discard(flow_id)
                if not flows:
                    ends[qid] = now
    expected = [(q.query_id, q.issue_ns, ends[q.query_id],
                 None if ends[q.query_id] is None
                 else ends[q.query_id] - q.issue_ns) for q, _ in res.queries]
    assert res.query_completions() == expected
    # the case holds finished queries, queries cut with part of their flows
    # done, and queries with none done
    kinds = {"finished" if ends[q.query_id] is not None
             else "cut" if pending[q.query_id] < members[q.query_id]
             else "none done" for q, _ in res.queries}
    assert kinds == {"finished", "cut", "none done"}


# a 20.5 ms run over a 40 ms web-search schedule: at the horizon some flows
# have finished, some are still sending and the last ones never started
CUT_WEBSEARCH = RunConfig(
    seed=3, protocol="DCTCP+SL-ECN", duration_ns=20_500_000,
    scenario={"kind": "websearch", "load": 0.6, "duration_ns": 40_000_000},
    buffer_bytes=64_000, telemetry_mode="off")


def test_finished_senders_are_freed_when_the_loop_returns(monkeypatch):
    # with the collector off, only reference counting can free a sender:
    # every running flow's is live, and every finished flow's is gone, as
    # ``_complete`` cancelled the only timers that held it
    refs, live = {}, set()

    class TrackedSender(Sender):
        def __init__(self, flow, *args, **kwargs):
            super().__init__(flow, *args, **kwargs)
            refs[flow.flow_id] = weakref.ref(self)

    run_until = Engine.run_until

    def observed_run_until(self, t_end_ns):
        run_until(self, t_end_ns)
        if t_end_ns == CUT_WEBSEARCH.duration_ns:   # the loop's last call
            live.update(fid for fid, ref in refs.items() if ref() is not None)

    monkeypatch.setattr(sim, "Sender", TrackedSender)
    monkeypatch.setattr(Engine, "run_until", observed_run_until)
    gc.disable()
    try:
        res = run_simulation(CUT_WEBSEARCH)
    finally:
        gc.enable()
    finished = {f.flow_id for f in res.flows if f.end_ns is not None}
    started = set(refs)
    assert finished and finished < started < {f.flow_id for f in res.flows}
    assert live == started - finished


def test_cut_run_records_every_flow_started_or_not(monkeypatch):
    senders = []

    class KeptSender(Sender):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            senders.append(self)

    monkeypatch.setattr(sim, "Sender", KeptSender)
    res = run_simulation(CUT_WEBSEARCH)
    by_flow = {s.flow.flow_id: s for s in senders}
    never = [f for f in res.flows if f.flow_id not in by_flow]
    assert never and all(f.start_ns > CUT_WEBSEARCH.duration_ns
                         for f in never)
    for f in never:
        assert (f.end_ns, f.retransmits, f.timeouts, f.delivered_bytes,
                f.first_ece_cut_ns) == (None, 0, 0, 0, None)
    started = [f for f in res.flows if f.flow_id in by_flow]
    assert any(f.end_ns is None for f in started)
    assert any(f.first_ece_cut_ns is not None for f in started)
    for f in started:
        s = by_flow[f.flow_id]
        assert s.flow is f
        assert (f.end_ns is not None) == s.done


# every port traced on a case with drops, retransmissions and out-of-order
# arrivals, and on one with flows still sending at the horizon.  The golden
# case drains by 32 ms; its 1 s horizon only ends a run that never would
COUNT_CASES = {
    "tcp_fanin_drops": config_from_dict(dict(
        CASES["tcp_fanin_drops"], duration_ns=1_000_000_000,
        telemetry={"mode": "exact", "ports": list(PORT_IDS)})),
    "cut_websearch": RunConfig(**dict(vars(CUT_WEBSEARCH),
                                      telemetry_mode="exact",
                                      telemetry_ports=list(PORT_IDS))),
}


@pytest.mark.parametrize("name", sorted(COUNT_CASES))
def test_flow_counts_match_the_traced_ports(name):
    # Oracle: a data packet is sent as it enters its source host's NIC and,
    # with no link or switch delay, received as it leaves the port into its
    # destination host, which carries none of the flow's ACKs
    cfg = COUNT_CASES[name]
    assert cfg.prop_delay_ns == cfg.hop_proc_ns == 0
    res = run_simulation(cfg)
    rows = Counter()
    for port_id, trace in res.traces.items():
        for _, _, _, fid, code in trace.rows():
            rows[port_id, fid, code] += 1
    for f in res.flows:
        nodes = path(f.src, f.dst)
        nic, last = f"{nodes[0]}->{nodes[1]}", f"{nodes[-2]}->{nodes[-1]}"
        assert f.sent == (rows[nic, f.flow_id, ENQUEUE]
                          + rows[nic, f.flow_id, ENQUEUE_MARKED]), f
        assert f.received == rows[last, f.flow_id, DEQUEUE], f
        assert f.delivered_bytes <= f.size_bytes, f
        if f.end_ns is not None:
            assert f.delivered_bytes == f.size_bytes, f
    if name == "tcp_fanin_drops":   # every flow ends, some after a loss
        assert all(f.end_ns is not None for f in res.flows)
        assert any(f.retransmits for f in res.flows)
    else:
        assert any(f.end_ns is None and f.sent for f in res.flows)


@pytest.fixture
def networks(monkeypatch):
    """Every Network the runs build, kept for a look after the run."""
    built = []

    class KeptNetwork(sim.Network):
        def __init__(self, engine, cfg, dsts):
            super().__init__(engine, cfg, dsts)
            built.append(self)

    monkeypatch.setattr(sim, "Network", KeptNetwork)
    return built


def test_drop_free_run_keeps_no_receiver_and_returns_the_schedule(
        networks, monkeypatch):
    schedules = []
    build_schedule = sim.build_schedule

    def recording_build_schedule(*args):
        schedules.append(build_schedule(*args))
        return schedules[-1]

    monkeypatch.setattr(sim, "build_schedule", recording_build_schedule)
    res = run_simulation(RunConfig(
        seed=1, protocol="DCTCP", buffer_bytes=128_000, telemetry_mode="off",
        scenario={"kind": "incast", "n": 8, "response_bytes": 64_000}))
    assert res.summary.packets_dropped == 0
    (net,), ((flows, _),) = networks, schedules
    assert net.senders == net.receivers == {}
    assert len(res.flows) == len(flows) == 8
    assert all(kept is scheduled for kept, scheduled in zip(res.flows, flows))
    for f in res.flows:
        assert f.end_ns is not None and f.delivered_bytes == f.size_bytes
        assert f.received == f.sent > 0


def test_cut_run_keeps_a_receiver_only_while_a_packet_may_reach_it(networks):
    res = run_simulation(CUT_WEBSEARCH)
    net, = networks
    running = set(net.senders)
    lossy = {f.flow_id for f in res.flows
             if f.end_ns is not None and f.received < f.sent}
    assert running and lossy
    assert set(net.receivers) == running | lossy
    by_id = {f.flow_id: f for f in res.flows}
    for fid, receiver in net.receivers.items():
        assert receiver.flow is by_id[fid]


def test_receiver_of_a_flow_that_lost_a_packet_acks_a_late_duplicate(
        monkeypatch, lossy_port):
    # h1's NIC drops its fifth arrival, a data packet of flow 0; flow 1,
    # from h2, loses nothing
    nets = []

    class LossyNetwork(sim.Network):
        def __init__(self, engine, cfg, dsts):
            super().__init__(engine, cfg, dsts)
            self.ports["h1->t1"] = lossy_port(engine, self._deliver, {5})
            nets.append(self)

    monkeypatch.setattr(sim, "Network", LossyNetwork)
    res = run_simulation(RunConfig(   # both audits pass
        seed=1, protocol="TCP", telemetry_mode="off",
        scenario={"kind": "sync_fanin", "n": 2, "response_bytes": 30_000}))
    lost, clean = res.flows
    assert (lost.retransmits, lost.received) == (1, lost.sent - 1)
    assert (clean.retransmits, clean.received) == (0, clean.sent)
    assert res.summary.packets_sent == (res.summary.packets_delivered
                                        + res.ports["h1->t1"]["data_drops"])
    net, = nets
    assert net.senders == {} and set(net.receivers) == {0}
    assert net.receivers[0].flow is lost
    # a retransmitted copy of the first segment arrives after the flow ended:
    # the kept receiver acknowledges it, and the late ACK is ignored
    receiver = net.receivers[0]
    ack_port = receiver.route[0]
    now, received = net.engine.now, lost.received
    net._deliver(now, Packet(0, DATA, MSS, net.route("h1", "h10"), 0, MSS))
    assert lost.received == received + 1
    assert [(p.kind, p.ack_no) for p in ack_port.queue] == [(ACK, 30_000)]
    net.engine.run_until(now + 1_000_000)
    assert not ack_port.queue and ack_port.conservation_ok()


def test_flow_starts_at_the_horizon_but_not_one_ns_later(networks,
                                                        monkeypatch):
    cfg = RunConfig(seed=1, protocol="TCP", duration_ns=1_000_000,
                    drain_grace_ns=500_000, telemetry_mode="off",
                    scenario={"kind": "sync_fanin", "n": 1})
    horizon = cfg.duration_ns + cfg.drain_grace_ns

    def run(*starts):
        flows = [FlowSpec(fid, src, "h10", 15_000, start_ns)
                 for fid, (src, start_ns) in enumerate(starts)]
        monkeypatch.setattr(sim, "build_schedule", lambda *args: (flows, []))
        return run_simulation(cfg)

    alone = run(("h1", 0))
    res = run(("h1", 0), ("h2", horizon), ("h3", horizon + 1))
    net = networks[-1]
    _, at, after = res.flows
    # the start is the one event the flow at the horizon adds: its first
    # packets leave after the horizon
    assert at.flow_id in net.senders and at.sent > 0
    assert res.summary.events_dispatched == alone.summary.events_dispatched + 1
    assert after.flow_id not in net.senders
    assert (after.end_ns, after.sent) == (None, 0)


def test_loop_runs_the_engine_once_per_start_time(monkeypatch):
    # the flows that start at one time share one run of the engine to just
    # before it, and the last run goes to the horizon (a drained run's)
    starts = (("h1", 0), ("h2", 0), ("h3", 0), ("h4", 5_000), ("h5", 5_000),
              ("h6", 9_000))
    flows = [FlowSpec(fid, src, "h10", 15_000, start_ns)
             for fid, (src, start_ns) in enumerate(starts)]
    monkeypatch.setattr(sim, "build_schedule", lambda *args: (flows, []))
    ends, run_until = [], Engine.run_until

    def counted_run_until(self, t_end_ns):
        ends.append(t_end_ns)
        run_until(self, t_end_ns)

    monkeypatch.setattr(Engine, "run_until", counted_run_until)
    res = run_simulation(RunConfig(seed=1, protocol="TCP",
                                   telemetry_mode="off",
                                   scenario={"kind": "sync_fanin", "n": 1}))
    assert ends == [-1, 4_999, 8_999, 1 << 62]
    assert all(f.end_ns is not None and f.received == f.sent > 0
               for f in res.flows)


# the golden case whose forwarding and final delivery are scheduled events
DELAYED_LINKS = dict(
    seed=9, protocol="DCTCP",
    scenario={"kind": "sync_fanin", "n": 6, "response_bytes": 200_000,
              "jitter_ns": 20_000},
    buffer_bytes=128_000, link_rate_bps=10_000_000_000,
    prop_delay_ns=2_000, hop_proc_ns=500, telemetry_mode="off")


@pytest.fixture
def in_flight(monkeypatch):
    """The (queued, held) data packets each run's audit counted."""
    seen = []
    count = sim._data_in_flight

    def recording(net):
        seen.append(count(net))
        return seen[-1]

    monkeypatch.setattr(sim, "_data_in_flight", recording)
    return seen


@pytest.mark.parametrize("cfg, queued, held", [
    (RunConfig(**DELAYED_LINKS), False, False),
    (RunConfig(**dict(DELAYED_LINKS, duration_ns=300_000)), True, True),
    (CUT_WEBSEARCH, True, False),
], ids=["delayed_links", "delayed_links_cut", "websearch_cut"])
def test_packet_audit_counts_data_in_flight(in_flight, cfg, queued, held):
    # the audit passes; a cut run leaves data in port queues, and with link
    # delays in the ports' in_transit FIFOs.  A delivered data packet
    # is its own ACK by then, so the audit counts it once, as received
    res = run_simulation(cfg)
    assert res.summary.packets_sent > res.summary.packets_delivered > 0
    assert [(q > 0, h > 0) for q, h in in_flight] == [(queued, held)]
    dropped = sum(p["data_drops"] for p in res.ports.values())
    assert res.summary.packets_sent == (res.summary.packets_delivered
                                        + dropped + sum(in_flight[0]))


def test_audit_names_counts_when_a_port_loses_a_data_packet(monkeypatch):
    # the port drops one data packet without counting it: bytes are still
    # conserved and the flow recovers, so only the packet audit sees it
    enqueue = Port.enqueue
    lost = []

    def losing_enqueue(self, pkt, now):
        if self.port_id == "root->t4" and pkt.kind == DATA and not lost:
            lost.append(pkt)
            return
        enqueue(self, pkt, now)

    monkeypatch.setattr(Port, "enqueue", losing_enqueue)
    with pytest.raises(AuditError) as err:
        run_simulation(RunConfig(**DELAYED_LINKS))
    counts = re.fullmatch(r"data packets: sent (\d+) != received (\d+) \+ "
                          r"dropped 0 \+ queued 0 \+ held in delayed "
                          r"events 0", str(err.value))
    assert counts, str(err.value)
    sent, received = map(int, counts.groups())
    assert sent == received + len(lost)


K, R = 24_000, 10 * GBPS
# (policy type, attributes) on every switch port that data into h10 crosses;
# None: tail drop only
SWITCH_POLICY = {
    "TCP": None,
    "ECN*": (ThresholdEcn, {"threshold_bytes": K}),
    "DCTCP": (ThresholdEcn, {"threshold_bytes": K}),
    "S-ECN": (SlopeEcn, {"rate_bps": R, "threshold_bytes": None}),
    "SL-ECN": (SlopeEcn, {"rate_bps": R, "threshold_bytes": K}),
    "DCTCP+SL-ECN": (SlopeEcn, {"rate_bps": R, "threshold_bytes": K}),
}


# the switch ports on some route into h10; the other switch ports carry only
# the ACKs of flows to h10
INTO_H10 = {"t1->root", "t2->root", "t3->root", "root->t4", "t4->h10"}


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_protocol_sets_the_policy_of_every_switch_port(protocol):
    cfg = RunConfig(seed=1, protocol=protocol, scenario={"kind": "incast"},
                    link_rate_bps=R, ecn_threshold_bytes=K)
    net = sim.Network(Engine(), cfg, {"h10"})
    expected = SWITCH_POLICY[protocol]
    switch_policies = []
    for port_id, port in net.ports.items():
        if port_id not in INTO_H10 or expected is None:
            assert port.policy is None, port_id
            continue
        kind, attrs = expected
        assert type(port.policy) is kind, port_id
        assert {a: getattr(port.policy, a) for a in attrs} == attrs, port_id
        switch_policies.append(port.policy)
    assert len(switch_policies) == (0 if expected is None else len(INTO_H10))
    # each switch port keeps its own marking state
    assert len(set(map(id, switch_policies))) == len(switch_policies)


# -- a marker on a port that carries no data changes nothing ------------------

class EverySwitchPortMarks(Network):
    """The rule before markers followed the data: a fresh marker on every
    switch port, whatever the run's destinations."""

    def __init__(self, engine, cfg, dsts):
        super().__init__(engine, cfg, dsts)
        for port_id, port in self.ports.items():
            if port_id.split("->")[0] not in HOSTS:
                port.policy = sim._make_policy(cfg)


def _observed_run(cfg, network, monkeypatch):
    """``(what the run shows, its network)`` when ``sim`` builds
    ``network``: the flows, per-port counters, run summary, end, query
    ends, first window cut and the text of ``trace.csv``."""
    built = []

    class Kept(network):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(sim, "Network", Kept)
    res = run_simulation(cfg)
    text = "".join(chunk for pid in sorted(res.traces)
                   for chunk in res.traces[pid].csv_chunks())
    shown = (res.flows, res.ports, res.summary, res.end_ns, res.queries,
             res.first_ece_cut_ns, text)
    return shown, res.traces, built[0]


# each generator at a small size, to destinations h10, h11 and h12
SMALL_SCENARIOS = {
    "sync_fanin": {"n": 6, "response_bytes": 60_000, "jitter_ns": 20_000},
    "async_fanin": {"n": 6, "response_bytes": 40_000, "window_ns": 200_000},
    "one_background": {"fanin_count": 4, "response_bytes": 40_000,
                       "delay_ns": 400_000, "background_bytes": 300_000},
    "background_same_hop": {"background_count": 2, "fanin_count": 4,
                            "response_bytes": 40_000, "delay_ns": 400_000,
                            "background_bytes": 300_000},
    "background_prev_hop": {"background_count": 2, "fanin_count": 4,
                            "response_bytes": 40_000, "delay_ns": 400_000,
                            "background_bytes": 300_000},
    "incast": {"n": 8, "response_bytes": 32_000},
    "websearch": {"load": 0.6, "duration_ns": 20_000_000},
    "long_flow_batches": {"batch": 3, "interval_ns": 300_000, "batches": 2,
                          "flow_bytes": 100_000},
}

# flows both ways across the root and within a rack, so some switch ports
# carry data one way and the ACKs of another flow, while t2->h5, t4->h11
# and t4->h12 carry only ACKs: (src, dst, size, start)
TWO_WAY_FLOWS = (("h1", "h10", 150_000, 0), ("h10", "h1", 150_000, 0),
                 ("h4", "h7", 80_000, 10_000), ("h8", "h2", 80_000, 10_000),
                 ("h5", "h10", 100_000, 5_000), ("h11", "h10", 80_000, 0),
                 ("h12", "h4", 80_000, 20_000))

MARKING = [p for p, (_, threshold, slope) in PROTOCOLS.items()
           if threshold or slope]


@pytest.mark.parametrize("kind", [*SMALL_SCENARIOS, "two_way"])
@pytest.mark.parametrize("protocol", MARKING)
def test_a_marker_on_a_port_without_data_is_unobservable(monkeypatch,
                                                         protocol, kind):
    if kind == "two_way":
        monkeypatch.setattr(sim, "build_schedule", lambda *args: (
            sorted((FlowSpec(i, *flow) for i, flow in enumerate(TWO_WAY_FLOWS)),
                   key=lambda f: f.start_ns), []))
        scenario = {"kind": "incast"}
    else:
        scenario = {"kind": kind, **SMALL_SCENARIOS[kind]}
    cfg = RunConfig(seed=2, protocol=protocol, scenario=scenario,
                    buffer_bytes=48_000, ecn_threshold_bytes=12_000,
                    telemetry_mode="exact", telemetry_ports=list(PORT_IDS))
    every, _, _ = _observed_run(cfg, EverySwitchPortMarks, monkeypatch)
    shown, traces, net = _observed_run(cfg, Network, monkeypatch)
    assert shown == every
    assert every[2].packets_marked > 0
    # every switch port that admitted data had a marker, and some switch
    # port without one saw ACKs, which a marker there would have decided on
    acks_unjudged = False
    for pid, trace in traces.items():
        if pid.split("->")[0] in HOSTS or net.ports[pid].policy is not None:
            continue
        codes = set(trace.log[4::5])
        assert not codes & {ENQUEUE, ENQUEUE_MARKED}, pid
        acks_unjudged |= ACK_ENQUEUE in codes
    assert acks_unjudged


def test_slope_decisions_are_the_data_enqueues_at_switch_ports(monkeypatch):
    calls = []
    decide = SlopeEcn.decide

    def counted_decide(self, *args):
        calls.append(None)
        return decide(self, *args)

    monkeypatch.setattr(SlopeEcn, "decide", counted_decide)
    res = run_simulation(RunConfig(
        seed=1, protocol="DCTCP+SL-ECN", buffer_bytes=128_000,
        scenario={"kind": "websearch", "load": 0.4, "duration_ns": 20_000_000},
        telemetry_mode="exact", telemetry_ports=list(PORT_IDS)))
    assert {f.dst for f in res.flows} == {"h10"}
    codes = Counter()
    for pid, trace in res.traces.items():
        if pid.split("->")[0] not in HOSTS:
            codes.update(trace.log[4::5])
    assert codes[ACK_ENQUEUE] > 0 and res.summary.packets_marked > 0
    assert len(calls) == codes[ENQUEUE] + codes[ENQUEUE_MARKED]


@pytest.mark.parametrize("protocol, algo", [("TCP", NEWRENO),
                                            ("DCTCP", DCTCP)])
def test_every_transport_field_reaches_a_started_sender(monkeypatch, protocol,
                                                       algo):
    seen = []

    class SeenSender(Sender):
        def start(self, now):
            seen.append((self.algo, self.pacing, self.mss, self.dctcp_gain,
                         self.cwnd, self.ssthresh, self.alpha, self.srtt,
                         self.rto))
            super().start(now)

    monkeypatch.setattr(sim, "Sender", SeenSender)
    run_simulation(RunConfig(
        seed=1, protocol=protocol,
        scenario={"kind": "incast", "n": 2, "response_bytes": 9_000},
        mss_bytes=1000, initial_window_packets=2, max_cwnd_packets=40,
        rto_min_ns=5_000_000, dctcp_gain=0.25, dctcp_alpha0=0.5,
        pacing=True, initial_rtt_ns=80_000))
    assert seen == [(algo, True, 1000, 0.25, 2000, 40_000, 0.5, 80_000,
                     5_000_000)] * 2
