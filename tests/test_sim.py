"""End-to-end runs on the 12-host preset: timing ground truths, byte
conservation, determinism, telemetry modes."""

import gc
import weakref

import numpy as np
import pytest

from microburst.analysis import QueueTrace
from microburst.config import RunConfig
from microburst.engine import Engine
from microburst.sim import AuditError, run_simulation, write_outputs
from microburst.transport import Receiver, Sender

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
    burst = {flow for t, _, _, flow, _ in ann.log
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
        receivers[2].cum_ack += 1_000_000

    monkeypatch.setattr(Receiver, "__init__", recording_init)
    monkeypatch.setattr(Engine, "run_until", overcounting_run_until)
    with pytest.raises(AuditError) as err:
        run_sync(4)
    assert str(err.value).startswith(
        f"flow {receivers[2].flow_id}: delivered_bytes 1300000 > "
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
    rows = [line.split(",") for line in trace.csv_lines()]
    return [(int(t), int(q)) for t, _, q, _, event in rows
            if event == "enqueue\n"]


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
        out[mode] = (QueueTrace.from_port_trace(res.traces["root->t4"]),
                     {name: (tmp_path / mode / name).read_text()
                      for name in ("trace.csv", "flows.csv", "metrics.csv")})
    (exact, exact_files), (fid, fid_files) = out["exact"], out["fidelity"]
    assert np.array_equal(exact.times, fid.times)
    assert np.array_equal(exact.occupancy, fid.occupancy)
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
        completions.append((self.flow_id, now))
        complete(self, now)

    monkeypatch.setattr(Sender, "_complete", recording_complete)
    cfg = RunConfig(seed=3, protocol="TCP", duration_ns=20_000_000,
                    scenario={"kind": "websearch", "load": 0.6,
                              "duration_ns": 40_000_000},
                    buffer_bytes=64_000, telemetry_mode="off")
    res = run_simulation(cfg)
    pending = {q.query_id: set(q.flow_ids) for q, _ in res.queries}
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
             else "cut" if len(pending[q.query_id]) < len(q.flow_ids)
             else "none done" for q, _ in res.queries}
    assert kinds == {"finished", "cut", "none done"}
