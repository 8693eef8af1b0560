import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from microburst.config import RunConfig
from microburst.engine import Engine
from microburst.packets import ACK, ACK_SIZE, DATA, Packet
from microburst.scenarios import FlowSpec
from microburst.transport import DCTCP, NEWRENO, RTO_MAX_NS, Receiver, Sender

MSS = 1500


def ack(flow_id, ack_no, ece=False):
    pkt = Packet(flow_id, ACK, 64, (), ack_no=ack_no)
    pkt.ece_echo = ece
    return pkt


class StubPort:
    """Records enqueue times instead of transmitting."""

    def __init__(self):
        self.sent = []

    def enqueue(self, pkt, now):
        self.sent.append((now, pkt))


def test_initial_window_is_three_segments(one_link):
    net = one_link(total_bytes=1_000_000)
    net.sender.start(0)
    assert net.sender.next_seq == 3 * MSS
    assert net.flow.sent == 3
    assert all(p.first_window for p in net.fwd.queue)


def test_single_packet_flow_completes_on_ack(one_link):
    net = one_link(total_bytes=1500)
    net.sender.start(0)
    net.run(1_000_000)
    assert net.sender.done
    # one 12us serialization + one 512ns ACK
    assert net.flow.end_ns == 12_512


def test_slow_start_two_packets_per_ack(one_link):
    net = one_link(total_bytes=1_000_000)
    net.sender.start(0)
    assert net.sender.cwnd == 3 * MSS
    sent_before = net.flow.sent
    net.sender.on_ack(ack(0, MSS), 100)
    assert net.sender.cwnd == 4 * MSS
    assert net.flow.sent - sent_before == 2


def test_congestion_avoidance_one_mss_per_rtt(one_link):
    net = one_link(total_bytes=10_000_000)
    s = net.sender
    s.start(0)
    s.cwnd = s.ssthresh = 10 * MSS
    s.next_seq = 10 * MSS
    assert not s.in_recovery and s.cwnd >= s.ssthresh   # congestion avoidance
    for i in range(1, 11):      # one full window of ACKs = one RTT
        s.on_ack(ack(0, i * MSS), i * 100)
    assert s.cwnd == 11 * MSS


def test_ece_halves_once_per_window(one_link):
    net = one_link(total_bytes=10_000_000)
    s = net.sender
    s.start(0)
    s.cwnd = s.ssthresh = 8 * MSS
    s.next_seq = 8 * MSS
    s.on_ack(ack(0, MSS, ece=True), 100)
    assert s.cwnd == 4 * MSS
    assert s.ssthresh == 4 * MSS
    # second echo in the same window: no further cut
    s.on_ack(ack(0, 2 * MSS, ece=True), 200)
    assert s.cwnd == 4 * MSS
    # after a full window is acked the reduction re-arms
    rearm_seq = s.cut_seq
    s.on_ack(ack(0, rearm_seq, ece=True), 300)
    assert s.cwnd == 2 * MSS


def test_ece_cut_floors_at_one_mss(one_link):
    net = one_link(total_bytes=10_000_000)
    s = net.sender
    s.start(0)
    s.cwnd = MSS
    s.on_ack(ack(0, MSS, ece=True), 100)
    assert s.cwnd == MSS


def test_dctcp_alpha_update_full_window_marked(one_link):
    net = one_link(algo="dctcp", total_bytes=10_000_000)
    s = net.sender
    s.alpha = 0.0      # start from a quiet estimator
    s.start(0)
    window_end = s.win_end
    acked = 0
    while acked < window_end:
        acked += MSS
        s.on_ack(ack(0, acked, ece=True), acked)
    # F = 1: alpha <- (1-g)*0 + g*1, cwnd scaled by 1 - alpha/2
    assert abs(s.alpha - 0.125) < 1e-12
    # cwnd at the boundary had grown to 6 MSS (3 ACKs in slow start)
    assert s.cwnd == 6 * MSS - int(6 * MSS * 0.125 / 2)


def test_dctcp_alpha_decays_geometrically_without_marks(one_link):
    net = one_link(algo="dctcp", total_bytes=100_000_000)
    s = net.sender
    s.start(0)
    s.alpha = 0.5
    acked = 0
    for _ in range(3):
        window_end = s.win_end
        while acked < window_end:
            acked += MSS
            s.on_ack(ack(0, acked), acked)
    assert abs(s.alpha - 0.5 * (1 - 0.125) ** 3) < 1e-12


def test_dctcp_persistent_marks_drive_alpha_to_one(one_link):
    net = one_link(algo="dctcp", total_bytes=10**9)
    s = net.sender
    s.start(0)
    acked = 0
    for _ in range(200):
        window_end = max(s.win_end, acked + MSS)
        while acked < window_end:
            acked += MSS
            s.on_ack(ack(0, acked, ece=True), acked)
    assert s.alpha > 0.99
    assert s.cwnd <= 2 * MSS   # ~halving every window pins cwnd near the floor


def test_dctcp_no_cut_when_unmarked(one_link):
    net = one_link(algo="dctcp", total_bytes=10_000_000)
    s = net.sender
    s.start(0)
    cw = s.cwnd
    window_end = s.win_end
    acked = 0
    while acked < window_end:
        acked += MSS
        s.on_ack(ack(0, acked), acked)
    assert s.cwnd > cw   # grew, never cut


def test_three_dupacks_trigger_fast_retransmit(one_link):
    net = one_link(total_bytes=10_000_000)
    s = net.sender
    s.start(0)
    s.cwnd = 10 * MSS
    s.next_seq = 10 * MSS
    sent = net.flow.sent
    for _ in range(3):
        s.on_ack(ack(0, 0), 100)
    assert s.in_recovery
    assert net.flow.retransmits == 1
    assert net.flow.sent == sent + 1
    assert s.ssthresh == 5 * MSS


def test_timeout_backoff_sequence(one_link):
    net = one_link(total_bytes=10_000_000, rto_min_ns=10_000_000)
    s = net.sender
    s.start(0)
    assert s.rto == 10_000_000
    s.on_timeout(0)
    assert s.rto == 20_000_000
    s.on_timeout(0)
    assert s.rto == 40_000_000
    assert net.flow.timeouts == 2
    assert s.cwnd == MSS
    assert not s.in_recovery and s.cwnd < s.ssthresh    # slow start


def test_rto_floor_dominates_at_datacenter_rtt(one_link):
    net = one_link(total_bytes=10_000_000)
    s = net.sender
    s.start(0)
    s._rtt_sample(100_000)     # srtt ~ 100us
    assert s.rto == 10_000_000  # the 10ms floor wins


def test_timeout_halves_ssthresh(one_link):
    net = one_link(total_bytes=10_000_000)
    s = net.sender
    s.start(0)
    s.cwnd = 20 * MSS
    s.next_seq = 20 * MSS
    s.on_timeout(0)
    assert s.ssthresh == 10 * MSS
    assert s.cwnd == MSS


def test_receiver_in_order_ack_advances(one_link):
    net = one_link()
    net.sender.start(0)
    net.run(12_000)   # first packet delivered
    assert net.flow.delivered_bytes == MSS


def test_receiver_out_of_order_duplicate_ack(one_link):
    from microburst.packets import DATA
    net = one_link()
    r = net.receiver
    p1 = Packet(0, DATA, MSS, (), seq_lo=0, seq_hi=MSS)
    p3 = Packet(0, DATA, MSS, (), seq_lo=2 * MSS, seq_hi=3 * MSS)
    p2 = Packet(0, DATA, MSS, (), seq_lo=MSS, seq_hi=2 * MSS)
    r.on_data(p1, 0)
    assert r.flow.delivered_bytes == MSS
    r.on_data(p3, 10)          # hole: duplicate cumulative ack
    assert r.flow.delivered_bytes == MSS
    # the held segment is this receiver's alone
    fresh = Receiver(FlowSpec(1, "h2", "h10", 3 * MSS, 0), (StubPort(),),
                     dctcp_echo=False)
    assert r.segments == {2 * MSS: 3 * MSS} and fresh.segments == {}
    r.on_data(p2, 20)          # hole filled: jumps past both
    assert r.flow.delivered_bytes == 3 * MSS


def test_receiver_sticky_ece_until_cwr(one_link):
    from microburst.packets import DATA
    net = one_link()
    r = net.receiver
    marked = Packet(0, DATA, MSS, (), seq_lo=0, seq_hi=MSS)
    marked.ecn_marked = True
    r.on_data(marked, 0)
    assert r.sticky_ece is True
    clean = Packet(0, DATA, MSS, (), seq_lo=MSS, seq_hi=2 * MSS)
    r.on_data(clean, 10)
    assert r.sticky_ece is True        # still echoing
    cwr = Packet(0, DATA, MSS, (), seq_lo=2 * MSS, seq_hi=3 * MSS)
    cwr.cwr = True
    r.on_data(cwr, 20)
    assert r.sticky_ece is False


def test_dctcp_receiver_exact_echo(one_link):
    from microburst.packets import DATA
    net = one_link(algo="dctcp")
    r = net.receiver
    stub = StubPort()
    r.route = (stub,)
    marked = Packet(0, DATA, MSS, (), seq_lo=0, seq_hi=MSS)
    marked.ecn_marked = True
    r.on_data(marked, 0)
    clean = Packet(0, DATA, MSS, (), seq_lo=MSS, seq_hi=2 * MSS)
    r.on_data(clean, 10)
    assert [p.ece_echo for _, p in stub.sent] == [True, False]


def slots(pkt):
    return {slot: getattr(pkt, slot) for slot in Packet.__slots__}


@pytest.mark.parametrize("dctcp_echo", [False, True])
def test_receiver_rewrites_the_data_packet_into_a_fresh_ack(dctcp_echo):
    stub = StubPort()
    route = (stub,)
    r = Receiver(FlowSpec(7, "h1", "h10", 3 * MSS, 0), route, dctcp_echo)
    r.on_data(Packet(7, DATA, MSS, route, seq_lo=0, seq_hi=MSS), 10)
    # the second segment, so every slot of the data packet differs from
    # its ACK's
    data = Packet(7, DATA, MSS, ("p0", "p1", "p2"), seq_lo=MSS,
                  seq_hi=2 * MSS)
    data.ecn_marked = data.cwr = data.first_window = True
    data.send_round = 3
    data.hop = 2
    r.on_data(data, 50)
    fresh = Packet(7, ACK, ACK_SIZE, route, 0, 0, 2 * MSS)
    fresh.ece_echo = True
    [_, (now, ack)] = stub.sent
    assert now == 50 and ack is data
    assert slots(ack) == slots(fresh)


def stub_sender(burst=True, total_bytes=40 * MSS):
    """A NewReno sender of flow 7 whose one port records its segments."""
    stub = StubPort()
    cfg = RunConfig(seed=1, protocol="ECN*", scenario={"kind": "incast"})
    flow = FlowSpec(7, "h1", "h10", total_bytes, 0, burst=burst)
    return Sender(flow, (stub,), Engine(), cfg.validate()), stub


def delivered_ack(ack_no, ece=False):
    """Flow 7's ACK as delivered, its other slots unlike any segment's."""
    pkt = ack(7, ack_no, ece)
    pkt.ecn_marked = pkt.cwr = pkt.first_window = True
    pkt.send_round = 5
    pkt.route = ("r0", "r1")
    pkt.hop = 1
    return pkt


def segment(sender, seq_lo, cwr=False, first_window=False, send_round=-1):
    """The segment ``sender`` would have allocated at ``seq_lo``."""
    pkt = Packet(7, DATA, MSS, sender.route, seq_lo, seq_lo + MSS)
    pkt.cwr, pkt.first_window, pkt.send_round = cwr, first_window, send_round
    return pkt


def test_sender_rewrites_the_ack_into_its_next_new_segment():
    s, stub = stub_sender(burst=False)
    s.start(0)
    a = delivered_ack(MSS)
    s.on_ack(a, 100)    # slow start: two new segments
    [(_, first), (_, second)] = stub.sent[3:]
    assert first is a and second is not a
    assert slots(first) == slots(segment(s, 3 * MSS))
    assert slots(second) == slots(segment(s, 4 * MSS))


def test_sender_rewrites_the_ack_into_a_first_window_segment():
    s, stub = stub_sender()
    s.cwnd = MSS
    s.start(0)
    a = delivered_ack(MSS)
    s.on_ack(a, 100)    # segments 1 and 2 are still in the first window
    [(_, first), (_, second)] = stub.sent[1:]
    assert first is a
    assert slots(first) == slots(segment(s, MSS, first_window=True,
                                         send_round=0))
    assert slots(second) == slots(segment(s, 2 * MSS, first_window=True,
                                          send_round=0))


def test_sender_rewrites_the_ack_into_the_segment_carrying_cwr():
    s, stub = stub_sender(burst=False)
    s.cwnd = 8 * MSS
    s.start(0)
    a = delivered_ack(7 * MSS, ece=True)
    s.on_ack(a, 100)    # cut to 4 MSS with one in flight: three segments
    sent = [pkt for _, pkt in stub.sent[8:]]
    assert len(sent) == 3 and sent[0] is a
    assert slots(a) == slots(segment(s, 8 * MSS, cwr=True))
    assert [pkt.cwr for pkt in sent] == [True, False, False]


def test_sender_rewrites_the_ack_into_a_retransmission_in_recovery():
    s, stub = stub_sender()
    s.cwnd = 10 * MSS
    s.start(0)
    s.on_ack(delivered_ack(MSS), 100)
    dupacks = [delivered_ack(MSS) for _ in range(3)]
    for i, dup in enumerate(dupacks):
        s.on_ack(dup, 200 + i)
    assert s.in_recovery and stub.sent[-1][1] is dupacks[2]
    assert slots(dupacks[2]) == slots(segment(s, MSS, send_round=0))
    partial = delivered_ack(3 * MSS)
    sent_before = len(stub.sent)
    s.on_ack(partial, 300)     # the next hole is resent at once
    assert s.in_recovery and stub.sent[sent_before][1] is partial
    assert slots(partial) == slots(segment(s, 3 * MSS, send_round=0))


def test_an_ack_reaching_a_finished_sender_is_not_reused():
    s, stub = stub_sender(burst=False, total_bytes=MSS)
    s.start(0)
    s.on_ack(delivered_ack(MSS), 100)
    assert s.done
    late = delivered_ack(MSS)
    s.on_ack(late, 200)
    assert s.spare is not late and len(stub.sent) == 1


def test_pacing_spacing_is_srtt_over_window(one_link):
    net = one_link(total_bytes=1_000_000, initial_rtt_ns=100_000, pacing=True)
    s = net.sender
    stub = StubPort()
    s.route = (stub,)
    s.cwnd = 4 * MSS
    s.start(0)
    net.run(200_000)
    # cwnd/srtt pacing: segments spread srtt/(cwnd/MSS) = 25us apart
    assert [t for t, _ in stub.sent] == [0, 25_000, 50_000, 75_000]


def test_unpaced_initial_window_is_back_to_back(one_link):
    net = one_link(total_bytes=1_000_000)
    net.sender.start(0)
    assert len(net.fwd.queue) == 3   # all queued at t=0


# -- adversarial loss ----------------------------------------------------------

_LOSSES = st.sets(st.integers(1, 120), max_size=25)


def lossy(lossy_port, net, deliver, data_drops, ack_drops):
    """Route the one-link flow over two lossy ports delivering to
    ``deliver``."""
    fwd = lossy_port(net.engine, deliver, data_drops)
    rev = lossy_port(net.engine, deliver, ack_drops)
    net.sender.route, net.receiver.route = (fwd,), (rev,)
    return fwd


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(algo=st.sampled_from([NEWRENO, DCTCP]),
       segments=st.integers(1, 60), data_drops=_LOSSES, ack_drops=_LOSSES)
def test_flow_survives_adversarial_drops(one_link, lossy_port, algo, segments,
                                         data_drops, ack_drops):
    net = one_link(algo=algo, total_bytes=segments * MSS)
    s, flow = net.sender, net.flow
    seen = []    # (cumulative ACK, highest_acked, rto) around each delivery

    def deliver(now, pkt):
        seen.append((flow.delivered_bytes, s.highest_acked, s.rto))
        net._deliver(now, pkt)
        seen.append((flow.delivered_bytes, s.highest_acked, s.rto))

    fwd = lossy(lossy_port, net, deliver, data_drops, ack_drops)
    s.start(0)
    net.run(1 << 62)
    assert s.done and flow.delivered_bytes == s.total
    for (c0, h0, _), (c1, h1, _) in zip(seen, seen[1:]):
        assert c1 >= c0 and h1 >= h0
    assert max(rto for _, _, rto in seen) <= RTO_MAX_NS
    assert flow.sent == flow.received + fwd.data_drops


def pending_timers(engine, sender):
    """Pending (retransmission, pacing) timers of ``sender``."""
    fns = [fn.__func__ for fn, _ in engine.pending()
           if getattr(fn, "__self__", None) is sender]
    return fns.count(Sender._rto_fire), fns.count(Sender._pace_fire)


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(algo=st.sampled_from([NEWRENO, DCTCP]), pacing=st.booleans(),
       segments=st.integers(1, 60), data_drops=_LOSSES, ack_drops=_LOSSES)
def test_sender_holds_at_most_one_timer_of_each_kind(one_link, lossy_port,
                                                     algo, pacing, segments,
                                                     data_drops, ack_drops):
    # a timeout must not leave a second retransmission timer behind, and a
    # finished sender must hold none, so nothing keeps it alive
    net = one_link(algo=algo, total_bytes=segments * MSS, pacing=pacing)
    s = net.sender
    seen = []    # (done, pending timers) after each delivery

    def deliver(now, pkt):
        net._deliver(now, pkt)
        seen.append((s.done, pending_timers(net.engine, s)))

    lossy(lossy_port, net, deliver, data_drops, ack_drops)
    s.start(0)
    net.run(1 << 62)
    assert s.done
    assert all(rto <= 1 and pace <= 1 for _, (rto, pace) in seen)
    assert all(timers == (0, 0) for done, timers in seen if done)
