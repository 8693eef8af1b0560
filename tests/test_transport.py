from hypothesis import HealthCheck, given, settings, strategies as st

from microburst.netmodel import Port
from microburst.packets import ACK, Packet
from microburst.transport import DCTCP, NEWRENO, RTO_MAX_NS, TransportParams
from microburst.units import GBPS

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
    assert net.sender.sent == 3
    assert all(p.first_window for p in net.fwd.queue)


def test_single_packet_flow_completes_on_ack(one_link):
    net = one_link(total_bytes=1500)
    net.sender.start(0)
    net.run(1_000_000)
    assert net.sender.done
    # one 12us serialization + one 512ns ACK
    assert net.sender.end_ns == 12_512


def test_slow_start_two_packets_per_ack(one_link):
    net = one_link(total_bytes=1_000_000)
    net.sender.start(0)
    assert net.sender.cwnd == 3 * MSS
    sent_before = net.sender.sent
    net.sender.on_ack(ack(0, MSS), 100)
    assert net.sender.cwnd == 4 * MSS
    assert net.sender.sent - sent_before == 2


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
    sent = net.sender.sent
    for _ in range(3):
        s.on_ack(ack(0, 0), 100)
    assert s.in_recovery
    assert s.retransmits == 1
    assert net.sender.sent == sent + 1
    assert s.ssthresh == 5 * MSS


def test_timeout_backoff_sequence(one_link):
    params = TransportParams(rto_min_ns=10_000_000)
    net = one_link(total_bytes=10_000_000, params=params)
    s = net.sender
    s.start(0)
    assert s.rto == 10_000_000
    s.on_timeout(0)
    assert s.rto == 20_000_000
    s.on_timeout(0)
    assert s.rto == 40_000_000
    assert s.timeouts == 2
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
    assert net.receiver.cum_ack == MSS


def test_receiver_out_of_order_duplicate_ack(one_link):
    from microburst.packets import DATA
    net = one_link()
    r = net.receiver
    p1 = Packet(0, DATA, MSS, (), seq_lo=0, seq_hi=MSS)
    p3 = Packet(0, DATA, MSS, (), seq_lo=2 * MSS, seq_hi=3 * MSS)
    p2 = Packet(0, DATA, MSS, (), seq_lo=MSS, seq_hi=2 * MSS)
    r.on_data(p1, 0)
    assert r.cum_ack == MSS
    r.on_data(p3, 10)          # hole: duplicate cumulative ack
    assert r.cum_ack == MSS
    r.on_data(p2, 20)          # hole filled: jumps past both
    assert r.cum_ack == 3 * MSS


def test_receiver_sticky_ece_until_cwr(one_link):
    from microburst.packets import DATA
    net = one_link()
    r = net.receiver
    marked = Packet(0, DATA, MSS, (), seq_lo=0, seq_hi=MSS, ecn_capable=True)
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
    marked = Packet(0, DATA, MSS, (), seq_lo=0, seq_hi=MSS, ecn_capable=True)
    marked.ecn_marked = True
    r.on_data(marked, 0)
    clean = Packet(0, DATA, MSS, (), seq_lo=MSS, seq_hi=2 * MSS)
    r.on_data(clean, 10)
    assert [p.ece_echo for _, p in stub.sent] == [True, False]


def test_pacing_spacing_is_srtt_over_window(one_link):
    params = TransportParams(initial_rtt_ns=100_000)
    net = one_link(total_bytes=1_000_000, params=params, pacing=True)
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

class LossyPort(Port):
    """A port that drops its arrivals whose 1-based index is in ``drop_at``."""

    __slots__ = ("drop_at", "arrivals", "dropped")

    def __init__(self, engine, deliver_fn, drop_at):
        super().__init__("lossy", GBPS, None, None, engine,
                         deliver_fn=deliver_fn)
        self.drop_at = drop_at
        self.arrivals = 0
        self.dropped = 0

    def enqueue(self, pkt, now):
        self.arrivals += 1
        if self.arrivals in self.drop_at:
            self.dropped += 1
        else:
            super().enqueue(pkt, now)


_LOSSES = st.sets(st.integers(1, 120), max_size=25)


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(algo=st.sampled_from([NEWRENO, DCTCP]),
       segments=st.integers(1, 60), data_drops=_LOSSES, ack_drops=_LOSSES)
def test_flow_survives_adversarial_drops(one_link, algo, segments,
                                         data_drops, ack_drops):
    net = one_link(algo=algo, total_bytes=segments * MSS)
    s, r = net.sender, net.receiver
    seen = []    # (cum_ack, highest_acked, rto) before and after each delivery

    def deliver(now, pkt):
        seen.append((r.cum_ack, s.highest_acked, s.rto))
        net._deliver(now, pkt)
        seen.append((r.cum_ack, s.highest_acked, s.rto))

    fwd = LossyPort(net.engine, deliver, data_drops)
    rev = LossyPort(net.engine, deliver, ack_drops)
    s.route, r.route = (fwd,), (rev,)
    s.start(0)
    net.run(1 << 62)
    assert s.done and r.cum_ack == s.total
    for (c0, h0, _), (c1, h1, _) in zip(seen, seen[1:]):
        assert c1 >= c0 and h1 >= h0
    assert max(rto for _, _, rto in seen) <= RTO_MAX_NS
    assert s.sent == r.received + fwd.dropped
