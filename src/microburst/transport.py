"""Self-clocked window transports: NewReno- and DCTCP-style senders plus a
receiver that acknowledges every data packet immediately (delayed ACK off).

The sender releases new segments whenever in-flight bytes are below cwnd,
so in slow start each ACK for one segment triggers two new segments: that
ACK clock is what shapes the queue dynamics this simulator exists to
reproduce.  Timeline bookkeeping the analysis stage relies on (send round
tags, first-window flags, first mark-induced window cut) is recorded here.
"""

from .packets import Packet, DATA, ACK, ACK_SIZE

NEWRENO = "newreno"
DCTCP = "dctcp"

RTO_MAX_NS = 10_000_000_000


class TransportParams:
    """Per-run transport knobs shared by all flows."""

    __slots__ = ("mss", "iw_packets", "max_cwnd", "rto_min_ns", "dctcp_gain",
                 "dctcp_alpha0", "initial_rtt_ns")

    def __init__(self, mss=1500, iw_packets=3, max_cwnd_packets=64,
                 rto_min_ns=10_000_000, dctcp_gain=0.125, dctcp_alpha0=1.0,
                 initial_rtt_ns=50_000):
        self.mss = mss
        self.iw_packets = iw_packets
        self.max_cwnd = max_cwnd_packets * mss
        self.rto_min_ns = rto_min_ns
        self.dctcp_gain = dctcp_gain
        self.dctcp_alpha0 = dctcp_alpha0
        self.initial_rtt_ns = initial_rtt_ns


class Sender:
    """One flow's sending endpoint and congestion-control state machine."""

    __slots__ = ("flow_id", "algo", "engine", "route", "params", "total",
                 "ecn_capable", "pacing", "annotate",
                 "cwnd", "ssthresh", "next_seq", "highest_acked", "dupacks",
                 "in_recovery", "recover", "cut_seq", "cwr_pending", "ca_credit",
                 "alpha", "win_end", "win_acked", "win_marked",
                 "srtt", "rttvar", "rto", "rto_deadline", "rto_timer",
                 "rtt_probe", "pace_next", "pace_timer",
                 "round", "round_end",
                 "start_ns", "end_ns", "done", "sent", "retransmits",
                 "timeouts", "first_ece_cut_ns")

    def __init__(self, flow_id, algo, total_bytes, route, engine, params,
                 ecn_capable, pacing=False, annotate=True):
        self.flow_id = flow_id
        self.algo = algo
        self.engine = engine
        self.route = route
        self.params = params
        self.total = total_bytes
        self.ecn_capable = ecn_capable
        self.pacing = pacing
        self.annotate = annotate

        mss = params.mss
        self.cwnd = min(params.iw_packets * mss, params.max_cwnd)
        self.ssthresh = params.max_cwnd
        self.next_seq = 0
        self.highest_acked = 0
        self.dupacks = 0
        self.in_recovery = False
        self.recover = 0
        self.cut_seq = 0
        self.cwr_pending = False
        self.ca_credit = 0

        self.alpha = params.dctcp_alpha0
        self.win_end = 0
        self.win_acked = 0
        self.win_marked = 0

        self.srtt = params.initial_rtt_ns
        self.rttvar = params.initial_rtt_ns // 2
        self.rto = params.rto_min_ns
        self.rto_deadline = 0
        self.rto_timer = None
        self.rtt_probe = None
        self.pace_next = 0
        self.pace_timer = None

        self.round = 0
        self.round_end = 0

        self.start_ns = None
        self.end_ns = None
        self.done = False
        self.sent = 0           # data packets, retransmissions included
        self.retransmits = 0
        self.timeouts = 0
        self.first_ece_cut_ns = None

    # -- state view ---------------------------------------------------------

    def inflight(self):
        return self.next_seq - self.highest_acked

    # -- application start --------------------------------------------------

    def start(self, now):
        self.start_ns = now
        self._send_available(now)
        self.round_end = self.next_seq
        self.win_end = self.next_seq
        self._arm_rto(now)

    # -- segment emission ---------------------------------------------------

    def _emit(self, seq_lo, size, now, retransmit):
        pkt = Packet(self.flow_id, DATA, size, self.route, seq_lo,
                     seq_lo + size, 0, self.ecn_capable)
        if self.cwr_pending:
            pkt.cwr = True
            self.cwr_pending = False
        if self.annotate:
            pkt.first_window = (not retransmit
                                and seq_lo < self.params.iw_packets * self.params.mss)
            pkt.send_round = self.round
        else:
            pkt.send_round = -1
        self.sent += 1
        if not retransmit and self.rtt_probe is None:
            self.rtt_probe = (seq_lo + size, now)
        if self.rto_timer is None and not self.done:
            self._arm_rto(now)
        self.route[0].enqueue(pkt, now)

    def _send_available(self, now):
        mss = self.params.mss
        total = self.total
        while self.next_seq < total and self.next_seq - self.highest_acked < self.cwnd:
            if self.pacing:
                interval = self.srtt * mss // max(self.cwnd, mss)
                if now < self.pace_next:
                    if self.pace_timer is None:
                        self.pace_timer = self.engine.schedule(
                            self.pace_next, self._pace_fire, None)
                    return
                self.pace_next = now + interval
            size = min(mss, total - self.next_seq)
            rexmit = self.next_seq < self.recover   # resend after a timeout rewind
            if rexmit:
                self.retransmits += 1
            self._emit(self.next_seq, size, now, retransmit=rexmit)
            self.next_seq += size

    def _pace_fire(self, now, _):
        self.pace_timer = None
        if not self.done:
            self._send_available(now)

    # -- ACK processing -----------------------------------------------------

    def on_ack(self, pkt, now):
        if self.done:
            return
        ack = pkt.ack_no
        mss = self.params.mss
        if ack > self.highest_acked:
            delta = ack - self.highest_acked
            self.highest_acked = ack
            if self.next_seq < ack:
                # cumulative ACK jumped past the resend frontier
                self.next_seq = ack
            self.dupacks = 0
            probe = self.rtt_probe
            if probe is not None and ack >= probe[0]:
                self._rtt_sample(now - probe[1])
                self.rtt_probe = None
            self.rto_deadline = now + self.rto

            if self.algo == DCTCP:
                self.win_acked += delta
                if pkt.ece_echo:
                    self.win_marked += delta

            if self.in_recovery:
                if ack >= self.recover:
                    self.cwnd = max(self.ssthresh, mss)
                    self.in_recovery = False
                else:
                    # partial ACK: next hole is lost too
                    self._retransmit_head(now)
                    self.cwnd = max(self.cwnd - delta + mss, mss)
            elif self.algo == NEWRENO and pkt.ece_echo:
                # cut once, then hold cwnd until the reduction window passes
                if ack >= self.cut_seq:
                    self._ece_cut(now)
            else:
                self._grow(delta)

            if self.algo == DCTCP and ack >= self.win_end:
                self._dctcp_window_boundary(now)

            if ack >= self.total:
                self._complete(now)
                return
            self._send_available(now)
            if ack >= self.round_end:
                self.round += 1
                self.round_end = self.next_seq
        else:
            self.dupacks += 1
            if self.in_recovery:
                self.cwnd = min(self.cwnd + mss, self.params.max_cwnd)
                self._send_available(now)
            elif self.dupacks == 3 and self.highest_acked >= self.recover:
                # the recover guard suppresses spurious entry while data
                # rewound by a timeout is still being re-acknowledged
                self._fast_retransmit(now)

    def _grow(self, acked_delta):
        mss = self.params.mss
        if self.cwnd < self.ssthresh:
            self.cwnd += mss
        else:
            # byte-counted: one MSS per cwnd's worth of acknowledged bytes
            self.ca_credit += acked_delta
            if self.ca_credit >= self.cwnd:
                self.ca_credit -= self.cwnd
                self.cwnd += mss
        if self.cwnd > self.params.max_cwnd:
            self.cwnd = self.params.max_cwnd

    def _note_ece_cut(self, now):
        if self.first_ece_cut_ns is None:
            self.first_ece_cut_ns = now

    def _ece_cut(self, now):
        mss = self.params.mss
        self.cwnd = max(self.cwnd // 2, mss)
        self.ssthresh = max(self.cwnd, mss)
        self.ca_credit = 0
        self.cut_seq = self.next_seq   # one reduction per window
        self.cwr_pending = True
        self._note_ece_cut(now)

    def _dctcp_window_boundary(self, now):
        if self.win_acked > 0:
            frac = self.win_marked / self.win_acked
            self.alpha += self.params.dctcp_gain * (frac - self.alpha)
            if self.win_marked > 0:
                mss = self.params.mss
                self.cwnd = max(self.cwnd - int(self.cwnd * self.alpha / 2), mss)
                self.ssthresh = max(self.cwnd, mss)
                self.cwr_pending = True
                self._note_ece_cut(now)
        self.win_acked = 0
        self.win_marked = 0
        self.win_end = self.next_seq

    def _retransmit_head(self, now):
        mss = self.params.mss
        size = min(mss, self.next_seq - self.highest_acked)
        if size <= 0:
            return
        self.retransmits += 1
        self._emit(self.highest_acked, size, now, retransmit=True)

    def _fast_retransmit(self, now):
        mss = self.params.mss
        self.ssthresh = max(self.inflight() // 2, 2 * mss)
        self._retransmit_head(now)
        self.cwnd = self.ssthresh + 3 * mss
        self.recover = self.next_seq
        self.in_recovery = True

    # -- RTT / RTO ------------------------------------------------------

    def _rtt_sample(self, sample_ns):
        if sample_ns <= 0:
            return
        delta = sample_ns - self.srtt
        self.srtt += delta // 8
        self.rttvar += (abs(delta) - self.rttvar) // 4
        self.rto = max(self.srtt + 4 * self.rttvar, self.params.rto_min_ns)

    def _arm_rto(self, now):
        self.rto_deadline = now + self.rto
        if self.rto_timer is None:
            self.rto_timer = self.engine.schedule(self.rto_deadline,
                                                  self._rto_fire, None)

    def _rto_fire(self, now, _):
        self.rto_timer = None
        if self.done:
            return
        if self.highest_acked >= self.next_seq:
            return   # nothing outstanding; re-armed on next emission
        if now < self.rto_deadline:
            self.rto_timer = self.engine.schedule(self.rto_deadline,
                                                  self._rto_fire, None)
            return
        self.on_timeout(now)
        self.rto_timer = self.engine.schedule(self.rto_deadline,
                                              self._rto_fire, None)

    def on_timeout(self, now):
        mss = self.params.mss
        self.ssthresh = max(self.cwnd // 2, 2 * mss)
        self.cwnd = mss
        self.ca_credit = 0
        self.in_recovery = False
        self.dupacks = 0
        self.recover = self.next_seq
        self.next_seq = self.highest_acked   # go-back-N: rewind the frontier
        self.rtt_probe = None
        self.timeouts += 1
        self.rto = min(self.rto * 2, RTO_MAX_NS)
        self.rto_deadline = now + self.rto
        self._send_available(now)

    # -- completion -------------------------------------------------------

    def _complete(self, now):
        self.done = True
        self.end_ns = now
        if self.rto_timer is not None:
            self.engine.cancel(self.rto_timer)
            self.rto_timer = None
        if self.pace_timer is not None:
            self.engine.cancel(self.pace_timer)
            self.pace_timer = None


class Receiver:
    """Receiving endpoint: immediate cumulative ACK per data packet.

    ECN echo follows the host algorithm: the DCTCP variant echoes each
    packet's CE bit exactly; the NewReno variant echoes a sticky ECE that
    clears when the sender signals its window reduction (CWR).
    """

    __slots__ = ("flow_id", "route", "dctcp_echo", "cum_ack", "segments",
                 "sticky_ece", "received")

    def __init__(self, flow_id, route, dctcp_echo):
        self.flow_id = flow_id
        self.route = route
        self.dctcp_echo = dctcp_echo
        self.cum_ack = 0
        self.segments = {}
        self.sticky_ece = False
        self.received = 0       # data packets, duplicates included

    def on_data(self, pkt, now):
        self.received += 1
        if pkt.seq_lo <= self.cum_ack:
            if pkt.seq_hi > self.cum_ack:
                cum = pkt.seq_hi
                segments = self.segments
                while cum in segments:
                    cum = segments.pop(cum)
                self.cum_ack = cum
        else:
            prev = self.segments.get(pkt.seq_lo, 0)
            if pkt.seq_hi > prev:
                self.segments[pkt.seq_lo] = pkt.seq_hi

        if self.dctcp_echo:
            ece = pkt.ecn_marked
        else:
            if pkt.cwr:
                self.sticky_ece = False
            if pkt.ecn_marked:
                self.sticky_ece = True
            ece = self.sticky_ece

        ack = Packet(self.flow_id, ACK, ACK_SIZE, self.route, 0, 0,
                     self.cum_ack)
        ack.ece_echo = ece
        self.route[0].enqueue(ack, now)
