"""Self-clocked window transports: NewReno- and DCTCP-style senders plus a
receiver that acknowledges every data packet immediately (delayed ACK off).

The sender releases new segments whenever in-flight bytes are below cwnd,
so in slow start each ACK for one segment triggers two new segments: that
ACK clock is what shapes the queue dynamics this simulator exists to
reproduce.  Timeline bookkeeping the analysis stage relies on (send round
tags, first-window flags, first mark-induced window cut) is recorded here.

Both endpoints hold their flow's ``FlowSpec``.  A sender reads its settings
from the run's ``RunConfig`` once and copies into its own slots what the
per-packet path reads.  The endpoints write every outcome into the flow
where it changes: the packet counts, the bytes delivered in order, end
time, retransmissions, timeouts and first mark-induced cut.  Nothing of it
is copied back when an endpoint is retired or the run ends.
"""

from .packets import Packet, DATA, ACK, ACK_SIZE

NEWRENO = "newreno"
DCTCP = "dctcp"

RTO_MAX_NS = 10_000_000_000


class Sender:
    """One flow's sending endpoint and congestion-control state machine.
    It counts every data packet it emits, retransmissions included, in
    ``flow.sent``.

    A delivered ACK is kept as ``spare`` once its fields are read: nothing
    else holds it, so the next segment the sender emits is that object,
    rewritten in place, and a new packet is allocated only when there is
    none.  An ACK reaching a finished sender is not kept."""

    __slots__ = ("flow", "total", "annotate", "engine", "route",
                 "algo", "pacing", "mss", "iw_bytes", "max_cwnd",
                 "rto_min_ns", "dctcp_gain",
                 "cwnd", "ssthresh", "next_seq", "highest_acked", "dupacks",
                 "in_recovery", "recover", "cut_seq", "cwr_pending", "ca_credit",
                 "alpha", "win_end", "win_acked", "win_marked",
                 "srtt", "rttvar", "rto", "rto_deadline", "rto_timer",
                 "rtt_probe", "pace_next", "pace_timer",
                 "round", "round_end", "done", "spare")

    def __init__(self, flow, route, engine, cfg):
        self.flow = flow
        self.total = flow.size_bytes
        self.annotate = flow.burst
        self.engine = engine
        self.route = route
        self.algo = cfg.host_algorithm()
        self.pacing = cfg.pacing
        self.mss = mss = cfg.mss_bytes
        self.iw_bytes = cfg.initial_window_packets * mss
        self.max_cwnd = cfg.max_cwnd_packets * mss
        self.rto_min_ns = cfg.rto_min_ns
        self.dctcp_gain = cfg.dctcp_gain

        self.cwnd = min(self.iw_bytes, self.max_cwnd)
        self.ssthresh = self.max_cwnd
        self.next_seq = 0
        self.highest_acked = 0
        self.dupacks = 0
        self.in_recovery = False
        self.recover = 0
        self.cut_seq = 0
        self.cwr_pending = False
        self.ca_credit = 0

        self.alpha = cfg.dctcp_alpha0
        self.win_end = 0
        self.win_acked = 0
        self.win_marked = 0

        self.srtt = cfg.initial_rtt_ns
        self.rttvar = cfg.initial_rtt_ns // 2
        self.rto = cfg.rto_min_ns
        self.rto_deadline = 0
        self.rto_timer = None
        self.rtt_probe = None
        self.pace_next = 0
        self.pace_timer = None

        self.round = 0
        self.round_end = 0

        self.done = False
        self.spare = None       # the last ACK, until a segment reuses it

    # -- state view ---------------------------------------------------------

    def inflight(self):
        return self.next_seq - self.highest_acked

    # -- application start --------------------------------------------------

    def start(self, now):
        self._send_available(now)
        self.round_end = self.next_seq
        self.win_end = self.next_seq

    # -- segment emission ---------------------------------------------------

    def _emit(self, seq_lo, size, now, retransmit):
        pkt = self.spare
        if pkt is None:
            pkt = Packet(self.flow.flow_id, DATA, size, self.route, seq_lo,
                         seq_lo + size)
        else:
            # the last ACK becomes the segment: this and the tags below set
            # every slot as Packet(flow_id, DATA, size, route, seq_lo,
            # seq_hi) does; the ACK already carries the flow id
            self.spare = None
            pkt.kind = DATA
            pkt.size = size
            pkt.seq_lo = seq_lo
            pkt.seq_hi = seq_lo + size
            pkt.ack_no = 0
            pkt.ecn_marked = pkt.ece_echo = False
            pkt.route = self.route
            pkt.hop = 0
        pkt.cwr = self.cwr_pending
        self.cwr_pending = False
        if self.annotate:
            pkt.first_window = not retransmit and seq_lo < self.iw_bytes
            pkt.send_round = self.round
        else:
            pkt.first_window = False
            pkt.send_round = -1
        self.flow.sent += 1
        if not retransmit and self.rtt_probe is None:
            self.rtt_probe = (seq_lo + size, now)
        if self.rto_timer is None:
            self._arm_rto(now + self.rto)
        self.route[0].enqueue(pkt, now)

    def _send_available(self, now):
        mss = self.mss
        total = self.total
        seq = self.next_seq
        # emitting only schedules events and calls back into no endpoint,
        # so the window cannot move during the loop
        limit = min(self.highest_acked + self.cwnd, total)
        while seq < limit:
            if self.pacing:
                interval = self.srtt * mss // max(self.cwnd, mss)
                if now < self.pace_next:
                    if self.pace_timer is None:
                        self.pace_timer = self.engine.schedule(
                            self.pace_next, self._pace_fire, None)
                    return
                self.pace_next = now + interval
            size = total - seq if total - seq < mss else mss
            rexmit = seq < self.recover   # resend after a timeout rewind
            if rexmit:
                self.flow.retransmits += 1
            self._emit(seq, size, now, retransmit=rexmit)
            seq += size
            self.next_seq = seq

    def _pace_fire(self, now, _):
        self.pace_timer = None
        self._send_available(now)

    # -- ACK processing -----------------------------------------------------

    def on_ack(self, pkt, now):
        if self.done:
            return
        ack = pkt.ack_no
        ece = pkt.ece_echo
        self.spare = pkt    # nothing else holds a delivered ACK
        mss = self.mss
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
                if ece:
                    self.win_marked += delta

            if self.in_recovery:
                if ack >= self.recover:
                    self.cwnd = max(self.ssthresh, mss)
                    self.in_recovery = False
                else:
                    # partial ACK: next hole is lost too
                    self._retransmit_head(now)
                    self.cwnd = max(self.cwnd - delta + mss, mss)
            elif self.algo == NEWRENO and ece:
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
                self.cwnd = min(self.cwnd + mss, self.max_cwnd)
                self._send_available(now)
            elif self.dupacks == 3 and self.highest_acked >= self.recover:
                # the recover guard suppresses spurious entry while data
                # rewound by a timeout is still being re-acknowledged
                self._fast_retransmit(now)

    def _grow(self, acked_delta):
        mss = self.mss
        if self.cwnd < self.ssthresh:
            self.cwnd += mss
        else:
            # byte-counted: one MSS per cwnd's worth of acknowledged bytes
            self.ca_credit += acked_delta
            if self.ca_credit >= self.cwnd:
                self.ca_credit -= self.cwnd
                self.cwnd += mss
        if self.cwnd > self.max_cwnd:
            self.cwnd = self.max_cwnd

    def _cut(self, cwnd, now):
        """Cut cwnd and ssthresh to ``cwnd`` (at least one MSS) on a mark."""
        self.cwnd = self.ssthresh = max(cwnd, self.mss)
        self.cwr_pending = True
        if self.flow.first_ece_cut_ns is None:
            self.flow.first_ece_cut_ns = now

    def _ece_cut(self, now):
        self._cut(self.cwnd // 2, now)
        self.ca_credit = 0
        self.cut_seq = self.next_seq   # one reduction per window

    def _dctcp_window_boundary(self, now):
        if self.win_acked > 0:
            frac = self.win_marked / self.win_acked
            self.alpha += self.dctcp_gain * (frac - self.alpha)
            if self.win_marked > 0:
                self._cut(self.cwnd - int(self.cwnd * self.alpha / 2), now)
        self.win_acked = 0
        self.win_marked = 0
        self.win_end = self.next_seq

    def _retransmit_head(self, now):
        mss = self.mss
        size = min(mss, self.next_seq - self.highest_acked)
        if size <= 0:
            return
        self.flow.retransmits += 1
        self._emit(self.highest_acked, size, now, retransmit=True)

    def _fast_retransmit(self, now):
        mss = self.mss
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
        self.rto = max(self.srtt + 4 * self.rttvar, self.rto_min_ns)

    def _arm_rto(self, deadline):
        """The one place the retransmission timer is scheduled; the caller
        checks that none is pending, so a sender holds at most one."""
        self.rto_deadline = deadline
        self.rto_timer = self.engine.schedule(deadline, self._rto_fire, None)

    def _rto_fire(self, now, _):
        self.rto_timer = None
        if self.highest_acked >= self.next_seq:
            return   # nothing outstanding; re-armed on next emission
        if now >= self.rto_deadline:
            self.on_timeout(now)   # its resend re-arms, unless paced
        if self.rto_timer is None:
            self._arm_rto(self.rto_deadline)

    def on_timeout(self, now):
        mss = self.mss
        self.ssthresh = max(self.cwnd // 2, 2 * mss)
        self.cwnd = mss
        self.ca_credit = 0
        self.in_recovery = False
        self.dupacks = 0
        self.recover = self.next_seq
        self.next_seq = self.highest_acked   # go-back-N: rewind the frontier
        self.rtt_probe = None
        self.flow.timeouts += 1
        self.rto = min(self.rto * 2, RTO_MAX_NS)
        self.rto_deadline = now + self.rto
        self._send_available(now)

    # -- completion -------------------------------------------------------

    def _complete(self, now):
        self.done = True
        self.flow.end_ns = now
        if self.rto_timer is not None:
            self.engine.cancel(self.rto_timer)
            self.rto_timer = None
        if self.pace_timer is not None:
            self.engine.cancel(self.pace_timer)
            self.pace_timer = None


# the out-of-order map of every receiver that has seen none: never written
_NO_SEGMENTS = {}


class Receiver:
    """Receiving endpoint: immediate cumulative ACK per data packet.  It
    counts every data packet, duplicates included, in ``flow.received``, and
    keeps its cumulative ACK, the bytes delivered in order, in
    ``flow.delivered_bytes``.

    The ACK is the delivered data packet itself, rewritten in place: nothing
    holds a packet once it is delivered.  The sender in turn rewrites the
    ACK into its next segment, so one object serves a data/ACK round trip
    and the next.

    ECN echo follows the host algorithm: the DCTCP variant echoes each
    packet's CE bit exactly; the NewReno variant echoes a sticky ECE that
    clears when the sender signals its window reduction (CWR).
    """

    __slots__ = ("flow", "route", "dctcp_echo", "segments", "sticky_ece")

    def __init__(self, flow, route, dctcp_echo):
        self.flow = flow
        self.route = route
        self.dctcp_echo = dctcp_echo
        self.segments = _NO_SEGMENTS   # seq_lo -> seq_hi above delivered_bytes
        self.sticky_ece = False

    def on_data(self, pkt, now):
        flow = self.flow
        flow.received += 1
        cum = flow.delivered_bytes    # the cumulative ACK
        if pkt.seq_lo <= cum:
            if pkt.seq_hi > cum:
                cum = pkt.seq_hi
                segments = self.segments
                while cum in segments:
                    cum = segments.pop(cum)
                flow.delivered_bytes = cum
        else:
            segments = self.segments
            if segments is _NO_SEGMENTS:
                segments = self.segments = {}
            if pkt.seq_hi > segments.get(pkt.seq_lo, 0):
                segments[pkt.seq_lo] = pkt.seq_hi

        if self.dctcp_echo:
            ece = pkt.ecn_marked
        else:
            if pkt.cwr:
                self.sticky_ece = False
            if pkt.ecn_marked:
                self.sticky_ece = True
            ece = self.sticky_ece

        # the data packet becomes its ACK: every slot as Packet(flow_id,
        # ACK, ACK_SIZE, route, 0, 0, cum) sets it, then the echo
        pkt.kind = ACK
        pkt.size = ACK_SIZE
        pkt.seq_lo = pkt.seq_hi = 0
        pkt.ack_no = cum
        pkt.ecn_marked = pkt.cwr = pkt.first_window = False
        pkt.ece_echo = ece
        pkt.send_round = 0
        route = pkt.route = self.route
        pkt.hop = 0
        route[0].enqueue(pkt, now)
