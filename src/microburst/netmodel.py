"""Output-queued ports, store-and-forward switching, and queue telemetry.

Every directed link is realized as one output ``Port`` on the sending
node: a FIFO with a byte buffer limit, a line rate, and a pluggable
marking policy consulted at admission time.  Tail drop happens before the
policy sees the packet; marking applies only to admitted data packets
(a switch port has a policy only where the hosts are ECN-capable and some
flow's data can cross it, as ACKs never are ECN-capable).  Host-side
ports (the NIC) have no buffer limit and no policy; the sender's window is
what bounds them.

Monitored ports carry a ``PortTrace``, the one trace type: an exact log of
queue events, from which ``trace.csv``, the analysis samples and the first
drop derive, plus the ground-truth annotations (first-window arrivals and
departures, per-round arrival spans) that phase segmentation uses.  The log
is one flat list of five ints per event, and a port hands it the queue-length
ints it holds, so each event's queue-before is the previous event's
queue-after object and an event adds only its time and new length.
"""

from bisect import bisect_left, bisect_right
from collections import deque
from functools import cached_property

from .packets import DATA
from .units import quantize_down, serialization_ns

# event codes of the PortTrace log
ACK_ENQUEUE, ENQUEUE, ENQUEUE_MARKED, DEQUEUE, DROP = range(5)

TIME_QUANTUM_NS = 800   # telemetry timestamp register tick
QUEUE_QUANTUM_B = 8     # telemetry queue-length register granularity
CSV_CHUNK_ROWS = 1024   # log events per trace.csv chunk

# rate -> {size: wire time}; every port of a run has the run's one rate, so
# the run's ports share one entry, as marking._RI_TERMS does for ri_terms
_SER_NS = {}


def stamp_telemetry(now_ns: int, queue_bytes: int, fidelity: bool):
    """The (timestamp, pre-admission queue length) stamp of a data packet.

    Fidelity mode reproduces the register granularities of a hardware
    pipeline: 800 ns timestamp ticks and 8-byte queue counts, both
    truncating.  Exact mode returns the raw integers.
    """
    if fidelity:
        return (quantize_down(now_ns, TIME_QUANTUM_NS),
                quantize_down(queue_bytes, QUEUE_QUANTUM_B))
    return now_ns, queue_bytes


class _SampleTimes(list):
    """Sorted sample times with numpy's ``searchsorted`` lookup, which the
    traced benchmark uses to count the samples of each ``fit_slope`` window."""

    def searchsorted(self, value, side="left"):
        return (bisect_right if side == "right" else bisect_left)(self, value)


class PortTrace:
    """Exact event log and ground-truth annotations for one monitored port.

    ``log`` is one flat list of exact integers, five per event: time_ns,
    queue_before, queue_after, flow_id, code; ``rows()`` yields them as
    tuples.  The port passes the queue-length int it holds as queue_before
    and the new one as queue_after, so consecutive events share one int
    object (a drop's queue_after is its queue_before).  Telemetry stamps are
    applied only when ``trace.csv`` is written, so the log is the same in
    every mode.  ``times`` (sorted ns) and ``occupancy`` (bytes queued
    after) hold one sample per enqueue and dequeue, none per drop; they and
    ``first_drop_ns`` derive from the log once, on first read, so recording
    only appends.  ``drop_at`` holds the log index of each drop's first int,
    so the samples are the log's column slices between drops, and no
    per-event test picks them.
    """

    def __init__(self, port_id, fidelity=False):
        self.port_id = port_id
        self.fidelity = fidelity
        self.log = []
        self.drop_at = []   # log index of each drop event
        self.first_window_bytes = 0
        self.first_window_first_ns = None    # first and last arrival of a
        self.first_window_last_ns = None     # first-window packet
        self.first_window_last_departure_ns = None
        self.round_spans = {}   # send round -> [first_ns, last_ns] of arrivals

    def rows(self):
        """The log's events as (time_ns, queue_before, queue_after, flow_id,
        code) tuples."""
        it = iter(self.log)
        return zip(it, it, it, it, it)

    def _samples(self, column, samples):
        """``samples`` extended by ``column`` of every event but the drops:
        one slice of the log per run of events between drops."""
        log, start = self.log, column
        for at in self.drop_at:
            samples += log[start:at:5]
            start = at + 5 + column
        samples += log[start::5]
        return samples

    @cached_property
    def times(self):
        return self._samples(0, _SampleTimes())

    @cached_property
    def occupancy(self):
        return self._samples(2, [])

    @cached_property
    def first_drop_ns(self):
        return self.log[self.drop_at[0]] if self.drop_at else None

    def occupancy_at(self, t_ns):
        idx = bisect_right(self.times, t_ns) - 1
        return 0 if idx < 0 else self.occupancy[idx]

    def record_enqueue(self, now, q_before, q_after, pkt, marked):
        if pkt.kind != DATA:
            self.log.extend((now, q_before, q_after, pkt.flow_id, ACK_ENQUEUE))
            return
        self.log.extend((now, q_before, q_after, pkt.flow_id,
                         ENQUEUE_MARKED if marked else ENQUEUE))
        rnd = pkt.send_round
        if rnd >= 0:
            if pkt.first_window:
                self.first_window_bytes += pkt.size
                if self.first_window_first_ns is None:
                    self.first_window_first_ns = now
                self.first_window_last_ns = now
            span = self.round_spans.get(rnd)
            if span is None:
                self.round_spans[rnd] = [now, now]
            else:
                span[1] = now

    def record_dequeue(self, now, q_before, q_after, pkt):
        self.log.extend((now, q_before, q_after, pkt.flow_id, DEQUEUE))
        if pkt.kind == DATA and pkt.first_window:
            self.first_window_last_departure_ns = now

    def record_drop(self, now, q_now, pkt):
        self.drop_at.append(len(self.log))
        self.log.extend((now, q_now, q_now, pkt.flow_id, DROP))

    def csv_chunks(self):
        """The port's ``trace.csv`` text, one string per ``CSV_CHUNK_ROWS``
        events of the log, so a writer holds one chunk and never the whole
        trace; an empty log yields nothing.  Data enqueues carry the stamp
        in fidelity mode, and a marked one is followed by an exact ``mark``
        line."""
        log, fidelity = self.log, self.fidelity
        infix = f",{self.port_id},"
        step = 5 * CSV_CHUNK_ROWS
        for start in range(0, len(log), step):
            it = iter(log[start:start + step])
            lines = []
            append = lines.append
            for t, q_before, q_after, flow, code in zip(it, it, it, it, it):
                if code == DEQUEUE:
                    append(f"{t}{infix}{q_after},{flow},dequeue\n")
                elif code == DROP:
                    append(f"{t}{infix}{q_before},{flow},drop\n")
                else:
                    if code == ACK_ENQUEUE or not fidelity:
                        append(f"{t}{infix}{q_before},{flow},enqueue\n")
                    else:
                        t_stamp, q_stamp = stamp_telemetry(t, q_before, True)
                        append(f"{t_stamp}{infix}{q_stamp},{flow},enqueue\n")
                    if code == ENQUEUE_MARKED:
                        append(f"{t}{infix}{q_before},{flow},mark\n")
            yield "".join(lines)


def _forward(now, arg):
    port, pkt = arg
    port.enqueue(pkt, now)


class Port:
    """One output port: FIFO queue draining at line rate.  The head of the
    queue is the packet on the wire, so the port is idle iff it is empty."""

    __slots__ = ("port_id", "rate_bps", "buffer_limit", "policy", "engine",
                 "queue", "queue_bytes", "ser_ns", "forward_ns", "deliver_fn",
                 "trace", "bytes_in", "bytes_out", "bytes_dropped",
                 "drops", "data_drops", "marks", "max_queue_bytes",
                 "_tx_done_fn")

    def __init__(self, port_id, rate_bps, buffer_limit, policy, engine,
                 forward_ns=0, deliver_fn=None):
        self.port_id = port_id
        self.rate_bps = rate_bps
        self.buffer_limit = buffer_limit
        self.policy = policy
        self.engine = engine
        self.queue = deque()
        self.queue_bytes = 0
        ser_ns = _SER_NS.get(rate_bps)
        if ser_ns is None:
            ser_ns = _SER_NS[rate_bps] = {}
        self.ser_ns = ser_ns    # size -> wire time at this port's rate
        self.forward_ns = forward_ns
        self.deliver_fn = deliver_fn
        self.trace = None
        self.bytes_in = 0
        self.bytes_out = 0
        self.bytes_dropped = 0
        self.drops = 0
        self.data_drops = 0     # of drops, the data packets
        self.marks = 0
        self.max_queue_bytes = 0
        self._tx_done_fn = self._tx_done   # one bound method, not one per hop

    def enqueue(self, pkt, now):
        size = pkt.size
        qb = self.queue_bytes
        lim = self.buffer_limit
        if lim is not None and qb + size > lim:
            self.drops += 1
            if pkt.kind == DATA:
                self.data_drops += 1
            self.bytes_dropped += size
            if self.trace is not None:
                self.trace.record_drop(now, qb, pkt)
            return
        marked = False
        policy = self.policy
        # decide sees every arrival, ACKs too; only data is marked
        if (policy is not None and policy.decide(qb, size, now)
                and pkt.kind == DATA):
            pkt.ecn_marked = True
            marked = True
            self.marks += 1
        q_after = qb + size
        self.queue_bytes = q_after
        self.bytes_in += size
        if q_after > self.max_queue_bytes:
            self.max_queue_bytes = q_after
        if self.trace is not None:
            self.trace.record_enqueue(now, qb, q_after, pkt, marked)
        queue = self.queue
        if queue:
            queue.append(pkt)
            return
        queue.append(pkt)
        try:
            ns = self.ser_ns[size]
        except KeyError:
            ns = self.ser_ns[size] = serialization_ns(size, self.rate_bps)
        self.engine.schedule(now + ns, self._tx_done_fn, None)

    def _tx_done(self, now, _):
        queue = self.queue
        pkt = queue.popleft()
        size = pkt.size
        qb = self.queue_bytes
        q_after = qb - size
        self.queue_bytes = q_after
        self.bytes_out += size
        if self.trace is not None:
            self.trace.record_dequeue(now, qb, q_after, pkt)
        if queue:
            size = queue[0].size
            try:
                ns = self.ser_ns[size]
            except KeyError:
                ns = self.ser_ns[size] = serialization_ns(size, self.rate_bps)
            self.engine.schedule(now + ns, self._tx_done_fn, None)
        hop = pkt.hop + 1
        pkt.hop = hop
        route = pkt.route
        delay = self.forward_ns
        if hop < len(route):
            nxt = route[hop]
            if delay:
                self.engine.schedule(now + delay, _forward, (nxt, pkt))
            else:
                nxt.enqueue(pkt, now)
        else:
            if delay:
                self.engine.schedule(now + delay, self.deliver_fn, pkt)
            else:
                self.deliver_fn(now, pkt)

    def conservation_ok(self) -> bool:
        return self.bytes_in == self.bytes_out + self.queue_bytes
