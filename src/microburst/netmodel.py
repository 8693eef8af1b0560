"""Output-queued ports, store-and-forward switching, and queue telemetry.

Every directed link is realized as one output ``Port`` on the sending
node: a FIFO with a byte buffer limit, a line rate, and a pluggable
marking policy consulted at admission time.  Tail drop happens before the
policy sees the packet; marking applies only to admitted data packets
(a port has a policy only where the hosts are ECN-capable, and ACKs never
are).  Host-side ports (the NIC) have no buffer limit and no policy;
the sender's window is what bounds them.

Monitored ports carry a ``PortTrace``, the one trace type: an exact log of
queue events, from which ``trace.csv``, the analysis samples and the first
drop derive, plus the ground-truth annotations (first-window arrivals and
departures, per-round arrival spans) that phase segmentation uses.
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

    ``log`` holds one tuple of exact integers per event: (time_ns,
    queue_before, queue_after, flow_id, code).  Telemetry stamps are applied
    only when ``trace.csv`` is written, so the log is the same in every mode.
    ``times`` (sorted ns) and ``occupancy`` (bytes queued after) hold one
    sample per enqueue and dequeue, none per drop; they and ``first_drop_ns``
    derive from the log once, on first read, so recording only appends.
    """

    def __init__(self, port_id, fidelity=False):
        self.port_id = port_id
        self.fidelity = fidelity
        self.log = []
        self.first_window_bytes = 0
        self.first_window_first_ns = None    # first and last arrival of a
        self.first_window_last_ns = None     # first-window packet
        self.first_window_last_departure_ns = None
        self.round_spans = {}   # send round -> [first_ns, last_ns] of arrivals

    @cached_property
    def times(self):
        return _SampleTimes([e[0] for e in self.log if e[4] != DROP])

    @cached_property
    def occupancy(self):
        return [e[2] for e in self.log if e[4] != DROP]

    @cached_property
    def first_drop_ns(self):
        return next((e[0] for e in self.log if e[4] == DROP), None)

    def occupancy_at(self, t_ns):
        idx = bisect_right(self.times, t_ns) - 1
        return 0 if idx < 0 else self.occupancy[idx]

    def record_enqueue(self, now, q_before, q_after, pkt, marked):
        if pkt.kind != DATA:
            self.log.append((now, q_before, q_after, pkt.flow_id, ACK_ENQUEUE))
            return
        self.log.append((now, q_before, q_after, pkt.flow_id,
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

    def record_dequeue(self, now, q_after, pkt):
        self.log.append((now, q_after + pkt.size, q_after, pkt.flow_id,
                         DEQUEUE))
        if pkt.kind == DATA and pkt.first_window:
            self.first_window_last_departure_ns = now

    def record_drop(self, now, q_now, pkt):
        self.log.append((now, q_now, q_now, pkt.flow_id, DROP))

    def csv_lines(self):
        """The port's ``trace.csv`` lines; data enqueues carry the stamp,
        and a marked one is followed by an exact ``mark`` line."""
        port_id, fidelity = self.port_id, self.fidelity
        for t, q_before, q_after, flow, code in self.log:
            if code == DEQUEUE:
                yield f"{t},{port_id},{q_after},{flow},dequeue\n"
            elif code == ACK_ENQUEUE:
                yield f"{t},{port_id},{q_before},{flow},enqueue\n"
            elif code == DROP:
                yield f"{t},{port_id},{q_before},{flow},drop\n"
            else:
                t_stamp, q_stamp = stamp_telemetry(t, q_before, fidelity)
                yield f"{t_stamp},{port_id},{q_stamp},{flow},enqueue\n"
                if code == ENQUEUE_MARKED:
                    yield f"{t},{port_id},{q_before},{flow},mark\n"


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
        self.ser_ns = {}    # size -> wire time at this port's rate
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
        qb += size
        self.queue_bytes = qb
        self.bytes_in += size
        if qb > self.max_queue_bytes:
            self.max_queue_bytes = qb
        if self.trace is not None:
            self.trace.record_enqueue(now, qb - size, qb, pkt, marked)
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
        qb = self.queue_bytes - size
        self.queue_bytes = qb
        self.bytes_out += size
        if self.trace is not None:
            self.trace.record_dequeue(now, qb, pkt)
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
