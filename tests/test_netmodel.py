from collections import deque
from heapq import heappop, heappush
from itertools import count

import pytest
from hypothesis import example, given, settings, strategies as st

from microburst.config import PROTOCOLS, RunConfig
from microburst.engine import Engine
from microburst.marking import SlopeEcn, ThresholdEcn
from microburst.netmodel import (ACK_ENQUEUE, DEQUEUE, DROP, ENQUEUE,
                                 ENQUEUE_MARKED, Port, PortTrace,
                                 stamp_telemetry)
from microburst.packets import ACK, ACK_SIZE, DATA, Packet
from microburst.sim import Network, _make_policy
from microburst.topology import (HOSTS, LINKS, PORT_IDS, PORTS_INTO, ROOT,
                                 TORS, path, tor_of)
from microburst.units import GBPS, quantize_down, serialization_ns


def make_port(engine, sink, buffer_limit=None, policy=None, rate=GBPS):
    return Port("p", rate, buffer_limit, policy, engine,
                deliver_fn=lambda now, pkt: sink.append((now, pkt)))


def data_pkt(size=1500, flow=0, seq=0):
    return Packet(flow, DATA, size, (), seq_lo=seq, seq_hi=seq + size)


def test_tail_drop_on_overflow():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=512_000, policy=None)
    port.queue_bytes = 511_000   # pre-filled bookkeeping
    port.enqueue(data_pkt(1500), 0)
    assert port.queue_bytes == 511_000
    assert port.drops == 1


def test_taildrop_accepts_without_marking():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=512_000, policy=None)
    pkt = data_pkt()
    port.enqueue(pkt, 0)
    assert (port.queue_bytes, port.drops, port.marks) == (1500, 0, 0)
    assert pkt.ecn_marked is False


def test_threshold_policy_marks_above_threshold():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=512_000,
                     policy=ThresholdEcn(32_000))
    port.queue_bytes = 40_000
    pkt = data_pkt()
    port.enqueue(pkt, 0)
    assert (port.drops, port.marks) == (0, 1)
    assert pkt.ecn_marked is True


def test_ack_is_never_marked():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=512_000,
                     policy=ThresholdEcn(32_000))
    port.queue_bytes = 40_000
    pkt = Packet(0, ACK, 64, ())
    port.enqueue(pkt, 0)
    assert (port.queue_bytes, port.drops, port.marks) == (40_064, 0, 0)
    assert pkt.ecn_marked is False


def test_serialization_time_mss():
    engine = Engine()
    sink = []
    port = make_port(engine, sink)
    port.enqueue(data_pkt(1500), 0)
    engine.run_until(100_000)
    assert sink[0][0] == 12_000


@pytest.mark.parametrize("rate", [GBPS, 10 * GBPS, 25 * GBPS, 40 * GBPS])
@pytest.mark.parametrize("size", [1, 64, 999, 1500, 9000])
def test_first_departure_after_one_wire_time(rate, size):
    engine = Engine()
    sink = []
    port = make_port(engine, sink, rate=rate)
    engine.run_until(777)
    port.enqueue(data_pkt(size), 777)
    port.enqueue(data_pkt(size, seq=size), 777)
    engine.run_until(10**9)
    wire = serialization_ns(size, rate)
    assert [t for t, _ in sink] == [777 + wire, 777 + 2 * wire]


def test_back_to_back_interdeparture_at_line_rate():
    engine = Engine()
    sink = []
    port = make_port(engine, sink)
    for i in range(4):
        port.enqueue(data_pkt(seq=i * 1500), 0)
    engine.run_until(100_000)
    assert [t for t, _ in sink] == [12_000, 24_000, 36_000, 48_000]


def test_port_idle_after_drain():
    engine = Engine()
    sink = []
    port = make_port(engine, sink)
    port.enqueue(data_pkt(), 0)
    assert len(port.queue) == 1     # the packet on the wire
    engine.run_until(100_000)
    assert not port.queue
    assert port.queue_bytes == 0


def test_work_conservation_and_byte_conservation():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=3_000, policy=None)
    for i in range(5):
        port.enqueue(data_pkt(seq=i * 1500), 0)
    assert len(port.queue) == 2
    assert port.bytes_in == port.bytes_out + port.queue_bytes  # admitted
    engine.run_until(1_000_000)
    assert port.bytes_in == port.bytes_out + port.queue_bytes
    assert port.bytes_dropped == 3 * 1500
    assert port.conservation_ok()


def test_stamp_exact_and_fidelity():
    assert stamp_telemetry(1234, 1001, fidelity=True) == (800, 1000)
    assert stamp_telemetry(1234, 1001, fidelity=False) == (1234, 1001)


def test_trace_records_pre_admission_queue():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=512_000, policy=None)
    port.trace = PortTrace("p")
    port.enqueue(data_pkt(seq=0), 0)
    port.enqueue(data_pkt(seq=1500), 0)
    assert list(port.trace.rows()) == [(0, 0, 1500, 0, ENQUEUE),
                                       (0, 1500, 3000, 0, ENQUEUE)]
    assert "".join(port.trace.csv_chunks()) == ("0,p,0,0,enqueue\n"
                                                "0,p,1500,0,enqueue\n")


def test_trace_stamps_data_but_not_acks():
    engine = Engine()
    sink = []
    port = make_port(engine, sink)
    port.trace = PortTrace("p", fidelity=True)
    port.enqueue(data_pkt(flow=0), 1234)
    port.enqueue(Packet(1, ACK, 64, ()), 1234)
    port.enqueue(data_pkt(flow=2, seq=1500), 1234)
    assert "".join(port.trace.csv_chunks()) == ("800,p,0,0,enqueue\n"
                                                "1234,p,1500,1,enqueue\n"
                                                "800,p,1560,2,enqueue\n")


def test_acks_share_queue_and_are_droppable():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=2_000, policy=None)
    port.enqueue(data_pkt(), 0)
    port.enqueue(Packet(0, ACK, 64, ()), 0)
    assert (port.queue_bytes, port.drops) == (1564, 0)
    port.enqueue(data_pkt(seq=1500), 0)     # 1500+64+1500 > 2000
    assert (port.queue_bytes, port.drops) == (1564, 1)


def test_preset_topology_shape():
    assert len(HOSTS) == 12
    assert len(set(TORS) | {ROOT}) == 5
    assert len(set(PORT_IDS)) == len(PORT_IDS) == 32
    assert tor_of("h1") == "t1" and tor_of("h10") == "t4"
    assert path("h1", "h10") == ["h1", "t1", "root", "t4", "h10"]
    assert path("h11", "h10") == ["h11", "t4", "h10"]
    assert PORTS_INTO["h10"] == {"t1->root", "t2->root", "t3->root",
                                 "root->t4", "t4->h10"}
    assert PORTS_INTO["h2"] == {"t2->root", "t3->root", "t4->root",
                                "root->t1", "t1->h2"}


# -- the single-log recorder against the three-store reference ----------------

class ThreeStoreTrace:
    """Reference: the recorder that kept ``trace.csv`` rows, occupancy
    samples and per-flow annotations in separate stores, stamping each data
    packet as it was admitted."""

    def __init__(self, port_id, fidelity=False):
        self.port_id = port_id
        self.fidelity = fidelity
        self.rows = []          # (time_ns, queue_bytes, flow_id, event)
        self.times = []
        self.occupancy = []
        self.first_window_last_arrival = {}    # flow_id -> ns
        self.first_window_last_departure = {}  # flow_id -> ns
        self.first_window_bytes = 0
        self.first_window_first_ns = None
        self.first_window_last_ns = None
        self.round_spans = {}   # (flow_id, round) -> [first_ns, last_ns]
        self.first_drop_ns = None

    def record_enqueue(self, now, q_before, q_after, pkt, marked):
        self.times.append(now)
        self.occupancy.append(q_after)
        if pkt.kind == DATA and self.fidelity:
            t_row, q_row = quantize_down(now, 800), quantize_down(q_before, 8)
        else:
            t_row, q_row = now, q_before
        self.rows.append((t_row, q_row, pkt.flow_id, "enqueue"))
        if marked:
            self.rows.append((now, q_before, pkt.flow_id, "mark"))
        if pkt.kind == DATA and pkt.send_round >= 0:
            if pkt.first_window:
                self.first_window_last_arrival[pkt.flow_id] = now
                self.first_window_bytes += pkt.size
                if self.first_window_first_ns is None:
                    self.first_window_first_ns = now
                self.first_window_last_ns = now
            span = self.round_spans.get((pkt.flow_id, pkt.send_round))
            if span is None:
                self.round_spans[(pkt.flow_id, pkt.send_round)] = [now, now]
            else:
                span[1] = now

    def record_dequeue(self, now, q_before, q_after, pkt):
        self.times.append(now)
        self.occupancy.append(q_after)
        self.rows.append((now, q_after, pkt.flow_id, "dequeue"))
        if pkt.kind == DATA and pkt.first_window:
            self.first_window_last_departure[pkt.flow_id] = now

    def record_drop(self, now, q_now, pkt):
        self.rows.append((now, q_now, pkt.flow_id, "drop"))
        if self.first_drop_ns is None:
            self.first_drop_ns = now

    def merged_round_spans(self):
        spans = {}
        for (_, rnd), (lo_ns, hi_ns) in self.round_spans.items():
            cur = spans.setdefault(rnd, [lo_ns, hi_ns])
            cur[0], cur[1] = min(cur[0], lo_ns), max(cur[1], hi_ns)
        return spans


class TeeTrace:
    """Forwards every ``record_*`` call of a port to several recorders."""

    def __init__(self, *traces):
        self.traces = traces

    def record_enqueue(self, *args):
        for trace in self.traces:
            trace.record_enqueue(*args)

    def record_dequeue(self, *args):
        for trace in self.traces:
            trace.record_dequeue(*args)

    def record_drop(self, *args):
        for trace in self.traces:
            trace.record_drop(*args)


# (ns after the previous arrival, ACK instead of data, flow id, data size,
# first window, send round or -1 for unannotated): zero gaps and mostly
# data make bursts that overflow the 3 KB buffer
_ARRIVAL = st.tuples(
    st.sampled_from((0, 0, 0, 500, 4_000, 12_000, 30_000)),
    st.sampled_from((False, False, True)),
    st.integers(0, 5), st.integers(64, 1500), st.booleans(),
    st.integers(-1, 3))


def _arrive(now, arg):
    port, pkt = arg
    port.enqueue(pkt, now)


@settings(max_examples=150)
@given(st.lists(_ARRIVAL, min_size=10, max_size=60), st.booleans())
def test_single_log_matches_three_store_reference(arrivals, fidelity):
    engine = Engine()
    port = Port("p", GBPS, 3_000, ThresholdEcn(1_000), engine,
                deliver_fn=lambda now, pkt: None)
    new, ref = PortTrace("p", fidelity), ThreeStoreTrace("p", fidelity)
    port.trace = TeeTrace(new, ref)
    t = 0
    for gap, is_ack, flow, size, first_window, rnd in arrivals:
        t += gap
        if is_ack:
            pkt = Packet(flow, ACK, 64, ())
        else:
            pkt = Packet(flow, DATA, size, ())
            pkt.first_window = first_window and rnd >= 0
            pkt.send_round = rnd
        engine.schedule(t, _arrive, (port, pkt))
    engine.run_until(1 << 40)

    assert "".join(new.csv_chunks()) == "".join(
        f"{t},p,{q},{flow},{event}\n" for t, q, flow, event in ref.rows)
    assert new.times == ref.times
    assert new.occupancy == ref.occupancy
    # the annotations segment_phases and first_window_rate read
    assert new.first_window_bytes == ref.first_window_bytes
    assert new.first_window_first_ns == ref.first_window_first_ns
    assert new.first_window_last_ns == max(
        ref.first_window_last_arrival.values(), default=None)
    assert new.first_window_last_departure_ns == max(
        ref.first_window_last_departure.values(), default=None)
    assert new.first_drop_ns == ref.first_drop_ns   # derived from the log
    assert new.round_spans == ref.merged_round_spans()


def test_reference_run_exercises_drops_and_marks():
    engine = Engine()
    port = Port("p", GBPS, 6_000, ThresholdEcn(3_000), engine,
                deliver_fn=lambda now, pkt: None)
    new, ref = PortTrace("p"), ThreeStoreTrace("p")
    port.trace = TeeTrace(new, ref)
    for i in range(6):
        port.enqueue(data_pkt(seq=i * 1500), 0)
    events = [row[3] for row in ref.rows]
    assert events.count("mark") == 1 and events.count("drop") == 2
    assert "".join(new.csv_chunks()) == "".join(
        f"{t},p,{q},{flow},{event}\n" for t, q, flow, event in ref.rows)


# (call, ns after the previous call, flow id, size, ACK instead of data):
# the recording calls a port makes, drawn freely, so drops land first,
# last, back to back or nowhere
_TRACE_CALL = st.tuples(
    st.sampled_from(("enqueue", "enqueue", "dequeue", "drop")),
    st.sampled_from((0, 0, 1, 700)), st.integers(0, 3),
    st.integers(64, 1500), st.booleans())


def _drive(trace, calls):
    t = q = 0
    for call, gap, flow, size, is_ack in calls:
        t += gap
        pkt = Packet(flow, ACK if is_ack else DATA, size, ())
        pkt.send_round = -1
        if call == "enqueue":
            trace.record_enqueue(t, q, q + size, pkt, False)
            q += size
        elif call == "dequeue":
            size = min(size, q)
            trace.record_dequeue(t, q, q - size, pkt)
            q -= size
        else:
            trace.record_drop(t, q, pkt)


_DROP = ("drop", 0, 0, 1500, False)
_ENQ = ("enqueue", 700, 1, 1500, False)
_DEQ = ("dequeue", 0, 1, 1500, False)


@settings(max_examples=200)
@given(st.lists(_TRACE_CALL, max_size=40))
@example([])
@example([_DROP, _ENQ, _DEQ])                  # a drop first
@example([_ENQ, _ENQ, _DEQ, _DROP])            # a drop last
@example([_ENQ, _DROP, _DROP, _DROP, _DEQ])    # drops back to back
@example([_DROP, _DROP])                       # drops only
@example([_ENQ, _DEQ, _ENQ])                   # no drop
def test_trace_samples_match_a_per_row_reference(calls):
    trace = PortTrace("p")
    _drive(trace, calls)
    rows = list(trace.rows())
    kept = [(t, q_after) for t, _, q_after, _, code in rows if code != DROP]
    drops = [t for t, _, _, _, code in rows if code == DROP]
    assert trace.times == [t for t, _ in kept]
    assert trace.occupancy == [q for _, q in kept]
    assert trace.first_drop_ns == (drops[0] if drops else None)
    # the traced benchmark counts each fit window's samples with it
    for t in {0, *trace.times, 1 << 40}:
        assert trace.times.searchsorted(t) == sum(s < t for s, _ in kept)
        assert trace.times.searchsorted(t, side="right") == sum(
            s <= t for s, _ in kept)


# -- the network model against a reference written from its spec -------------

def _reference_ports(cfg, dsts):
    """``(port_id, buffer limit, forward delay, policy class, policy slots)``
    of every port, from the preset's spec: one port per direction of each
    of ``LINKS``, outward first.  A host NIC has no buffer and no policy; a
    switch port has the run's buffer, or the ToR uplink's toward the root
    when one is set, and a fresh marker of the protocol's kind if the route
    from some other host into one of ``dsts`` crosses it, else none.  A hop
    into a switch adds the processing delay to the propagation delay."""
    _, threshold, slope = PROTOCOLS[cfg.protocol]
    k = cfg.ecn_threshold_bytes
    data_hops = set()
    for dst in dsts:
        for src in HOSTS:
            if src != dst:
                nodes = path(src, dst)
                data_hops.update(zip(nodes, nodes[1:]))
    ports = []
    for link in LINKS:
        for src, dst in (link, link[::-1]):
            forward_ns = cfg.prop_delay_ns
            if dst not in HOSTS:
                forward_ns += cfg.hop_proc_ns
            if src in HOSTS:
                limit, policy = None, None
            else:
                limit = cfg.buffer_bytes
                if dst == ROOT and cfg.tor_uplink_buffer_bytes is not None:
                    limit = cfg.tor_uplink_buffer_bytes
                policy = (SlopeEcn(cfg.link_rate_bps, k if threshold else None)
                          if slope else ThresholdEcn(k) if threshold else None)
                if (src, dst) not in data_hops:
                    policy = None
            ports.append((f"{src}->{dst}", limit, forward_ns,
                          type(policy), _slots(policy)))
    return ports


def _slots(policy):
    return {name: getattr(policy, name)
            for name in getattr(type(policy), "__slots__", ())}


# one host, two hosts in different racks, and every host
DESTINATION_SETS = ({"h10"}, {"h1", "h11"}, set(HOSTS))


@pytest.mark.parametrize("delays", [(0, 0), (500, 300)],
                         ids=["no_delay", "delays"])
@pytest.mark.parametrize("uplink", [None, 4_000], ids=["no_uplink", "uplink"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_network_ports_match_the_preset_spec(protocol, uplink, delays):
    prop_delay_ns, hop_proc_ns = delays
    cfg = RunConfig(seed=1, protocol=protocol, scenario={"kind": "incast"},
                    tor_uplink_buffer_bytes=uplink, buffer_bytes=6_000,
                    ecn_threshold_bytes=2_000, link_rate_bps=10 * GBPS,
                    prop_delay_ns=prop_delay_ns,
                    hop_proc_ns=hop_proc_ns).validate()
    for dsts in DESTINATION_SETS:
        engine = Engine()
        net = Network(engine, cfg, dsts)
        assert list(net.ports) == list(PORT_IDS)
        assert [(pid, port.buffer_limit, port.forward_ns, type(port.policy),
                 _slots(port.policy)) for pid, port in net.ports.items()] == (
            _reference_ports(cfg, dsts)), sorted(dsts)
        for pid, port in net.ports.items():
            assert port.port_id == pid and port.engine is engine
            assert port.rate_bps == cfg.link_rate_bps
            assert port.deliver_fn == net._deliver
        # the ports of one rate share one cache of wire times
        assert len({id(port.ser_ns) for port in net.ports.values()}) == 1
        # each switch port marks on its own state
        policies = [port.policy for port in net.ports.values()
                    if port.policy is not None]
        assert len({id(policy) for policy in policies}) == len(policies)


class HopReference:
    """The hop path of the preset network, from its spec.  Each port is a
    FIFO whose head is on the wire and departs one wire time after it
    became the head.  An arrival is dropped when the bytes queued, the one
    on the wire included, plus its own exceed the buffer (a host NIC has
    none); a switch port's policy, a fresh one of the protocol's kind (the
    marking rules have their own tests), sees every admitted arrival and
    marks only data.  A departing packet reaches the next port, or its host,
    ``prop_delay_ns`` later (plus ``hop_proc_ns`` into a switch), or at once
    when that is 0, after its port has started the next head.  Equal times
    are taken in the order they were scheduled.

    Packets are ``(flow_id, kind, size)`` with their remaining port ids;
    ``log`` holds each port's ``PortTrace`` rows and ``delivered`` the
    ``(time, flow_id)`` of every arrival at a host."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.log = {pid: [] for pid in PORT_IDS}
        self.fifo = {pid: deque() for pid in PORT_IDS}
        self.queued = dict.fromkeys(PORT_IDS, 0)
        self.policy = {pid: None if pid.split("->")[0] in HOSTS
                       else _make_policy(cfg) for pid in PORT_IDS}
        self.delivered = []
        self.events = []    # (time, seq, fn, args)
        self.seq = count()

    def at(self, t, fn, *args):
        heappush(self.events, (t, next(self.seq), fn, args))

    def run(self):
        while self.events:
            t, _, fn, args = heappop(self.events)
            fn(t, *args)

    def wire_ns(self, pkt):
        return serialization_ns(pkt[2], self.cfg.link_rate_bps)

    def arrive(self, now, pkt, hops):
        pid, (flow, kind, size) = hops[0], pkt
        src, dst = pid.split("->")
        q = self.queued[pid]
        limit = self.cfg.buffer_bytes
        if dst == ROOT and self.cfg.tor_uplink_buffer_bytes is not None:
            limit = self.cfg.tor_uplink_buffer_bytes
        if src not in HOSTS and q + size > limit:
            self.log[pid].append((now, q, q, flow, DROP))
            return
        policy = self.policy[pid]
        marked = (policy is not None and policy.decide(q, size, now)
                  and kind == DATA)
        code = (ACK_ENQUEUE if kind == ACK
                else ENQUEUE_MARKED if marked else ENQUEUE)
        self.log[pid].append((now, q, q + size, flow, code))
        self.queued[pid] = q + size
        self.fifo[pid].append((pkt, hops))
        if len(self.fifo[pid]) == 1:
            self.at(now + self.wire_ns(pkt), self.depart, pid)

    def depart(self, now, pid):
        fifo = self.fifo[pid]
        pkt, hops = fifo.popleft()
        q = self.queued[pid] = self.queued[pid] - pkt[2]
        self.log[pid].append((now, q + pkt[2], q, pkt[0], DEQUEUE))
        if fifo:
            self.at(now + self.wire_ns(fifo[0][0]), self.depart, pid)
        delay = self.cfg.prop_delay_ns
        if pid.split("->")[1] in HOSTS:
            step = (self.deliver, pkt)
        else:
            delay += self.cfg.hop_proc_ns
            step = (self.arrive, pkt, hops[1:])
        if delay:
            self.at(now + delay, *step)
        else:
            step[0](now, *step[1:])

    def deliver(self, now, pkt):
        self.delivered.append((now, pkt[0]))


class DeliveryLog(Network):
    """A network that records ``(time, flow_id)`` of every delivery."""

    def __init__(self, engine, cfg, dsts):
        self.delivered = []
        super().__init__(engine, cfg, dsts)

    def _deliver(self, now, pkt):
        self.delivered.append((now, pkt.flow_id))


# (start time, source, destination, ACK instead of data, data size) with
# hosts as indices into HOSTS: a few start times and sizes make exact ties
# between arrivals common, and most packets fan in to h4 or h10 (same-rack
# from h5 and h6, cross-rack from the others), so buffers overflow
_INJECTION = st.tuples(
    st.sampled_from((0, 0, 0, 512, 6_000, 12_000, 12_512, 24_000)),
    st.integers(0, 11), st.sampled_from((3, 9, 9)) | st.integers(0, 11),
    st.sampled_from((False, False, False, True)),
    st.sampled_from((64, 700, 1500, 1500)) | st.integers(64, 1500))

_NETWORK = st.fixed_dictionaries({
    "protocol": st.sampled_from(sorted(PROTOCOLS)),
    "link_rate_bps": st.sampled_from((GBPS, 10 * GBPS)),
    "prop_delay_ns": st.sampled_from((0, 0, 1, 500, 2_000)),
    "hop_proc_ns": st.sampled_from((0, 0, 1, 300)),
    "buffer_bytes": st.integers(1_500, 6_000),
    "tor_uplink_buffer_bytes": st.none() | st.integers(1_500, 4_000),
    "ecn_threshold_bytes": st.integers(0, 4_000),
})


@settings(max_examples=150)
@given(_NETWORK, st.lists(_INJECTION, min_size=8, max_size=50))
def test_network_hops_match_the_reference(fields, injections):
    cfg = RunConfig(seed=1, scenario={"kind": "incast"}, **fields).validate()
    engine = Engine()
    # every host a destination, so every switch port has the marker that
    # HopReference gives it
    net = DeliveryLog(engine, cfg, HOSTS)
    ref = HopReference(cfg)
    for port in net.ports.values():
        port.trace = PortTrace(port.port_id)
    for flow, (t, src, dst, is_ack, size) in enumerate(injections):
        src, dst = HOSTS[src], HOSTS[dst if dst != src else (dst + 1) % 12]
        kind, size = (ACK, ACK_SIZE) if is_ack else (DATA, size)
        route = net.route(src, dst)
        pkt = Packet(flow, kind, size, route)
        pkt.send_round = -1
        engine.schedule(t, _arrive, (route[0], pkt))
        nodes = path(src, dst)
        ref.at(t, ref.arrive, (flow, kind, size),
               [f"{a}->{b}" for a, b in zip(nodes, nodes[1:])])
    engine.run_until(1 << 62)
    ref.run()
    assert {pid: list(port.trace.rows())
            for pid, port in net.ports.items()} == ref.log
    assert net.delivered == ref.delivered
