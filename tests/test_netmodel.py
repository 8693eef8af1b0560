from microburst.engine import Engine
from microburst.marking import TailDrop, ThresholdEcn
from microburst.netmodel import (ACCEPTED, ACCEPTED_MARKED, DROPPED, Port,
                                 PortTrace, stamp_telemetry)
from microburst.packets import ACK, DATA, Packet
from microburst.topology import paper_preset, rack_of
from microburst.units import GBPS


def make_port(engine, sink, buffer_limit=None, policy=None, rate=GBPS):
    return Port("p", rate, buffer_limit, policy, engine,
                deliver_fn=lambda now, pkt: sink.append((now, pkt)))


def data_pkt(size=1500, flow=0, ecn=True, seq=0):
    pkt = Packet(flow, DATA, size, None, seq_lo=seq, seq_hi=seq + size,
                 ecn_capable=ecn)
    pkt.route = ()
    return pkt


def test_tail_drop_on_overflow():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=512_000, policy=TailDrop())
    port.queue_bytes = 511_000   # pre-filled bookkeeping
    assert port.enqueue(data_pkt(1500), 0) == DROPPED
    assert port.queue_bytes == 511_000
    assert port.drops == 1


def test_taildrop_accepts_without_marking():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=512_000, policy=TailDrop())
    pkt = data_pkt()
    assert port.enqueue(pkt, 0) == ACCEPTED
    assert pkt.ecn_marked is False


def test_threshold_policy_marks_above_threshold():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=512_000,
                     policy=ThresholdEcn(32_000))
    port.queue_bytes = 40_000
    pkt = data_pkt()
    assert port.enqueue(pkt, 0) == ACCEPTED_MARKED
    assert pkt.ecn_marked is True


def test_mark_requires_ecn_capable():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=512_000,
                     policy=ThresholdEcn(32_000))
    port.queue_bytes = 40_000
    pkt = data_pkt(ecn=False)
    assert port.enqueue(pkt, 0) == ACCEPTED
    assert pkt.ecn_marked is False


def test_serialization_time_mss():
    engine = Engine()
    sink = []
    port = make_port(engine, sink)
    port.enqueue(data_pkt(1500), 0)
    engine.run_until(100_000)
    assert sink[0][0] == 12_000


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
    assert port.busy is True
    engine.run_until(100_000)
    assert port.busy is False
    assert port.queue_bytes == 0


def test_work_conservation_and_byte_conservation():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=3_000, policy=TailDrop())
    for i in range(5):
        port.enqueue(data_pkt(seq=i * 1500), 0)
    assert port.busy is True
    assert port.bytes_in == port.bytes_out + port.queue_bytes  # admitted
    engine.run_until(1_000_000)
    assert port.bytes_in == port.bytes_out + port.queue_bytes
    assert port.bytes_dropped == 3 * 1500
    assert port.conservation_ok()


def test_stamp_exact_and_fidelity():
    pkt = data_pkt()
    stamp_telemetry(pkt, 1234, 1001, fidelity=True)
    assert pkt.telemetry_stamp == (800, 1000)
    stamp_telemetry(pkt, 1234, 1001, fidelity=False)
    assert pkt.telemetry_stamp == (1234, 1001)


def test_trace_records_pre_admission_queue():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=512_000, policy=TailDrop())
    port.trace = PortTrace("p")
    port.enqueue(data_pkt(seq=0), 0)
    port.enqueue(data_pkt(seq=1500), 0)
    rows = [r for r in port.trace.rows if r[3] == "enqueue"]
    assert rows[0][1] == 0        # queue before first packet
    assert rows[1][1] == 1500     # queue before second packet


def test_trace_stamps_data_but_not_acks():
    engine = Engine()
    sink = []
    port = make_port(engine, sink)
    port.trace = PortTrace("p")
    pkt = data_pkt(flow=0)
    port.enqueue(pkt, 0)
    assert pkt.telemetry_stamp == (0, 0)
    ack = Packet(1, ACK, 64, ())
    port.enqueue(ack, 0)
    assert ack.telemetry_stamp is None


def test_acks_share_queue_and_are_droppable():
    engine = Engine()
    sink = []
    port = make_port(engine, sink, buffer_limit=2_000, policy=TailDrop())
    port.enqueue(data_pkt(), 0)
    ack = Packet(0, ACK, 64, ())
    assert port.enqueue(ack, 0) == ACCEPTED
    big = data_pkt(seq=1500)
    assert port.enqueue(big, 0) == DROPPED      # 1500+64+1500 > 2000


def test_preset_topology_shape():
    topo = paper_preset()
    assert len(topo.hosts) == 12
    assert len(topo.switches) == 5
    assert len(topo.links) == 16
    topo.validate()
    assert rack_of("h1") == 0 and rack_of("h10") == 3
    path = topo.path("h1", "h10")
    assert path == ["h1", "t1", "root", "t4", "h10"]
    same_rack = topo.path("h11", "h10")
    assert same_rack == ["h11", "t4", "h10"]
