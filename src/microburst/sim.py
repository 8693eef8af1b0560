"""Assembles one run: preset links -> ports, schedule -> flows, then the event
loop; audits the end state, builds the run totals, flow records and query
completions from the ports and endpoints, and writes the CSV outputs."""

import os
import random
from dataclasses import dataclass

from .config import RunConfig, effective_yaml
from .engine import Engine
from .marking import ThresholdEcn, SlopeEcn
from .netmodel import Port, PortTrace
from .packets import DATA
from .scenarios import build_schedule
from .topology import HOSTS, LINKS, ROOT, path
from .transport import Sender, Receiver, TransportParams, DCTCP


def _make_policy(cfg: RunConfig):
    """A fresh marking policy for one switch port; None never marks."""
    kind = cfg.policy_kind()
    if kind == "taildrop":
        return None
    if kind == "threshold":
        return ThresholdEcn(cfg.ecn_threshold_bytes)
    if kind == "slope":
        return SlopeEcn(cfg.link_rate_bps)
    return SlopeEcn(cfg.link_rate_bps, cfg.ecn_threshold_bytes)


class Network:
    """Ports for every directed link of the preset plus per-pair port routes."""

    def __init__(self, engine, cfg: RunConfig):
        self.ports = {}
        self._routes = {}
        for link in LINKS:
            for a, b in (link, link[::-1]):
                port_id = f"{a}->{b}"
                if a in HOSTS:
                    buffer_limit, policy = None, None   # sender NIC
                else:
                    policy = _make_policy(cfg)
                    if b == ROOT and cfg.tor_uplink_buffer_bytes is not None:
                        buffer_limit = cfg.tor_uplink_buffer_bytes
                    else:
                        buffer_limit = cfg.buffer_bytes
                forward_ns = cfg.prop_delay_ns
                if b not in HOSTS:
                    forward_ns += cfg.hop_proc_ns
                self.ports[port_id] = Port(port_id, cfg.link_rate_bps,
                                           buffer_limit, policy, engine,
                                           forward_ns, deliver_fn=self._deliver)
        self.senders = {}
        self.receivers = {}

    def route(self, src, dst):
        key = (src, dst)
        cached = self._routes.get(key)
        if cached is None:
            nodes = path(src, dst)
            cached = tuple(self.ports[f"{a}->{b}"]
                           for a, b in zip(nodes, nodes[1:]))
            self._routes[key] = cached
        return cached

    def _deliver(self, now, pkt):
        if pkt.kind == DATA:
            self.receivers[pkt.flow_id].on_data(pkt, now)
        else:
            self.senders[pkt.flow_id].on_ack(pkt, now)


@dataclass
class RunSummary:
    """Run-wide counters, summed over the ports and endpoints after the run.

    ``packets_marked`` counts marks per switch-port hop, not per packet: a
    packet marked at two ports counts twice.
    """

    events_dispatched: int
    packets_sent: int
    packets_delivered: int
    packets_dropped: int
    packets_marked: int


@dataclass
class FlowRecord:
    flow_id: int
    src: str
    dst: str
    size_bytes: int
    start_ns: int
    end_ns: int          # None while incomplete
    retransmits: int
    timeouts: int
    delivered_bytes: int
    first_ece_cut_ns: int
    query_id: int


@dataclass
class RunResult:
    cfg: RunConfig
    summary: RunSummary
    end_ns: int
    flows: list
    queries: list                      # (QuerySpec, end_ns or None)
    traces: dict                       # port_id -> PortTrace
    ports: dict                        # port_id -> counter snapshot
    first_ece_cut_ns: int              # earliest mark-induced window cut

    def query_completions(self):
        out = []
        for spec, end in self.queries:
            out.append((spec.query_id, spec.issue_ns, end,
                        None if end is None else end - spec.issue_ns))
        return out


def _start_flow(now, sender):
    sender.start(now)


class AuditError(Exception):
    """An end-of-run invariant does not hold; the message names where."""


def _audit(net, flows):
    """Byte conservation on every port, and no flow delivered past its size."""
    for port_id, port in net.ports.items():
        if not port.conservation_ok():
            raise AuditError(
                f"port {port_id}: bytes_in {port.bytes_in} != bytes_out "
                f"{port.bytes_out} + queue_bytes {port.queue_bytes}")
    for spec in flows:
        delivered = net.receivers[spec.flow_id].cum_ack
        if delivered > spec.size_bytes:
            raise AuditError(
                f"flow {spec.flow_id}: delivered_bytes {delivered} > "
                f"size_bytes {spec.size_bytes}")


def run_simulation(cfg: RunConfig) -> RunResult:
    cfg.validate()
    rng = random.Random(cfg.seed)
    flows, queries = build_schedule(cfg.scenario, rng, cfg.link_rate_bps)

    engine = Engine()
    net = Network(engine, cfg)

    traces = {}
    if cfg.telemetry_mode != "off":
        for port_id in cfg.telemetry_ports:   # names checked by validate
            traces[port_id] = net.ports[port_id].trace = PortTrace(
                port_id, fidelity=(cfg.telemetry_mode == "fidelity"))

    params = TransportParams(mss=cfg.mss_bytes,
                             iw_packets=cfg.initial_window_packets,
                             max_cwnd_packets=cfg.max_cwnd_packets,
                             rto_min_ns=cfg.rto_min_ns,
                             dctcp_gain=cfg.dctcp_gain,
                             dctcp_alpha0=cfg.dctcp_alpha0,
                             initial_rtt_ns=cfg.initial_rtt_ns)
    algo = cfg.host_algorithm()
    ecn = cfg.ecn_capable()

    for spec in flows:
        fwd = net.route(spec.src, spec.dst)
        back = net.route(spec.dst, spec.src)
        sender = Sender(spec.flow_id, algo, spec.size_bytes, fwd, engine,
                        params, ecn_capable=ecn, pacing=cfg.pacing,
                        annotate=spec.burst)
        receiver = Receiver(spec.flow_id, back, dctcp_echo=(algo == DCTCP))
        net.senders[spec.flow_id] = sender
        net.receivers[spec.flow_id] = receiver
        engine.schedule(spec.start_ns, _start_flow, sender)

    if cfg.duration_ns:
        engine.run_until(cfg.duration_ns + cfg.drain_grace_ns)
        end_ns = engine.now
    else:
        engine.run_until(1 << 62)   # drains the event set
        end_ns = engine.last_dispatch_ns
    _audit(net, flows)

    senders, receivers = net.senders, net.receivers
    ports = net.ports.values()
    summary = RunSummary(
        events_dispatched=engine.events_dispatched,
        packets_sent=sum(s.sent for s in senders.values()),
        packets_delivered=sum(r.received for r in receivers.values()),
        packets_dropped=sum(p.drops for p in ports),
        packets_marked=sum(p.marks for p in ports))
    records = []
    for spec in flows:
        sender = senders[spec.flow_id]
        records.append(FlowRecord(
            flow_id=spec.flow_id, src=spec.src, dst=spec.dst,
            size_bytes=spec.size_bytes, start_ns=spec.start_ns,
            end_ns=sender.end_ns, retransmits=sender.retransmits,
            timeouts=sender.timeouts,
            delivered_bytes=receivers[spec.flow_id].cum_ack,
            first_ece_cut_ns=sender.first_ece_cut_ns,
            query_id=spec.query_id))
    first_ece = min((r.first_ece_cut_ns for r in records
                     if r.first_ece_cut_ns is not None), default=None)
    # a query ends when its last flow does, and not while any is unfinished
    query_ends = []
    for q in queries:
        ends = [senders[fid].end_ns for fid in q.flow_ids]
        query_ends.append((q, None if None in ends else max(ends)))

    # ports and endpoints reference each other, so the finished network is
    # freed only by the cycle collector; the result alone keeps the traces
    for port_id in traces:
        net.ports[port_id].trace = None
    port_stats = {pid: {"max_queue_bytes": p.max_queue_bytes,
                        "drops": p.drops, "marks": p.marks,
                        "bytes_in": p.bytes_in, "bytes_out": p.bytes_out,
                        "bytes_dropped": p.bytes_dropped,
                        "queue_bytes": p.queue_bytes}
                  for pid, p in net.ports.items()}

    return RunResult(cfg=cfg, summary=summary, end_ns=end_ns,
                     flows=records, queries=query_ends,
                     traces=traces, ports=port_stats,
                     first_ece_cut_ns=first_ece)


def run_plan(plan, measure):
    """Run the ``(label, RunConfig)`` points of ``plan`` in order, yielding
    ``(label, measure(result))``.  ``run_simulation`` is looked up at each
    call, so a wrapper bound onto this module sees every run."""
    for label, cfg in plan:
        yield label, measure(run_simulation(cfg))


def write_outputs(result: RunResult, out_dir: str) -> None:
    from .analysis import compute_metrics   # local import: analysis uses numpy

    os.makedirs(out_dir, exist_ok=True)
    cfg = result.cfg

    with open(os.path.join(out_dir, "trace.csv"), "w", newline="\n") as fh:
        fh.write("time_ns,port_id,queue_bytes,flow_id,event\n")
        for port_id in sorted(result.traces):
            fh.writelines(result.traces[port_id].csv_lines())

    with open(os.path.join(out_dir, "flows.csv"), "w", newline="\n") as fh:
        fh.write("flow_id,bytes,start_ns,end_ns,retransmits,timeouts\n")
        for rec in result.flows:
            end = -1 if rec.end_ns is None else rec.end_ns
            fh.write(f"{rec.flow_id},{rec.size_bytes},{rec.start_ns},"
                     f"{end},{rec.retransmits},{rec.timeouts}\n")

    if result.queries:
        with open(os.path.join(out_dir, "queries.csv"), "w", newline="\n") as fh:
            fh.write("query_id,issue_ns,end_ns,qct_ns\n")
            for qid, issue, end, qct in result.query_completions():
                fh.write(f"{qid},{issue},{-1 if end is None else end},"
                         f"{-1 if qct is None else qct}\n")

    metrics = compute_metrics(result)
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="\n") as fh:
        fh.write("metric,value\n")
        for key, value in metrics.items():
            fh.write(f"{key},{value}\n")

    with open(os.path.join(out_dir, "summary.txt"), "w", newline="\n") as fh:
        fh.write("# effective configuration\n")
        fh.write(effective_yaml(cfg))
        fh.write("\n# run summary\n")
        s = result.summary
        fh.write(f"events_dispatched: {s.events_dispatched}\n")
        fh.write(f"packets_sent: {s.packets_sent}\n")
        fh.write(f"packets_delivered: {s.packets_delivered}\n")
        fh.write(f"packets_dropped: {s.packets_dropped}\n")
        fh.write(f"packets_marked: {s.packets_marked}\n")
        fh.write(f"end_ns: {result.end_ns}\n")
