"""Assembles one run: preset links -> ports, then the event loop, which
starts each flow of the sorted schedule when its time comes; audits the end
state, builds the run totals and query completions from the flows and
ports, and writes the CSV outputs.

``prepare_run`` makes every check of a run before its first event;
``run_simulation`` and the CLI's check of later sweep points both call it.

The schedule's flow objects are the run's flow records.  A flow waits in
the schedule, not in the engine, until it starts; its endpoints are built
then, from the flow and the run's config, and hold the flow, so its outcome,
counts included, is written straight into it.  When it completes, its
sender is retired, and its receiver too once every data packet sent has
arrived: per-flow state scales with the flows in flight, not with the
length of the schedule.  After a loss the receiver stays, since a
retransmitted duplicate can still reach it and be acknowledged.  The run
reads its totals and its audit from the flows and ports alone, never from
an endpoint or the engine's pending events: a port holds the packets on
its delayed link in its ``in_transit``."""

import os
import random
from collections import namedtuple

from .config import PROTOCOLS, ConfigError, RunConfig, effective_yaml
from .engine import Engine
from .marking import ThresholdEcn, SlopeEcn
from .netmodel import Port, PortTrace
from .packets import DATA
from .scenarios import build_schedule
from .topology import PORT_TABLE, PORTS_INTO, path
from .transport import Sender, Receiver, DCTCP


def _make_policy(cfg: RunConfig):
    """A fresh marking policy for one switch port; None never marks."""
    threshold, slope = PROTOCOLS[cfg.protocol][1:]
    if slope:
        return SlopeEcn(cfg.link_rate_bps,
                        cfg.ecn_threshold_bytes if threshold else None)
    if threshold:
        return ThresholdEcn(cfg.ecn_threshold_bytes)
    return None


class Network:
    """Ports for every directed link of the preset, per-pair port routes,
    and the endpoints of the flows started so far.

    Only a switch port on some path into one of ``dsts``, the hosts the
    run's flows send to, gets a marker: every other port carries no data,
    and a marker there could only decide on ACKs, which are never marked.
    ``senders`` holds only the flows still running, and ``receivers`` only
    those whose receiver may still see a data packet."""

    def __init__(self, engine, cfg: RunConfig, dsts):
        self.engine = engine
        self.cfg = cfg
        self._routes = {}
        data_ports = frozenset().union(*(PORTS_INTO[dst] for dst in dsts))
        rate, deliver = cfg.link_rate_bps, self._deliver
        buffer_bytes = cfg.buffer_bytes
        uplink_bytes = cfg.tor_uplink_buffer_bytes
        if uplink_bytes is None:
            uplink_bytes = buffer_bytes
        host_ns = cfg.prop_delay_ns               # into a host
        switch_ns = host_ns + cfg.hop_proc_ns     # into a switch
        ports = self.ports = {}
        for port_id, on_host, to_root, to_switch in PORT_TABLE:
            if on_host:
                buffer_limit, policy = None, None   # sender NIC
            else:
                buffer_limit = uplink_bytes if to_root else buffer_bytes
                policy = (_make_policy(cfg) if port_id in data_ports
                          else None)
            ports[port_id] = Port(port_id, rate, buffer_limit, policy, engine,
                                  switch_ns if to_switch else host_ns,
                                  deliver_fn=deliver)
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
            return
        sender = self.senders.get(pkt.flow_id)
        if sender is None:
            return      # a late ACK of a finished flow
        sender.on_ack(pkt, now)
        if sender.done:
            # _complete cancelled its only timers, so once dropped here the
            # sender is freed
            fid = pkt.flow_id
            del self.senders[fid]
            flow = sender.flow
            # every data packet sent has arrived, and no more will be sent
            if flow.received == flow.sent:
                del self.receivers[fid]


# Run-wide counters, summed over the ports and flows after the run.
# ``packets_marked`` counts marks per switch-port hop, not per packet: a
# packet marked at two ports counts twice.
RunSummary = namedtuple("RunSummary", "events_dispatched packets_sent "
                        "packets_delivered packets_dropped packets_marked")


class RunResult(namedtuple("RunResult", "cfg summary end_ns flows queries "
                           "traces ports first_ece_cut_ns")):
    """A finished run: ``flows`` are the schedule's FlowSpecs in order,
    ``queries`` pair each QuerySpec with its end_ns or None, and ``traces``
    and ``ports`` map port ids to PortTraces and counter snapshots."""
    __slots__ = ()

    def query_completions(self):
        return [(spec.query_id, spec.issue_ns, end,
                 None if end is None else end - spec.issue_ns)
                for spec, end in self.queries]


def _start_flow(now, arg):
    """Build a flow's endpoints at its start and send its first window."""
    net, spec = arg
    fid = spec.flow_id
    sender = Sender(spec, net.route(spec.src, spec.dst), net.engine, net.cfg)
    net.receivers[fid] = Receiver(spec, net.route(spec.dst, spec.src),
                                  dctcp_echo=(sender.algo == DCTCP))
    net.senders[fid] = sender
    sender.start(now)


def _run_loop(engine, starts, horizon):
    """Run the engine to ``horizon``, calling ``fn(t, arg)`` for each
    ``(t, fn, arg)`` of ``starts``, sorted by ``t``, that is due by then;
    returns how many were called.

    Each call comes after every event due before ``t`` and before every
    event due at ``t``, as if it had been scheduled before the loop: the
    engine holds only the events scheduled while the run goes on.  The
    engine runs once per start time, since a start schedules nothing before
    its own time."""
    called = 0
    last = None
    for t, fn, arg in starts:
        if t > horizon:
            break
        if t != last:
            engine.run_until(t - 1)
            last = t
        fn(t, arg)
        called += 1
    engine.run_until(horizon)
    return called


class AuditError(Exception):
    """An end-of-run invariant does not hold; the message names where."""


def _data_in_flight(net):
    """(queued, held): data packets in the port queues, and those on a
    delayed link, in a port's ``in_transit``, not yet at the next hop."""
    ports = net.ports.values()
    queued = sum(pkt.kind == DATA for port in ports for pkt in port.queue)
    held = sum(pkt.kind == DATA for port in ports for pkt in port.in_transit)
    return queued, held


def _audit(net, flows, summary):
    """Byte conservation on every port, no flow delivered past its size, and
    every data packet sent received, dropped or still in flight."""
    for port_id, port in net.ports.items():
        if not port.conservation_ok():
            raise AuditError(
                f"port {port_id}: bytes_in {port.bytes_in} != bytes_out "
                f"{port.bytes_out} + queue_bytes {port.queue_bytes}")
    for flow in flows:
        if flow.delivered_bytes > flow.size_bytes:
            raise AuditError(
                f"flow {flow.flow_id}: delivered_bytes {flow.delivered_bytes} "
                f"> size_bytes {flow.size_bytes}")
    sent, received = summary.packets_sent, summary.packets_delivered
    dropped = sum(port.data_drops for port in net.ports.values())
    queued, held = _data_in_flight(net)
    if sent != received + dropped + queued + held:
        raise AuditError(
            f"data packets: sent {sent} != received {received} + dropped "
            f"{dropped} + queued {queued} + held in delayed events {held}")


def prepare_run(cfg: RunConfig):
    """``(flows, queries, horizon)`` of a run: validates ``cfg``, builds its
    schedule, works out the time its loop runs to, and rejects a schedule
    that starts no flow by then."""
    cfg.validate()
    flows, queries = build_schedule(cfg.scenario, random.Random(cfg.seed),
                                    cfg.link_rate_bps)
    if not flows:
        raise ConfigError("scenario",
                          f"{cfg.scenario['kind']} schedules no flow")
    if cfg.duration_ns:
        horizon = cfg.duration_ns + cfg.drain_grace_ns
    else:
        horizon = 1 << 62   # drains the event set
    if flows[0].start_ns > horizon:   # the schedule is sorted by start
        raise ConfigError("duration_ns", f"no flow starts by the run's end "
                          f"at {horizon} ns; the first starts at "
                          f"{flows[0].start_ns} ns")
    return flows, queries, horizon


def run_simulation(cfg: RunConfig) -> RunResult:
    flows, queries, horizon = prepare_run(cfg)
    engine = Engine()
    net = Network(engine, cfg, {f.dst for f in flows})

    traces = {}
    if cfg.telemetry_mode != "off":
        for port_id in cfg.telemetry_ports:   # names checked by validate
            traces[port_id] = net.ports[port_id].trace = PortTrace(
                port_id, fidelity=(cfg.telemetry_mode == "fidelity"))

    started = _run_loop(engine, ((spec.start_ns, _start_flow, (net, spec))
                                 for spec in flows), horizon)
    end_ns = engine.now if cfg.duration_ns else engine.last_dispatch_ns

    ports = net.ports.values()
    summary = RunSummary(
        events_dispatched=engine.events_dispatched + started,
        packets_sent=sum(f.sent for f in flows),
        packets_delivered=sum(f.received for f in flows),
        packets_dropped=sum(p.drops for p in ports),
        packets_marked=sum(p.marks for p in ports))
    _audit(net, flows, summary)

    first_ece = min((f.first_ece_cut_ns for f in flows
                     if f.first_ece_cut_ns is not None), default=None)
    # a query ends when its last flow does, and not while any is unfinished
    query_end = dict.fromkeys((q.query_id for q in queries), 0)
    for f in flows:
        qid, end = f.query_id, f.end_ns
        if query_end.get(qid) is not None:
            query_end[qid] = None if end is None else max(query_end[qid], end)
    query_ends = [(q, query_end[q.query_id]) for q in queries]

    # ports and endpoints reference each other, so the finished network is
    # freed only by the cycle collector; the result alone keeps the traces
    for port_id in traces:
        net.ports[port_id].trace = None
    port_stats = {pid: {"max_queue_bytes": p.max_queue_bytes,
                        "drops": p.drops, "data_drops": p.data_drops,
                        "marks": p.marks,
                        "bytes_in": p.bytes_in, "bytes_out": p.bytes_out,
                        "bytes_dropped": p.bytes_dropped,
                        "queue_bytes": p.queue_bytes}
                  for pid, p in net.ports.items()}

    return RunResult(cfg=cfg, summary=summary, end_ns=end_ns,
                     flows=flows, queries=query_ends,
                     traces=traces, ports=port_stats,
                     first_ece_cut_ns=first_ece)


def run_plan(plan, measure):
    """Run the ``(label, RunConfig)`` points of ``plan`` in order, yielding
    ``(label, measure(result))``.  ``run_simulation`` is looked up at each
    call, so a wrapper bound onto this module sees every run."""
    for label, cfg in plan:
        yield label, measure(run_simulation(cfg))


def write_outputs(result: RunResult, out_dir: str) -> None:
    # local import: runs that write no outputs never load analysis
    from .analysis import compute_metrics

    os.makedirs(out_dir, exist_ok=True)
    cfg = result.cfg

    with open(os.path.join(out_dir, "trace.csv"), "w", newline="\n") as fh:
        fh.write("time_ns,port_id,queue_bytes,flow_id,event\n")
        for port_id in sorted(result.traces):
            fh.writelines(result.traces[port_id].csv_chunks())

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
