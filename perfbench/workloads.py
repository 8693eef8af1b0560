"""The benchmark's workloads and the correctness gate on their results.

A workload turns the workload seed into configs and drives them through the
package's public functions, one simulation after another in this process
(one client, closed loop).  Each repetition yields one fingerprint per
*unit*: a simulation, or for ``incast_check`` the whole check.

Why these three:

* ``websearch`` is the hot loop at scale: ~27.6 k flows fill the event heap,
  ~55 k live endpoints trigger full collector passes (only past ~3 s of
  simulated time, hence the full 10 s run), and slope+threshold marking runs
  on every switch admission.  Trace, analysis and the check runner are
  bypassed.
* ``fanin_traced`` exercises trace recording, analysis and CSV output plus
  the loss path of the transport (tail-drop TCP, ~470 drops per seed), with
  a small heap and few live objects.
* ``incast_check`` is the only workload driven through ``checks``: 125
  short runs over five protocols, the RTO and cancel paths, threshold and
  hybrid marking, and per-run setup.
"""

import hashlib
import json
import os
from dataclasses import dataclass

WEBSEARCH = {
    "protocol": "DCTCP+SL-ECN",
    "duration_ns": 10_000_000_000,
    "scenario": {"kind": "websearch", "load": 0.4,
                 "duration_ns": 10_000_000_000, "query_fraction": 0.5},
    "network": {"buffer_bytes": 128_000},
    "transport": {"max_cwnd_packets": 32},
    "telemetry": {"mode": "off"},
    "metrics": {"drain_grace_ns": 1_000_000_000},
}

FANIN = {
    "protocol": "TCP",
    "duration_ns": 0,
    "scenario": {"kind": "sync_fanin", "n": 18, "response_bytes": 1_000_000,
                 "jitter_ns": 20_000},
    "telemetry": {"mode": "exact", "ports": ["root->t4"]},
}


def _config(raw, seed, **overrides):
    from microburst import config_from_dict

    doc = json.loads(json.dumps(raw))
    for dotted, value in overrides.items():
        node = doc
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    doc["seed"] = seed
    return config_from_dict(doc)


@dataclass
class RepOutput:
    out_dirs: list = None    # per simulation, for workloads that write files
    check: object = None     # CheckResult, for check workloads


class Websearch:
    """One 10 s web-search simulation (``configs/websearch.yaml``)."""

    name = "websearch"
    imports = ("microburst",)
    drained = False          # flows may legitimately outlive the grace time

    def __init__(self, duration_ns=WEBSEARCH["duration_ns"],
                 grace_ns=1_000_000_000):
        self._overrides = {"duration_ns": duration_ns,
                           "scenario.duration_ns": duration_ns,
                           "metrics.drain_grace_ns": grace_ns}
        self.units = 1

    def run(self, seed, out_dir):
        from microburst import sim

        sim.run_simulation(_config(WEBSEARCH, seed, **self._overrides))
        return RepOutput()


class FaninTraced:
    """Several seeds of a traced TCP sync fan-in, each run to drain and
    written out with all its output files."""

    name = "fanin_traced"
    imports = ("microburst", "microburst.analysis")
    drained = True

    def __init__(self, sims=8, n=18, response_bytes=1_000_000):
        self.units = sims
        self._overrides = {"scenario.n": n,
                           "scenario.response_bytes": response_bytes}

    def run(self, seed, out_dir):
        from microburst import sim

        out_dirs = []
        for i in range(self.units):
            cfg = _config(FANIN, seed * self.units + i, **self._overrides)
            result = sim.run_simulation(cfg)
            path = os.path.join(out_dir, f"sim{i}")
            sim.write_outputs(result, path)
            out_dirs.append(path)
        return RepOutput(out_dirs=out_dirs)


class IncastCheck:
    """The ``incast`` acceptance check; it must PASS."""

    name = "incast_check"
    imports = ("microburst", "microburst.checks")
    drained = False

    def __init__(self, check="incast"):
        self.check = check
        self.units = 1

    def run(self, seed, out_dir):
        from microburst import checks

        return RepOutput(check=checks.run_check(self.check, base_seed=seed))


WORKLOADS = {wl.name: wl for wl in (Websearch, FaninTraced, IncastCheck)}

# Cut-down instances for the self-test: same code paths, seconds to run.
SMOKE = {
    "websearch": lambda: Websearch(duration_ns=300_000_000,
                                   grace_ns=50_000_000),
    "fanin_traced": lambda: FaninTraced(sims=2, n=6, response_bytes=200_000),
    "incast_check": lambda: IncastCheck(check="pacing"),
}


# -- correctness gate --------------------------------------------------------

@dataclass
class SimOutcome:
    digest: str          # sha256 of the outcome document below
    problems: list       # invariant violations
    facts: dict          # exact counts the metrics are computed from


def inspect(result, drained):
    """Digest, invariant check and counts of one finished simulation.

    The digest covers per-flow records, query completions, per-port
    counters and the packet counters.  Event counts are left out on
    purpose: an engine that dispatches fewer events for the same packets
    keeps its digest.
    """
    s = result.summary
    flows = result.flows
    ports = sorted(result.ports.items())
    doc = {
        "packets": [s.packets_sent, s.packets_delivered, s.packets_dropped,
                    s.packets_marked],
        "flows": [[f.flow_id, f.size_bytes, f.delivered_bytes, f.start_ns,
                   f.end_ns, f.retransmits, f.timeouts] for f in flows],
        "queries": [list(q) for q in result.query_completions()],
        "ports": [[pid, p["drops"], p["marks"], p["bytes_in"],
                   p["bytes_out"], p["max_queue_bytes"]] for pid, p in ports],
    }
    digest = hashlib.sha256(
        json.dumps(doc, separators=(",", ":")).encode()).hexdigest()
    problems = []
    for pid, p in ports:
        if p["bytes_in"] != p["bytes_out"] + p["queue_bytes"]:
            problems.append(f"port {pid} does not conserve bytes")
    for f in flows:
        if f.end_ns is None:
            if drained:
                problems.append(f"flow {f.flow_id} never completed")
        elif f.delivered_bytes != f.size_bytes:
            problems.append(f"flow {f.flow_id} completed with "
                            f"{f.delivered_bytes}/{f.size_bytes} bytes")
    facts = {
        "events": s.events_dispatched,
        "sent": s.packets_sent,
        "delivered": s.packets_delivered,
        "drops": sum(p["drops"] for _, p in ports),
        "marks": sum(p["marks"] for _, p in ports),
        "retransmits": sum(f.retransmits for f in flows),
        "timeouts": sum(f.timeouts for f in flows),
        "flows": len(flows),
    }
    return SimOutcome(digest, problems, facts)


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def judge_units(records, output):
    """(fingerprints, problems) per unit of one finished repetition.

    A simulation that wrote files also covers the bytes of its trace.csv.
    """
    out_dirs = output.out_dirs or [None] * len(records)
    fps, problems = [], []
    for rec, out_dir in zip(records, out_dirs):
        fp = rec.outcome.digest
        if out_dir is not None:
            fp = hashlib.sha256((fp + _file_digest(
                os.path.join(out_dir, "trace.csv"))).encode()).hexdigest()
        fps.append(fp)
        problems.append(list(rec.outcome.problems))
    if output.check is None:
        return fps, problems
    check = output.check
    digest = hashlib.sha256(json.dumps(
        [fps, check.passed, check.lines]).encode()).hexdigest()
    found = [p for unit in problems for p in unit]
    if not check.passed:
        found.append(f"check {check.name} FAILED: {check.lines}")
    return [digest], [found]


class Gate:
    """Counts failed units against attempted ones.

    A unit fails if its repetition raised, if it breaks an invariant or its
    check FAILs, or if its fingerprint differs from the reference: the
    recorded fingerprints
    for this seed when there are some, else those of the first repetition
    in this process.
    """

    def __init__(self, wl, recorded=None):
        if recorded is not None and len(recorded) != wl.units:
            raise ValueError(f"{len(recorded)} recorded fingerprints for "
                             f"{wl.units} units of {wl.name}")
        self.wl = wl
        self.reference = recorded
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def judge(self, label, error, fingerprints, problems):
        units = self.wl.units
        self.attempted += units
        if error is None and len(fingerprints) != units:
            error = f"expected {units} units, saw {len(fingerprints)}"
        if error is not None:
            self.failed += units
            self.failures.append({"rep": label, "unit": None, "why": [error]})
            return
        if self.reference is None:
            self.reference = list(fingerprints)
        for i, (fp, found) in enumerate(zip(fingerprints, problems)):
            why = list(found)
            if fp != self.reference[i]:
                why.append(f"fingerprint {fp[:16]} != expected "
                           f"{self.reference[i][:16]}")
            if why:
                self.failed += 1
                self.failures.append({"rep": label, "unit": i, "why": why})
