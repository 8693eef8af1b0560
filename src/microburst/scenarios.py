"""Flow-schedule generators for the fan-in, incast, and workload scenarios.

All generators are pure functions of their parameters and the run's seeded
generator, so a (config, seed) pair always yields the same schedule.  The
12-host preset fixes the roles: h10 is the fan-in receiver / query master,
h11 and h12 absorb background flows, and the remaining hosts send.

Every rejection, of a scenario key, a size CDF or a built schedule, is a
``config.ConfigError`` naming ``scenario.<key>``, or ``scenario`` for the
schedule as a whole.
"""

import bisect
import os
from collections import namedtuple
from itertools import repeat
from operator import attrgetter

from .config import ConfigError, _is_number, check_int
from .topology import HOSTS
from .units import NS_PER_S

_HOSTS = frozenset(HOSTS)    # for membership tests
FANIN_RECEIVER = "h10"
FANIN_SENDERS = [f"h{i}" for i in range(1, 10)]
# rack-interleaved order so small sender counts still span several racks
SPREAD_SENDERS = ["h1", "h4", "h7", "h2", "h5", "h8", "h3", "h6", "h9"]
BACKGROUND_SINKS = ["h11", "h12"]

LONG_FLOW_BYTES = 1_000_000_000   # finite stand-in for "unbounded"


class FlowSpec:
    """One flow from schedule to result; the run fills in its outcome."""
    __slots__ = ("flow_id", "src", "dst", "size_bytes", "start_ns", "query_id",
                 "burst",       # False for long-lived background flows; only
                                # burst flows carry phase annotations
                 "end_ns",      # None while incomplete
                 "retransmits", "timeouts", "delivered_bytes",
                 "first_ece_cut_ns",
                 "sent",        # data packets, retransmissions included
                 "received")    # data packets, duplicates included

    def __init__(self, flow_id, src, dst, size_bytes, start_ns, query_id=None,
                 burst=True):
        self.flow_id, self.src, self.dst = flow_id, src, dst
        self.size_bytes, self.start_ns = size_bytes, start_ns
        self.query_id, self.burst = query_id, burst
        self.end_ns = self.first_ece_cut_ns = None
        self.retransmits = self.timeouts = self.delivered_bytes = 0
        self.sent = self.received = 0

    def __eq__(self, other):
        if type(other) is not FlowSpec:
            return NotImplemented
        return _slot_values(self) == _slot_values(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, _slot_values(self)))
        return f"FlowSpec({fields})"


_slot_values = attrgetter(*FlowSpec.__slots__)
QuerySpec = namedtuple("QuerySpec", "query_id issue_ns")


def validate_schedule(flows):
    seen = set()
    last_start = 0
    for f in flows:
        if f.src not in _HOSTS or f.dst not in _HOSTS:
            raise ConfigError("scenario", f"flow {f.flow_id}: {f.src} -> "
                              f"{f.dst} is not between preset hosts h1..h12")
        if f.src == f.dst:
            raise ConfigError("scenario",
                              f"flow {f.flow_id}: src == dst ({f.src})")
        if f.size_bytes <= 0:
            raise ConfigError("scenario", f"flow {f.flow_id}: non-positive size")
        if f.start_ns < 0:
            raise ConfigError("scenario", f"flow {f.flow_id}: negative start")
        if f.flow_id in seen:
            raise ConfigError("scenario", f"duplicate flow id {f.flow_id}")
        seen.add(f.flow_id)
        if f.start_ns < last_start:
            raise ConfigError("scenario", "schedule not sorted by start time")
        last_start = f.start_ns
    return flows


def _check_hosts(name, hosts):
    for host in hosts:
        if not isinstance(host, str) or host not in _HOSTS:
            raise ConfigError(f"scenario.{name}", f"no host {host!r} in the "
                              "preset; hosts are h1..h12")


def _sorted(flows):
    """Order ``flows`` by (start_ns, flow_id) and validate them.  Every
    generator appends its flows in id order, so one stable sort by start
    time keeps ties in id order."""
    flows.sort(key=attrgetter("start_ns"))
    return validate_schedule(flows)


# -- micro-burst scenarios ---------------------------------------------------

def _burst(first_id, n, senders, receiver, size, start_ns, jitter_ns, rng):
    """n flows of ``size`` bytes to one receiver, senders taken in turn,
    each starting at start_ns plus a uniform draw below jitter_ns."""
    return [FlowSpec(first_id + i, senders[i % len(senders)], receiver, size,
                     start_ns + (rng.randrange(jitter_ns) if jitter_ns else 0))
            for i in range(n)]


def _background(srcs, count, size):
    """Long-lived flows from ``srcs`` in turn, to the sinks in turn."""
    return [FlowSpec(i, srcs[i % len(srcs)], BACKGROUND_SINKS[i % 2], size, 0,
                     burst=False) for i in range(count)]


def gen_sync_fanin(n, response_bytes=1_000_000, start_ns=0, jitter_ns=0,
                   rng=None, receiver=FANIN_RECEIVER, senders=None):
    """n concurrent flows to one receiver, optionally with a small uniform
    start jitter (real 'simultaneous' starts carry scheduler jitter)."""
    if senders is None:
        senders = FANIN_SENDERS
    elif not isinstance(senders, list) or not senders:
        raise ConfigError("scenario.senders", "must be a non-empty list of "
                          f"preset hosts h1..h12, got {senders!r}")
    _check_hosts("receiver", [receiver])
    _check_hosts("senders", senders)
    used = senders[:n]   # the burst takes senders[i % len(senders)], i < n
    if receiver in used:
        raise ConfigError("scenario.receiver", f"{receiver} is one of the "
                          f"senders the burst uses, {used}")
    return _sorted(_burst(0, n, senders, receiver, response_bytes, start_ns,
                          jitter_ns, rng)), []


def gen_async_fanin(n, window_ns=2_000_000, response_bytes=1_000_000,
                    start_ns=0, rng=None):
    """n flows starting uniformly at random inside a window."""
    return gen_sync_fanin(n, response_bytes, start_ns, jitter_ns=window_ns,
                          rng=rng)


def gen_one_background(fanin_count=8, response_bytes=1_000_000,
                       delay_ns=500_000_000, background_bytes=LONG_FLOW_BYTES,
                       jitter_ns=0, rng=None):
    """One long-lived flow first, then a fan-in burst at the same bottleneck."""
    flows = [FlowSpec(0, "h9", "h11", background_bytes, 0, burst=False)]
    flows += _burst(1, fanin_count, [f"h{i}" for i in range(1, 9)],
                    FANIN_RECEIVER, response_bytes, delay_ns, jitter_ns, rng)
    return _sorted(flows), []


def gen_background_same_hop(background_count=3, fanin_count=12,
                            response_bytes=1_000_000, delay_ns=500_000_000,
                            background_bytes=LONG_FLOW_BYTES,
                            jitter_ns=0, rng=None):
    """Background flows already queueing at the fan-in port when the burst
    starts; fan-in senders exclude the background hosts."""
    flows = _background(["h1", "h4", "h7"], background_count, background_bytes)
    flows += _burst(background_count, fanin_count,
                    ["h2", "h3", "h5", "h6", "h8", "h9"], FANIN_RECEIVER,
                    response_bytes, delay_ns, jitter_ns, rng)
    return _sorted(flows), []


def gen_background_prev_hop(background_count=3, fanin_count=6,
                            response_bytes=1_000_000, delay_ns=500_000_000,
                            background_bytes=LONG_FLOW_BYTES,
                            jitter_ns=0, rng=None):
    """Background flows congest their rack uplink; the fan-in burst then
    moves the congestion point downstream and the rack's built-up queue
    drains into it (the hidden buffer)."""
    flows = _background(["h7", "h8", "h9"], background_count, background_bytes)
    flows += _burst(background_count, fanin_count,
                    [f"h{i}" for i in range(1, 7)], FANIN_RECEIVER,
                    response_bytes, delay_ns, jitter_ns, rng)
    return _sorted(flows), []


# -- incast microbenchmarks --------------------------------------------------

def gen_incast(n, mode="fixed_response", response_bytes=64_000,
               total_bytes=1_024_000, start_ns=0):
    """Synchronized query responses: fixed per-slave size, or a fixed total
    split evenly (integer floor, remainder on the first flow)."""
    if mode not in ("fixed_response", "fixed_total"):
        raise ConfigError("scenario.mode", f"unknown incast mode {mode!r}")
    if mode == "fixed_total":
        if total_bytes < n:   # every flow needs at least one byte
            raise ConfigError("scenario.total_bytes",
                              f"must be >= n ({n}), got {total_bytes!r}")
        size = total_bytes // n
        first = size + total_bytes % n
    else:
        size = first = response_bytes
    flows = [FlowSpec(i, FANIN_SENDERS[i % len(FANIN_SENDERS)], FANIN_RECEIVER,
                      size if i else first, start_ns, query_id=0)
             for i in range(n)]
    return _sorted(flows), [QuerySpec(0, start_ns)]


# -- long-flow utilization ---------------------------------------------------

def gen_long_flow_batches(batch=3, interval_ns=NS_PER_S, batches=1,
                          flow_bytes=LONG_FLOW_BYTES):
    """Batches of saturating flows to one receiver, one batch per interval."""
    flows = []
    fid = 0
    for b in range(batches):
        for i in range(batch):
            src = SPREAD_SENDERS[fid % len(SPREAD_SENDERS)]
            flows.append(FlowSpec(fid, src, FANIN_RECEIVER, flow_bytes,
                                  b * interval_ns, burst=False))
            fid += 1
    return _sorted(flows), []


# -- web-search workload -----------------------------------------------------

def load_size_cdf(path=None):
    """Parse a step CDF of flow sizes: lines `size_bytes cum_prob`, both
    strictly increasing, final probability 1.0."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data",
                            "websearch_sizes.cdf")
    if not isinstance(path, str):   # an int would open a file descriptor
        raise ConfigError("scenario.cdf_path",
                          f"must be a file path, got {path!r}")
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("scenario.cdf_path", str(exc)) from None
    sizes, probs = [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            size, prob = line.split()
            size, prob = int(size), float(prob)
        except ValueError:
            raise ConfigError("scenario.cdf_path",
                              f"line {lineno}: expected 'size_bytes "
                              f"cum_probability', got {line!r}") from None
        if (size < 1 or not 0 < prob <= 1
                or sizes and (size <= sizes[-1] or prob <= probs[-1])):
            raise ConfigError("scenario.cdf_path", f"line {lineno}: sizes "
                              "must be >= 1 and probabilities in (0, 1], "
                              "both strictly increasing")
        sizes.append(size)
        probs.append(prob)
    if not sizes or abs(probs[-1] - 1.0) > 1e-9:
        raise ConfigError("scenario.cdf_path", "the CDF must end at "
                          "cumulative probability 1.0")
    return sizes, probs


def sample_size(cdf, rng):
    """A size drawn from ``cdf``.  The largest size also takes the draws
    above a final probability that falls short of 1.0 by rounding."""
    sizes, probs = cdf
    return sizes[bisect.bisect_left(probs, rng.random(), 0, len(probs) - 1)]


def cdf_mean(cdf):
    sizes, probs = cdf
    mean = sizes[0] * probs[0]
    for i in range(1, len(sizes)):
        mean += sizes[i] * (probs[i] - probs[i - 1])
    return mean


def gen_websearch(load, duration_ns, rng, link_rate_bps=1_000_000_000,
                  query_bytes=100_000, query_fraction=0.5, cdf=None,
                  master=FANIN_RECEIVER):
    """Poisson query fan-ins plus Poisson one-to-one background flows, both
    converging on the master's access link, scaled so the offered load on
    that bottleneck equals `load`.

    Every query is an all-to-one burst from the 11 other hosts totaling
    `query_bytes`, split evenly with the remainder on the first responder.
    Background flow sizes come from the bundled (approximate) step CDF.
    """
    for name, value in (("load", load), ("query_fraction", query_fraction)):
        if not _is_number(value) or not 0 < value < 1:
            raise ConfigError(f"scenario.{name}",
                              f"must be a number in (0,1), got {value!r}")
    _check_hosts("master", [master])
    cdf = cdf or load_size_cdf()
    responders = [h for h in HOSTS if h != master]
    if query_bytes < len(responders):
        raise ConfigError("scenario.query_bytes",
                          f"must be >= {len(responders)} (one byte per "
                          f"responder), got {query_bytes!r}")

    target_bytes = load * (link_rate_bps / 8) * (duration_ns / NS_PER_S)
    query_rate = query_fraction * target_bytes / query_bytes / duration_ns
    bg_rate = (1 - query_fraction) * target_bytes / cdf_mean(cdf) / duration_ns

    per_slave, remainder = divmod(query_bytes, len(responders))
    sizes = [per_slave + remainder] + [per_slave] * (len(responders) - 1)

    flows = []
    queries = []
    t = 0.0
    while True:
        t += rng.expovariate(query_rate)
        if t >= duration_ns:
            break
        issue = int(t)
        qid = len(queries)
        fid = len(flows)
        # positional arguments: a keyword FlowSpec call costs half as much again
        flows += map(FlowSpec, range(fid, fid + len(sizes)), responders,
                     repeat(master), sizes, repeat(issue), repeat(qid))
        queries.append(QuerySpec(qid, issue))

    fid = len(flows)
    t = 0.0
    while True:
        t += rng.expovariate(bg_rate)
        if t >= duration_ns:
            break
        src = responders[rng.randrange(len(responders))]
        flows.append(FlowSpec(fid, src, master, sample_size(cdf, rng), int(t)))
        fid += 1

    return _sorted(flows), queries


# -- dispatch ----------------------------------------------------------------

GENERATORS = {
    "sync_fanin": gen_sync_fanin,
    "async_fanin": gen_async_fanin,
    "one_background": gen_one_background,
    "background_same_hop": gen_background_same_hop,
    "background_prev_hop": gen_background_prev_hop,
    "incast": gen_incast,
    "websearch": gen_websearch,
    "long_flow_batches": gen_long_flow_batches,
}


def _params(gen):
    """``{name: required}`` over a generator's parameters: what a scenario
    may set, and whether it must, as having no default."""
    names = gen.__code__.co_varnames[:gen.__code__.co_argcount]
    required = len(names) - len(gen.__defaults__ or ())
    return {name: i < required for i, name in enumerate(names)}


_PARAMS = {kind: _params(gen) for kind, gen in GENERATORS.items()}

# every integer scenario field and its minimum, whichever generator takes it
_INTS = {"n": 1, "fanin_count": 1, "background_count": 1, "batch": 1,
         "batches": 1, "response_bytes": 1, "background_bytes": 1,
         "total_bytes": 1, "flow_bytes": 1, "query_bytes": 1,
         "start_ns": 0, "delay_ns": 0, "jitter_ns": 0, "window_ns": 0,
         "interval_ns": 0, "duration_ns": 1}

# generator arguments the simulator supplies, never the config
_RESERVED = ("rng", "link_rate_bps", "cdf")


def build_schedule(scenario: dict, rng, link_rate_bps):
    params = dict(scenario)
    kind = params.pop("kind", None)
    gen = GENERATORS.get(kind) if isinstance(kind, str) else None
    if gen is None:
        raise ConfigError("scenario.kind", f"unknown scenario {kind!r}")
    for name in _RESERVED:
        if name in params:
            raise ConfigError(f"scenario.{name}",
                              "set by the simulator, not by the config")
    for name, minimum in _INTS.items():
        if name in params:
            check_int(f"scenario.{name}", params[name], minimum)
    signature = _PARAMS[kind]
    if "cdf" in signature and "cdf_path" in params:
        params["cdf"] = load_size_cdf(params.pop("cdf_path"))
    for name, value in (("rng", rng), ("link_rate_bps", link_rate_bps)):
        if name in signature:
            params[name] = value
    for name in params:
        if name not in signature:
            raise ConfigError(f"scenario.{name}", f"not a parameter of {kind}")
    for name, required in signature.items():
        if required and name not in params:
            raise ConfigError(f"scenario.{name}", f"required by {kind}")
    return gen(**params)
