"""Flow-schedule generators for the fan-in, incast, and workload scenarios.

All generators are pure functions of their parameters and the run's seeded
generator, so a (config, seed) pair always yields the same schedule.  The
12-host preset fixes the roles: h10 is the fan-in receiver / query master,
h11 and h12 absorb background flows, and the remaining hosts send.
"""

import bisect
from dataclasses import dataclass, field
from importlib import resources

from .topology import HOSTS
from .units import NS_PER_S


class InvalidParam(Exception):
    """A scenario parameter is out of its documented range."""


FANIN_RECEIVER = "h10"
FANIN_SENDERS = [f"h{i}" for i in range(1, 10)]
# rack-interleaved order so small sender counts still span several racks
SPREAD_SENDERS = ["h1", "h4", "h7", "h2", "h5", "h8", "h3", "h6", "h9"]
BACKGROUND_SINKS = ["h11", "h12"]

LONG_FLOW_BYTES = 1_000_000_000   # finite stand-in for "unbounded"


@dataclass
class FlowSpec:
    flow_id: int
    src: str
    dst: str
    size_bytes: int
    start_ns: int
    query_id: int = None
    burst: bool = True       # False for long-lived background flows;
                             # only burst flows carry phase annotations


@dataclass
class QuerySpec:
    query_id: int
    issue_ns: int
    flow_ids: list = field(default_factory=list)


def validate_schedule(flows):
    seen = set()
    last_start = 0
    for f in flows:
        if f.src not in HOSTS or f.dst not in HOSTS:
            raise InvalidParam(f"flow {f.flow_id}: {f.src} -> {f.dst} "
                               "is not between preset hosts h1..h12")
        if f.src == f.dst:
            raise InvalidParam(f"flow {f.flow_id}: src == dst ({f.src})")
        if f.size_bytes <= 0:
            raise InvalidParam(f"flow {f.flow_id}: non-positive size")
        if f.start_ns < 0:
            raise InvalidParam(f"flow {f.flow_id}: negative start")
        if f.flow_id in seen:
            raise InvalidParam(f"duplicate flow id {f.flow_id}")
        seen.add(f.flow_id)
        if f.start_ns < last_start:
            raise InvalidParam("schedule not sorted by start time")
        last_start = f.start_ns
    return flows


def _check_hosts(name, hosts):
    for host in hosts:
        if host not in HOSTS:
            raise InvalidParam(f"scenario.{name}: no host {host!r} in the "
                               "preset; hosts are h1..h12")


def _sorted(flows):
    flows.sort(key=lambda f: (f.start_ns, f.flow_id))
    return validate_schedule(flows)


# -- micro-burst scenarios ---------------------------------------------------

def gen_sync_fanin(n, response_bytes=1_000_000, start_ns=0, jitter_ns=0,
                   rng=None, receiver=FANIN_RECEIVER, senders=None):
    """n concurrent flows to one receiver, optionally with a small uniform
    start jitter (real 'simultaneous' starts carry scheduler jitter)."""
    senders = senders or FANIN_SENDERS
    _check_hosts("receiver", [receiver])
    _check_hosts("senders", senders)
    flows = []
    for i in range(n):
        t = start_ns
        if jitter_ns:
            t += rng.randrange(jitter_ns)
        flows.append(FlowSpec(i, senders[i % len(senders)], receiver,
                              response_bytes, t))
    return _sorted(flows), []


def gen_async_fanin(n, window_ns=2_000_000, response_bytes=1_000_000,
                    start_ns=0, rng=None):
    """n flows starting uniformly at random inside a window."""
    flows = []
    for i in range(n):
        offset = rng.randrange(window_ns) if window_ns else 0
        flows.append(FlowSpec(i, FANIN_SENDERS[i % len(FANIN_SENDERS)],
                              FANIN_RECEIVER, response_bytes, start_ns + offset))
    return _sorted(flows), []


def gen_one_background(fanin_count=8, response_bytes=1_000_000,
                       delay_ns=500_000_000, background_bytes=LONG_FLOW_BYTES,
                       jitter_ns=0, rng=None):
    """One long-lived flow first, then a fan-in burst at the same bottleneck."""
    flows = [FlowSpec(0, "h9", "h11", background_bytes, 0, burst=False)]
    senders = [f"h{i}" for i in range(1, 9)]
    for i in range(fanin_count):
        t = delay_ns + (rng.randrange(jitter_ns) if jitter_ns else 0)
        flows.append(FlowSpec(i + 1, senders[i % len(senders)],
                              FANIN_RECEIVER, response_bytes, t))
    return _sorted(flows), []


def gen_background_same_hop(background_count=3, fanin_count=12,
                            response_bytes=1_000_000, delay_ns=500_000_000,
                            background_bytes=LONG_FLOW_BYTES,
                            jitter_ns=0, rng=None):
    """Background flows already queueing at the fan-in port when the burst
    starts; fan-in senders exclude the background hosts."""
    bg_srcs = ["h1", "h4", "h7"]
    flows = []
    for i in range(background_count):
        flows.append(FlowSpec(i, bg_srcs[i % 3],
                              BACKGROUND_SINKS[i % 2], background_bytes, 0,
                              burst=False))
    senders = ["h2", "h3", "h5", "h6", "h8", "h9"]
    for i in range(fanin_count):
        t = delay_ns + (rng.randrange(jitter_ns) if jitter_ns else 0)
        flows.append(FlowSpec(background_count + i, senders[i % len(senders)],
                              FANIN_RECEIVER, response_bytes, t))
    return _sorted(flows), []


def gen_background_prev_hop(background_count=3, fanin_count=6,
                            response_bytes=1_000_000, delay_ns=500_000_000,
                            background_bytes=LONG_FLOW_BYTES,
                            jitter_ns=0, rng=None):
    """Background flows congest their rack uplink; the fan-in burst then
    moves the congestion point downstream and the rack's built-up queue
    drains into it (the hidden buffer)."""
    bg_srcs = ["h7", "h8", "h9"]
    flows = []
    for i in range(background_count):
        flows.append(FlowSpec(i, bg_srcs[i % 3],
                              BACKGROUND_SINKS[i % 2], background_bytes, 0,
                              burst=False))
    senders = [f"h{i}" for i in range(1, 7)]
    for i in range(fanin_count):
        t = delay_ns + (rng.randrange(jitter_ns) if jitter_ns else 0)
        flows.append(FlowSpec(background_count + i, senders[i % len(senders)],
                              FANIN_RECEIVER, response_bytes, t))
    return _sorted(flows), []


# -- incast microbenchmarks --------------------------------------------------

def gen_incast(n, mode="fixed_response", response_bytes=64_000,
               total_bytes=1_024_000, start_ns=0):
    """Synchronized query responses: fixed per-slave size, or a fixed total
    split evenly (integer floor, remainder on the first flow)."""
    if mode not in ("fixed_response", "fixed_total"):
        raise InvalidParam(f"scenario.mode: unknown incast mode {mode!r}")
    if mode == "fixed_total":
        if total_bytes < n:   # every flow needs at least one byte
            raise InvalidParam(f"scenario.total_bytes: must be >= n ({n}), "
                               f"got {total_bytes!r}")
        base = total_bytes // n
        sizes = [base + total_bytes % n] + [base] * (n - 1)
    else:
        sizes = [response_bytes] * n
    flows = [FlowSpec(i, FANIN_SENDERS[i % len(FANIN_SENDERS)], FANIN_RECEIVER,
                      sizes[i], start_ns, query_id=0)
             for i in range(n)]
    query = QuerySpec(0, start_ns, [f.flow_id for f in flows])
    return _sorted(flows), [query]


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
        text = (resources.files("microburst") / "data" /
                "websearch_sizes.cdf").read_text()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidParam(f"scenario.cdf_path: {exc}") from None
    sizes, probs = [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            size, prob = line.split()
            size, prob = int(size), float(prob)
        except ValueError:
            raise InvalidParam(f"scenario.cdf_path: line {lineno}: expected "
                               f"'size_bytes cum_probability', got {line!r}"
                               ) from None
        if (size < 1 or not 0 < prob <= 1
                or sizes and (size <= sizes[-1] or prob <= probs[-1])):
            raise InvalidParam(f"scenario.cdf_path: line {lineno}: sizes must "
                               "be >= 1 and probabilities in (0, 1], both "
                               "strictly increasing")
        sizes.append(size)
        probs.append(prob)
    if not sizes or abs(probs[-1] - 1.0) > 1e-9:
        raise InvalidParam("scenario.cdf_path: the CDF must end at "
                           "cumulative probability 1.0")
    return sizes, probs


def sample_size(cdf, rng):
    sizes, probs = cdf
    return sizes[bisect.bisect_left(probs, rng.random())]


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
    if not 0 < load < 1:
        raise InvalidParam(f"scenario.load: must be in (0,1), got {load}")
    if not 0 < query_fraction < 1:
        raise InvalidParam("scenario.query_fraction: must be in (0,1), "
                           f"got {query_fraction}")
    _check_hosts("master", [master])
    cdf = cdf or load_size_cdf()
    responders = [h for h in HOSTS if h != master]

    target_bytes = load * (link_rate_bps / 8) * (duration_ns / NS_PER_S)
    query_rate = query_fraction * target_bytes / query_bytes / duration_ns
    bg_rate = (1 - query_fraction) * target_bytes / cdf_mean(cdf) / duration_ns

    per_slave = query_bytes // len(responders)
    remainder = query_bytes - per_slave * len(responders)

    flows = []
    queries = []
    fid = 0
    t = 0.0
    while True:
        t += rng.expovariate(query_rate)
        if t >= duration_ns:
            break
        issue = int(t)
        q = QuerySpec(len(queries), issue)
        for j, slave in enumerate(responders):
            size = per_slave + (remainder if j == 0 else 0)
            flows.append(FlowSpec(fid, slave, master, size, issue,
                                  query_id=q.query_id))
            q.flow_ids.append(fid)
            fid += 1
        queries.append(q)

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

_NEEDS_RNG = {"sync_fanin", "async_fanin", "websearch", "one_background",
              "background_same_hop", "background_prev_hop"}

# every integer scenario field and its minimum, whichever generator takes it
_INTS = {"n": 1, "fanin_count": 1, "background_count": 1, "batch": 1,
         "batches": 1, "response_bytes": 1, "background_bytes": 1,
         "total_bytes": 1, "flow_bytes": 1, "query_bytes": 1,
         "start_ns": 0, "delay_ns": 0, "jitter_ns": 0, "window_ns": 0,
         "interval_ns": 0, "duration_ns": 1}


def build_schedule(scenario: dict, rng, link_rate_bps):
    params = dict(scenario)
    kind = params.pop("kind", None)
    gen = GENERATORS.get(kind)
    if gen is None:
        raise InvalidParam(f"scenario.kind: unknown scenario {kind!r}")
    for name, minimum in _INTS.items():
        value = params.get(name, minimum)
        if (not isinstance(value, int) or isinstance(value, bool)
                or value < minimum):
            raise InvalidParam(f"scenario.{name}: must be an integer >= "
                               f"{minimum}, got {value!r}")
    if kind in _NEEDS_RNG:
        params["rng"] = rng
    if kind == "websearch":
        params["link_rate_bps"] = link_rate_bps
        if "cdf_path" in params:
            params["cdf"] = load_size_cdf(params.pop("cdf_path"))
    try:
        return gen(**params)
    except TypeError as exc:
        raise InvalidParam(f"scenario: bad parameters for {kind}: {exc}") from None
