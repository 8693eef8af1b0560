"""Shared test harness: a minimal one-link network for transport tests, a
drop-injecting port, and the hypothesis profile every test runs under."""

import pytest
from hypothesis import settings

from microburst.config import RunConfig
from microburst.engine import Engine
from microburst.netmodel import Port
from microburst.packets import DATA
from microburst.scenarios import FlowSpec
from microburst.transport import Receiver, Sender

# the same examples on every run, so a failing one reproduces on rerun
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


# the ECN-capable protocol of each host algorithm
_PROTOCOL_OF = {"newreno": "ECN*", "dctcp": "DCTCP"}


class OneLink:
    """Sender and receiver of one flow joined by one forward and one reverse
    port; ``fields`` are RunConfig transport fields, e.g. ``pacing=True``."""

    def __init__(self, rate_bps=1_000_000_000, algo="newreno",
                 total_bytes=1_000_000, **fields):
        self.engine = Engine()
        self.fwd = Port("fwd", rate_bps, None, None, self.engine,
                        deliver_fn=self._deliver)
        self.rev = Port("rev", rate_bps, None, None, self.engine,
                        deliver_fn=self._deliver)
        cfg = RunConfig(seed=1, protocol=_PROTOCOL_OF[algo],
                        scenario={"kind": "incast"}, **fields)
        self.flow = FlowSpec(0, "h1", "h10", total_bytes, 0)
        self.sender = Sender(self.flow, (self.fwd,), self.engine,
                             cfg.validate())
        self.receiver = Receiver(self.flow, (self.rev,),
                                 dctcp_echo=(algo == "dctcp"))

    def _deliver(self, now, pkt):
        if pkt.kind == DATA:
            self.receiver.on_data(pkt, now)
        else:
            self.sender.on_ack(pkt, now)

    def run(self, t_end_ns):
        self.engine.run_until(t_end_ns)


@pytest.fixture
def one_link():
    return OneLink


class LossyPort(Port):
    """A port that drops its arrivals whose 1-based index is in ``drop_at``,
    counting each drop as a full buffer's is counted."""

    __slots__ = ("drop_at", "arrivals")

    def __init__(self, engine, deliver_fn, drop_at):
        super().__init__("lossy", 1_000_000_000, None, None, engine,
                         deliver_fn=deliver_fn)
        self.drop_at = drop_at
        self.arrivals = 0

    def enqueue(self, pkt, now):
        self.arrivals += 1
        if self.arrivals in self.drop_at:
            self.drops += 1
            self.data_drops += pkt.kind == DATA
        else:
            super().enqueue(pkt, now)


@pytest.fixture
def lossy_port():
    return LossyPort


@pytest.fixture
def leaky_root_port(monkeypatch):
    """Make port root->t4 count one byte more in than it admits."""
    enqueue = Port.enqueue

    def miscounting_enqueue(self, pkt, now):
        enqueue(self, pkt, now)
        if self.port_id == "root->t4":
            self.bytes_in += 1

    monkeypatch.setattr(Port, "enqueue", miscounting_enqueue)
