"""Shared test harness: a minimal one-link network for transport tests,
and the hypothesis profile every test runs under."""

import pytest
from hypothesis import settings

from microburst.engine import Engine
from microburst.netmodel import Port
from microburst.packets import DATA
from microburst.transport import Receiver, Sender, TransportParams

# the same examples on every run, so a failing one reproduces on rerun
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


class OneLink:
    """Sender and receiver joined by one forward and one reverse port."""

    def __init__(self, rate_bps=1_000_000_000, algo="newreno",
                 total_bytes=1_000_000, ecn_capable=True, params=None,
                 pacing=False):
        self.engine = Engine()
        self.fwd = Port("fwd", rate_bps, None, None, self.engine,
                        deliver_fn=self._deliver)
        self.rev = Port("rev", rate_bps, None, None, self.engine,
                        deliver_fn=self._deliver)
        self.params = params or TransportParams()
        self.sender = Sender(0, algo, total_bytes, (self.fwd,), self.engine,
                             self.params, ecn_capable=ecn_capable,
                             pacing=pacing)
        self.receiver = Receiver(0, (self.rev,), dctcp_echo=(algo == "dctcp"))

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


@pytest.fixture
def leaky_root_port(monkeypatch):
    """Make port root->t4 count one byte more in than it admits."""
    enqueue = Port.enqueue

    def miscounting_enqueue(self, pkt, now):
        enqueue(self, pkt, now)
        if self.port_id == "root->t4":
            self.bytes_in += 1

    monkeypatch.setattr(Port, "enqueue", miscounting_enqueue)
