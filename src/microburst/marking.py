"""Admission-time marking policies for switch output ports.

Two policies are pluggable per port; a port with no policy (``None``, as
on a host NIC, a tail-drop switch or a switch port no data crosses) never
marks:

* ``ThresholdEcn``  -- mark when the instantaneous queue exceeds a threshold.
* ``SlopeEcn``      -- mark in proportion to the queue-growth slope, realized
                       divider-free with a byte accumulator; given a queue
                       threshold, it is the hybrid: slope marking below the
                       threshold, mark-all above.

``RandomSlopeEcn`` is the reference slope marker the accumulator is checked
against.

The slope policy infers the instantaneous arrival rate from each packet's
size P and the inter-arrival gap I: arrival rate P/I against drain rate R
gives a growth slope s = P/I - R and a marking probability

    prob = 0            if s <= 0
    prob = s / R        if 0 < s < R
    prob = 1            if s >= R

equivalently, in per-arrival byte units,

    prob = 0                      if P <= R*I
    prob = (P - R*I) / (R*I)      if R*I < P < 2*R*I
    prob = 1                      if P >= 2*R*I

The deterministic accumulator adds (P - R*I) per packet and marks when the
sum exceeds R*I.  Two details differ from a bare running sum:

* on a mark the threshold amount is subtracted instead of zeroing the sum,
  so the long-run marked fraction converges to the mean per-packet
  probability instead of undershooting it;
* the per-packet increment is capped at R*I (probability mass of one mark),
  so a transient arrival burst above 2x line rate cannot bank unbounded
  marking debt.

R*I is ``units.rate_time_to_bytes``, (R*I + 4e9) // 8e9.  ``SlopeEcn``
reduces that fraction by g = gcd(R, 8e9) and computes (a*I + b) // c per
arrival, with a = R/g, c = 8e9/g and b = 4e9 // g (``ri_terms``); at 1 Gbps
that is (I + 4) // 8, all small integers.  Dropping the remainder
r = 4e9 - b*g (0 <= r < g) is exact: it adds less than 1/c to a fraction
whose numerator is an integer over c, so the floor never moves.
"""

import random
from math import gcd

from .units import NS_PER_S, rate_time_to_bytes


class InvalidRate(Exception):
    """Port rate must be positive."""


# rate -> its ri_terms; every switch port of a run has the same rate, so
# each run's ports share one entry
_RI_TERMS = {}


def ri_terms(rate_bps: int):
    """``(a, b, c)`` with (a*I + b) // c == rate_time_to_bytes(rate_bps, I)
    for every I >= 0, reduced by gcd(rate_bps, 8e9)."""
    terms = _RI_TERMS.get(rate_bps)
    if terms is None:
        g = gcd(rate_bps, 8 * NS_PER_S)
        terms = _RI_TERMS[rate_bps] = (rate_bps // g, 4 * NS_PER_S // g,
                                       8 * NS_PER_S // g)
    return terms


def mark_probability_from_arrival(pkt_bytes: int, interarrival_ns: int,
                                  rate_bps: int) -> float:
    """Per-arrival form of the slope probability, in byte units."""
    if rate_bps <= 0:
        raise InvalidRate(f"rate must be > 0, got {rate_bps}")
    ri = rate_time_to_bytes(rate_bps, interarrival_ns)
    if pkt_bytes <= ri:
        return 0.0
    if pkt_bytes >= 2 * ri:
        return 1.0
    return (pkt_bytes - ri) / ri


class ThresholdEcn:
    """Mark iff the instantaneous queue exceeds the threshold (stateless)."""

    __slots__ = ("threshold_bytes",)

    def __init__(self, threshold_bytes: int):
        self.threshold_bytes = threshold_bytes

    def decide(self, queue_bytes, pkt_bytes, now_ns):
        return queue_bytes > self.threshold_bytes


class SlopeEcn:
    """Deterministic divider-free slope marking (byte accumulator).

    accumulator += P - R*I per arrival, the increment capped at R*I and the
    sum floored at zero so idle periods do not bank negative credit; when
    the accumulator exceeds R*I the current packet is marked and R*I is
    subtracted.  State volume is one signed counter and the last arrival
    time, as a switch pipeline would keep per port.

    Given ``threshold_bytes``, an arrival above it is marked outright; the
    mark zeroes the accumulator and advances the arrival chain.
    """

    __slots__ = ("rate_bps", "ri_mul", "ri_add", "ri_div",
                 "threshold_bytes", "accumulator", "last_arrival_ns")

    def __init__(self, rate_bps: int, threshold_bytes=None):
        if rate_bps <= 0:
            raise InvalidRate(f"rate must be > 0, got {rate_bps}")
        self.rate_bps = rate_bps
        self.ri_mul, self.ri_add, self.ri_div = ri_terms(rate_bps)
        self.threshold_bytes = threshold_bytes
        self.accumulator = 0
        self.last_arrival_ns = None

    def decide(self, queue_bytes, pkt_bytes, now_ns):
        last = self.last_arrival_ns
        self.last_arrival_ns = now_ns
        threshold = self.threshold_bytes
        if threshold is not None and queue_bytes > threshold:
            self.accumulator = 0
            return True
        if last is None:
            return False
        ri = (self.ri_mul * (now_ns - last) + self.ri_add) // self.ri_div
        if ri == 0:
            # Two arrivals in the same nanosecond: unbounded rate, mark.
            return True
        inc = pkt_bytes - ri
        if inc > ri:
            inc = ri
        acc = self.accumulator + inc
        if acc < 0:
            acc = 0
        if acc > ri:
            self.accumulator = acc - ri
            return True
        self.accumulator = acc
        return False


class RandomSlopeEcn:
    """Reference slope marker: literal per-packet random draw against the
    arrival-form probability.  Used as the independent cross-check for the
    accumulator scheme; consumes the seeded generator it is given."""

    __slots__ = ("rate_bps", "rng", "last_arrival_ns")

    def __init__(self, rate_bps: int, rng: random.Random):
        if rate_bps <= 0:
            raise InvalidRate(f"rate must be > 0, got {rate_bps}")
        self.rate_bps = rate_bps
        self.rng = rng
        self.last_arrival_ns = None

    def decide(self, queue_bytes, pkt_bytes, now_ns):
        last = self.last_arrival_ns
        self.last_arrival_ns = now_ns
        if last is None:
            return False
        prob = mark_probability_from_arrival(pkt_bytes, now_ns - last, self.rate_bps)
        if prob <= 0.0:
            return False
        if prob >= 1.0:
            return True
        return self.rng.random() < prob
