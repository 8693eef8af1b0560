import random

import pytest
from hypothesis import example, given, settings, strategies as st

from microburst.marking import (InvalidRate, RandomSlopeEcn, SlopeEcn,
                                ThresholdEcn, mark_probability_from_arrival,
                                ri_terms)
from microburst.units import GBPS, rate_time_to_bytes

R = GBPS
MSS = 1500


def oracle_expected_marks(arrivals, rate_bps):
    """Independent oracle: sum of per-packet arrival-form probabilities.

    Computed from first principles (floats, no accumulator): prob of packet
    i is clamp((P - R*I)/(R*I), 0, 1) with I the gap since packet i-1; the
    first packet contributes 0.
    """
    expected = 0.0
    prev = None
    for size, t in arrivals:
        if prev is not None:
            ri = rate_bps * (t - prev) / 8e9
            if ri > 0:
                expected += min(max((size - ri) / ri, 0.0), 1.0)
            else:
                expected += 1.0
        prev = t
    return expected


def constant_stream(rate_multiple, n=10_000, size=MSS):
    gap = int(round(size * 8e9 / (rate_multiple * R)))
    return [(size, i * gap) for i in range(n)]


def run_policy(policy, arrivals):
    return sum(bool(policy.decide(0, size, t)) for size, t in arrivals)


# -- closed-form probability -------------------------------------------------

def test_arrival_probability_branches():
    # R*I = 1500 at I = 12us -> boundary, prob 0
    assert mark_probability_from_arrival(1500, 12_000, R) == 0.0
    # R*I = 1000 at I = 8us -> (1500-1000)/1000
    assert mark_probability_from_arrival(1500, 8_000, R) == 0.5
    # R*I = 700 at I = 5.6us -> saturated
    assert mark_probability_from_arrival(1500, 5_600, R) == 1.0


def test_arrival_probability_invalid_rate():
    with pytest.raises(InvalidRate):
        mark_probability_from_arrival(1500, 12_000, 0)


# -- accumulator scheme -------------------------------------------------------

def test_no_marks_at_line_rate():
    policy = SlopeEcn(R)
    marks = run_policy(policy, constant_stream(1.0))
    assert marks == 0
    assert policy.accumulator == 0


def test_no_marks_below_line_rate():
    assert run_policy(SlopeEcn(R), constant_stream(0.8)) == 0


@pytest.mark.parametrize("mult,expected", [
    (1.0, 0.0), (1.25, 0.25), (1.5, 0.5), (1.75, 0.75), (2.0, 1.0),
])
def test_constant_rate_fraction_matches_probability(mult, expected):
    n = 10_000
    arrivals = constant_stream(mult, n)
    marks = run_policy(SlopeEcn(R), arrivals)
    assert abs(marks / n - expected) <= 0.05
    # and the oracle agrees with the closed-form expectation
    assert abs(oracle_expected_marks(arrivals, R) / n - expected) <= 0.01


def test_saturation_all_but_bounded_prefix():
    n = 2_000
    marks = run_policy(SlopeEcn(R), constant_stream(2.5, n))
    assert marks >= n - 5


def test_simultaneous_arrival_marks():
    policy = SlopeEcn(R)
    assert policy.decide(0, MSS, 1_000) is False
    assert policy.decide(0, MSS, 1_000) is True


def test_idle_period_does_not_bank_credit():
    policy = SlopeEcn(R)
    arrivals = constant_stream(0.5, 100)          # long slow spell
    assert run_policy(policy, arrivals) == 0
    assert policy.accumulator == 0                 # clamped, no debt
    # a following 2x burst marks promptly
    t0 = arrivals[-1][1] + 1_000_000
    burst = [(MSS, t0 + i * 6_000) for i in range(10)]
    assert run_policy(policy, burst) >= 8


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.3, max_value=2.8))
def test_property_constant_rate_equivalence(mult):
    n = 4_000
    arrivals = constant_stream(mult, n)
    marks = run_policy(SlopeEcn(R), arrivals)
    expected = oracle_expected_marks(arrivals, R)
    assert abs(marks - expected) / n <= 0.05


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=1.4, max_value=1.9))
def test_property_jittered_rate_equivalence(seed, mult):
    # jitter bounded so the instantaneous rate never dips below line rate:
    # below R the accumulator drains by design (the queue is not growing),
    # while the memoryless per-packet expectation keeps its history
    rng = random.Random(seed)
    n = 4_000
    gap = MSS * 8e9 / (mult * R)
    t = 0
    arrivals = []
    for _ in range(n):
        t += int(gap * rng.uniform(0.75, 1.25))
        arrivals.append((MSS, t))
    marks = run_policy(SlopeEcn(R), arrivals)
    expected = oracle_expected_marks(arrivals, R)
    assert abs(marks - expected) / n <= 0.05


def test_random_engine_matches_oracle():
    rng = random.Random(7)
    n = 10_000
    arrivals = constant_stream(1.5, n)
    marks = run_policy(RandomSlopeEcn(R, rng), arrivals)
    assert abs(marks / n - 0.5) <= 0.05


# -- policy composition --------------------------------------------------------

def test_threshold_marks_iff_queue_above():
    policy = ThresholdEcn(32_000)
    assert policy.decide(40_000, MSS, 0) is True
    assert policy.decide(32_000, MSS, 0) is False
    assert policy.decide(10_000, MSS, 0) is False


def test_hybrid_marks_above_threshold():
    policy = SlopeEcn(R, 32_000)
    assert policy.decide(40_000, MSS, 0) is True


def test_hybrid_defers_to_slope_below_threshold():
    policy = SlopeEcn(R, 32_000)
    marks = sum(policy.decide(10_000, s, t) for s, t in constant_stream(1.0, 200))
    assert marks == 0


def test_hybrid_threshold_mark_resets_accumulator():
    policy = SlopeEcn(R, 32_000)
    for size, t in constant_stream(1.9, 50):
        policy.decide(10_000, size, t)
    assert policy.accumulator > 0 or policy.last_arrival_ns is not None
    policy.decide(40_000, MSS, 10**9)
    assert policy.accumulator == 0


# -- the hybrid as one policy matches the two nested ones it replaced ----------

class NestedSlopeEcn:
    """Reference: the slope accumulator on its own, with the reset the
    hybrid's threshold branch applies to it."""

    def __init__(self, rate_bps):
        self.rate_bps = rate_bps
        self.accumulator = 0
        self.last_arrival_ns = None

    def reset_on_external_mark(self, now_ns):
        self.last_arrival_ns = now_ns
        self.accumulator = 0

    def decide(self, queue_bytes, pkt_bytes, now_ns):
        last = self.last_arrival_ns
        self.last_arrival_ns = now_ns
        if last is None:
            return False
        ri = rate_time_to_bytes(self.rate_bps, now_ns - last)
        if ri == 0:
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


class NestedSlopeThresholdEcn:
    """Reference hybrid: mark-all above the threshold (resetting the inner
    slope policy), else defer to the inner slope policy."""

    def __init__(self, threshold_bytes, slope):
        self.threshold_bytes = threshold_bytes
        self.slope = slope

    def decide(self, queue_bytes, pkt_bytes, now_ns):
        if queue_bytes > self.threshold_bytes:
            self.slope.reset_on_external_mark(now_ns)
            return True
        return self.slope.decide(queue_bytes, pkt_bytes, now_ns)


# (queue bytes, packet size, gap since the previous arrival); gap 0 gives
# same-nanosecond arrivals, queues straddle the 32 KB threshold
_ARRIVALS = st.lists(
    st.tuples(st.integers(0, 64_000), st.sampled_from([1, 64, 999, 1500, 9000]),
              st.one_of(st.just(0), st.integers(0, 30_000))),
    max_size=300)


# any rate, and the line rates; at 8 Gbps (8e9 divides R) ri_add is 0
_RATES = st.one_of(
    st.integers(1, 10**12),
    st.sampled_from([n * GBPS for n in (1, 8, 10, 16, 25, 40, 100)]))


@settings(max_examples=1_000, deadline=None)
@given(_RATES, st.integers(0, 10**13))
@example(8 * GBPS, 10**13 - 1)
def test_reduced_ri_is_rate_time_to_bytes(rate, interval):
    a, b, c = ri_terms(rate)
    if rate == 8 * GBPS:
        assert (a, b, c) == (1, 0, 1)
    assert (a * interval + b) // c == rate_time_to_bytes(rate, interval)


@settings(max_examples=400, deadline=None)
@given(_RATES, st.one_of(st.none(), st.sampled_from([0, 1500, 32_000])),
       _ARRIVALS)
@example(8 * GBPS, None, [(0, 1500, 0)] + [(0, 1500, 1_000)] * 20)
@example(8 * GBPS, 1500, [(0, 1500, 0)] + [(3_000, 1500, 900)] * 10
         + [(0, 1500, 1_000)] * 10)
def test_merged_hybrid_matches_nested_policies(rate, threshold, arrivals):
    merged = SlopeEcn(rate, threshold)
    slope = NestedSlopeEcn(rate)
    nested = slope if threshold is None else NestedSlopeThresholdEcn(
        threshold, slope)
    now = 0
    for queue, size, gap in arrivals:
        now += gap
        assert (merged.decide(queue, size, now)
                is nested.decide(queue, size, now))
        assert merged.accumulator == slope.accumulator
        assert merged.last_arrival_ns == slope.last_arrival_ns
