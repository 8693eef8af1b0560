"""Unit conventions and exact integer arithmetic shared by the whole simulator.

Time is integer nanoseconds, sizes are integer bytes, rates are integer
bits per second.  Keeping everything integral makes runs bit-for-bit
reproducible regardless of event count.
"""

NS_PER_S = 1_000_000_000

GBPS = 1_000_000_000


def serialization_ns(size_bytes: int, rate_bps: int) -> int:
    """Wire time of a packet, rounded to the nearest nanosecond."""
    return (size_bytes * 8 * NS_PER_S + rate_bps // 2) // rate_bps


def rate_time_to_bytes(rate_bps: int, dt_ns: int) -> int:
    """Bytes a link of `rate_bps` carries in `dt_ns`, rounded to nearest.

    This is the R*I product of the slope-marking scheme; round-to-nearest
    integer bytes keeps the accumulator arithmetic exact.
    """
    return (rate_bps * dt_ns + 4 * NS_PER_S) // (8 * NS_PER_S)


def quantize_down(value: int, step: int) -> int:
    """Floor to a multiple of `step` (telemetry register granularity)."""
    return value - value % step
