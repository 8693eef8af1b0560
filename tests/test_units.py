from microburst.units import (GBPS, quantize_down, rate_time_to_bytes,
                              serialization_ns)


def test_mss_serialization_at_gigabit():
    assert serialization_ns(1500, GBPS) == 12_000


def test_ack_serialization_at_gigabit():
    assert serialization_ns(64, GBPS) == 512


def test_rate_time_product_exact():
    # 1 Gbps for 12 us carries exactly one 1500B packet
    assert rate_time_to_bytes(GBPS, 12_000) == 1500
    assert rate_time_to_bytes(GBPS, 800) == 100


def test_rate_time_product_rounds_to_nearest():
    # 1 Gbps * 3 ns = 0.375 bytes -> 0; * 5 ns = 0.625 -> 1
    assert rate_time_to_bytes(GBPS, 3) == 0
    assert rate_time_to_bytes(GBPS, 5) == 1


def test_quantize_down():
    assert quantize_down(1234, 800) == 800
    assert quantize_down(1001, 8) == 1000
    assert quantize_down(800, 800) == 800
