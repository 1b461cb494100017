"""Tests for unit conversions and validation helpers."""

import pytest

from repro.utils import (
    GBPS,
    KB,
    MB,
    MBPS,
    MSEC,
    USEC,
    bytes_to_bits,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    transmission_delay,
)


class TestUnits:
    def test_constants(self):
        assert KB == 1000
        assert MB == 1_000_000
        assert MBPS == 1e6
        assert GBPS == 1e9
        assert USEC == pytest.approx(1e-6)
        assert MSEC == pytest.approx(1e-3)

    def test_bytes_to_bits(self):
        assert bytes_to_bits(1500) == 12_000

    def test_transmission_delay(self):
        assert transmission_delay(1500, 1 * GBPS) == pytest.approx(12e-6)
        assert transmission_delay(1500, 10 * GBPS) == pytest.approx(1.2e-6)

    def test_transmission_delay_invalid_capacity(self):
        with pytest.raises(ValueError):
            transmission_delay(1500, 0)


class TestValidation:
    def test_check_positive_passes_through(self):
        assert check_positive("x", 5) == 5

    def test_check_positive_rejects_zero_and_negative(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", -1)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ValueError, match="non-negative"):
            check_non_negative("x", -0.001)

    def test_check_in_range(self):
        assert check_in_range("x", 5, 0, 10) == 5
        assert check_in_range("x", 0, 0, 10) == 0  # inclusive bounds
        assert check_in_range("x", 10, 0, 10) == 10
        with pytest.raises(ValueError):
            check_in_range("x", 11, 0, 10)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", 1.5)
        with pytest.raises(ValueError):
            check_probability("p", -0.1)
