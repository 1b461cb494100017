"""Shared helpers: unit constants/conversions and argument validation."""

from repro.utils.units import (
    BITS_PER_BYTE,
    GBPS,
    KB,
    MB,
    MBPS,
    USEC,
    MSEC,
    bytes_to_bits,
    transmission_delay,
)
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
    check_probability,
)

__all__ = [
    "BITS_PER_BYTE",
    "GBPS",
    "KB",
    "MB",
    "MBPS",
    "USEC",
    "MSEC",
    "bytes_to_bits",
    "transmission_delay",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_probability",
]
