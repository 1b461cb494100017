"""Unit constants and conversion helpers.

Conventions used throughout the simulator:

* time is measured in **seconds** (floats),
* link capacity is measured in **bits per second**,
* packet and flow sizes are measured in **bytes**.

The constants below let scenario code read like the paper: a 1 Gbps access
link is ``1 * GBPS``, a 198 KB flow is ``198 * KB``, a 300 microsecond RTT is
``300 * USEC``.
"""

from __future__ import annotations

BITS_PER_BYTE = 8

#: One kilobyte, in bytes.  The paper's flow-size intervals ([2 KB, 198 KB],
#: [100 KB, 500 KB]) use decimal kilobytes, as is conventional in the
#: data-center transport literature.
KB = 1000

#: One megabyte, in bytes.
MB = 1000 * KB

#: One megabit per second, in bits per second.
MBPS = 1_000_000

#: One gigabit per second, in bits per second.
GBPS = 1_000_000_000

#: One microsecond, in seconds.
USEC = 1e-6

#: One millisecond, in seconds.
MSEC = 1e-3


def bytes_to_bits(num_bytes: float) -> float:
    """Convert a size in bytes to bits."""
    return num_bytes * BITS_PER_BYTE


def transmission_delay(size_bytes: float, capacity_bps: float) -> float:
    """Time (seconds) to serialize ``size_bytes`` onto a link of
    ``capacity_bps`` bits per second.

    >>> transmission_delay(1500, 1 * GBPS)
    1.2e-05
    """
    if capacity_bps <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_bps}")
    return bytes_to_bits(size_bytes) / capacity_bps

