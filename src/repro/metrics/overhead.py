"""Network-side metrics: loss rate and control-plane overhead.

Loss rate (Fig. 4) is counted at egress queues as dropped-data-packets over
offered-data-packets.  Control overhead (Fig. 11b) is the arbitration
message count from :class:`~repro.core.control_plane.PaseControlPlane`,
normalized per second of simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.network import Network


@dataclass
class NetworkCounters:
    """Snapshot of a run's data-plane accounting."""

    data_pkts_offered: int
    data_pkts_dropped: int
    duration: float

    @classmethod
    def from_network(cls, network: Network, duration: float) -> "NetworkCounters":
        return cls(
            data_pkts_offered=network.total_data_offered(),
            data_pkts_dropped=network.total_data_drops(),
            duration=duration,
        )

    @property
    def loss_rate(self) -> float:
        if self.data_pkts_offered == 0:
            return 0.0
        return self.data_pkts_dropped / self.data_pkts_offered


@dataclass
class ControlPlaneCounters:
    """Arbitration overhead accounting (PASE runs only)."""

    messages: int
    messages_by_level: Dict[int, int]
    requests: int
    prunes: int
    duration: float
    #: Arbitration decisions computed per placement level (0 host, 1 ToR,
    #: 2 aggregation) — the processing-load metric early pruning targets.
    processed_by_level: Optional[Dict[int, int]] = None
    #: Fault-injection failure accounting (all zero in clean runs):
    #: requests refused outright, half-path walks dead-ended at a crashed
    #: arbitrator, and control messages eaten by a degraded channel.
    requests_failed: int = 0
    consults_aborted: int = 0
    messages_lost: int = 0

    @property
    def messages_per_sec(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.messages / self.duration


def overhead_reduction(baseline_messages: float, optimized_messages: float) -> float:
    """Percent reduction in control messages (Fig. 11b's metric)."""
    if baseline_messages <= 0:
        return 0.0
    return 100.0 * (baseline_messages - optimized_messages) / baseline_messages
