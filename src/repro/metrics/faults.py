"""Fault-injection observability.

:class:`FaultCounters` rolls up one run's degradation story: what the
:class:`~repro.faults.injector.FaultInjector` actually fired, what it cost
the data plane (injected drops, link-outage losses), and how the protocol
degraded and recovered (DCTCP fallback episodes, time in fallback, recovery
latency, failed/aborted arbitration requests).  The harness attaches one to
:class:`~repro.harness.experiment.ExperimentResult` whenever a fault
schedule ran; the runner flattens it into the JSONL ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.control_plane import PaseControlPlane
    from repro.faults.injector import FaultInjector
    from repro.transports.flow import Flow


@dataclass
class FaultCounters:
    """Snapshot of one run's fault injections and degradation response."""

    #: Fault activations by kind (e.g. ``{"link-down": 2, "link-up": 2}``).
    injected: Dict[str, int] = field(default_factory=dict)
    #: Data packets eaten by injected loss models (Bernoulli / Gilbert–Elliott).
    injected_loss_drops: int = 0
    #: Packets lost to link outages (flushed, corrupted, or offered while down).
    link_down_drops: int = 0
    # -- PASE degradation story ----------------------------------------
    #: DCTCP-fallback entries summed over all flows.
    fallback_episodes: int = 0
    #: Flows that fell back at least once.
    flows_in_fallback: int = 0
    #: Total seconds spent in fallback, summed over flows.
    fallback_time: float = 0.0
    #: Seconds from fallback entry to the next arbitration response, one
    #: entry per recovered episode (episodes open at flow completion count
    #: toward ``fallback_time`` only).
    recovery_latencies: List[float] = field(default_factory=list)
    # -- control-plane failure accounting -------------------------------
    #: Requests refused outright (local arbitrator / whole plane down).
    requests_failed: int = 0
    #: Half-path walks that died at a crashed arbitrator mid-chain.
    consults_aborted: int = 0
    #: Explicit control messages eaten by a degraded control channel.
    control_messages_lost: int = 0
    #: crash() invocations (one per ArbitratorCrash activation).
    arbitrator_crashes: int = 0

    @classmethod
    def collect(
        cls,
        injector: "FaultInjector",
        flows: Iterable["Flow"],
        control_plane: Optional["PaseControlPlane"] = None,
    ) -> "FaultCounters":
        counters = cls(
            injected=dict(injector.injected),
            injected_loss_drops=injector.injected_loss_drops,
            link_down_drops=injector.link_down_drops,
        )
        for flow in flows:
            if flow.fallback_episodes:
                counters.fallback_episodes += flow.fallback_episodes
                counters.flows_in_fallback += 1
                counters.fallback_time += flow.fallback_time
                counters.recovery_latencies.extend(flow.recovery_latencies)
        if control_plane is not None:
            counters.requests_failed = control_plane.requests_failed
            counters.consults_aborted = control_plane.consults_aborted
            counters.control_messages_lost = control_plane.control_messages_lost
            counters.arbitrator_crashes = control_plane.arbitrator_crashes
        return counters

    @property
    def mean_recovery_latency(self) -> Optional[float]:
        if not self.recovery_latencies:
            return None
        return sum(self.recovery_latencies) / len(self.recovery_latencies)

    @property
    def max_recovery_latency(self) -> Optional[float]:
        if not self.recovery_latencies:
            return None
        return max(self.recovery_latencies)

    def to_json_dict(self) -> Dict[str, Any]:
        """Flatten for the runner's JSONL ledger (no per-episode list)."""
        return {
            "injected": dict(self.injected),
            "injected_loss_drops": self.injected_loss_drops,
            "link_down_drops": self.link_down_drops,
            "fallback_episodes": self.fallback_episodes,
            "flows_in_fallback": self.flows_in_fallback,
            "fallback_time_s": round(self.fallback_time, 9),
            "recoveries": len(self.recovery_latencies),
            "mean_recovery_latency_s": self.mean_recovery_latency,
            "max_recovery_latency_s": self.max_recovery_latency,
            "requests_failed": self.requests_failed,
            "consults_aborted": self.consults_aborted,
            "control_messages_lost": self.control_messages_lost,
            "arbitrator_crashes": self.arbitrator_crashes,
        }
