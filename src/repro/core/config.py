"""PASE configuration.

Defaults follow Table 3 of the paper (8 priority queues, 10 ms RTO for
top-queue flows, 200 ms for the rest, 500-packet switch buffers) plus the
control-plane settings described in §3.1 (bottom-up arbitration with early
pruning propagating the top two queues, and delegation of aggregation–core
capacity to ToR arbitrators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.units import MSEC, USEC
from repro.utils.validation import check_positive


@dataclass
class PaseConfig:
    """All knobs for the PASE framework (control plane + end-host)."""

    # -- in-network prioritization ------------------------------------
    #: Priority queues per switch port (Table 2: commodity gear has 3-10).
    #: The lowest queue is reserved for background traffic (§3.3), so data
    #: flows are arbitrated across ``num_queues - 1`` classes.
    num_queues: int = 8
    #: Per-port buffer (Table 3: qSize = 500 pkts).
    queue_capacity_pkts: int = 500
    #: When True, ``queue_capacity_pkts`` caps the whole port (one shared
    #: buffer carved into classes, as in shared-memory switch ASICs); when
    #: False (default) each priority class has its own capacity, as in the
    #: paper's Linux PRIO-over-RED testbed stack.  The distinction matters:
    #: with a shared buffer, end-to-end arbitration is also what protects
    #: high-priority arrivals from buffer overruns (see Fig. 12a bench).
    shared_queue_capacity: bool = False
    #: DCTCP marking threshold K within each priority class.
    mark_threshold_pkts: int = 65

    # -- end-host transport (Algorithm 2 / Table 3) --------------------
    min_rto_top: float = 10 * MSEC
    min_rto_low: float = 200 * MSEC
    #: Use header-only probes (not data retransmissions) to disambiguate
    #: loss from low-priority queueing delay (§3.2).
    probing_enabled: bool = True

    # -- arbitration (Algorithm 1) --------------------------------------
    #: Scheduling criterion (§3.1.1 — "the FlowSize can be replaced by
    #: deadline or task-id"):
    #:   "size"     — shortest remaining flow first (FCT minimization),
    #:   "deadline" — earliest deadline first (deadline workloads),
    #:   "las"      — least attained service first: size-*unaware* SRPT
    #:                approximation for workloads where flow sizes are not
    #:                known up front,
    #:   "task"     — task-aware FIFO-LM (Baraat-style): tasks in arrival
    #:                order, shortest-remaining within a task.
    #: None (default) means "the scenario's criterion": the protocol
    #: binding resolves it to EDF on deadline scenarios and to "size"
    #: elsewhere; a sender built without a binding ranks by size.
    criterion: Optional[str] = None
    #: Deadline mode only: terminate flows whose deadline is provably
    #: unreachable at NIC line rate, freeing their capacity for flows that
    #: can still make it (PDQ's Early Termination, applied to PASE).
    early_termination: bool = False
    #: How often a source refreshes its arbitration (s).  One network RTT by
    #: default so promotions lag at most an RTT behind flow completions.
    arbitration_interval: float = 300 * USEC

    # -- fault tolerance (§3.1's soft-state argument, exercised by
    # -- repro.faults).  Every sender runs this retry/fallback logic; a
    # -- clean run never misses a reply, so it never triggers. ------------
    #: Consecutive unanswered/refused arbitration requests tolerated before
    #: the sender falls back to pure DCTCP behavior.
    arbitration_max_retries: int = 3

    # -- control-plane optimizations (§3.1.2) ----------------------------
    #: Early pruning: only flows mapped within the top ``pruning_queues``
    #: classes at a lower-level arbitrator propagate upward.  The paper
    #: finds two queues the right balance.  Set to 0 to disable pruning.
    pruning_queues: int = 2
    #: Delegate aggregation-core capacity to ToR arbitrators as virtual
    #: links (§3.1.2 "Delegation").
    delegation_enabled: bool = True
    #: Period between virtual-link capacity rebalances (s).
    delegation_update_interval: float = 1 * MSEC

    # -- end-to-end vs local arbitration (Fig. 12a ablation) -------------
    #: When False, only the source/destination access links are arbitrated
    #: ("local arbitration"); fabric links are ignored.
    end_to_end_arbitration: bool = True

    def __post_init__(self) -> None:
        check_positive("num_queues", self.num_queues)
        check_positive("queue_capacity_pkts", self.queue_capacity_pkts)
        check_positive("mark_threshold_pkts", self.mark_threshold_pkts)
        check_positive("min_rto_top", self.min_rto_top)
        check_positive("min_rto_low", self.min_rto_low)
        check_positive("arbitration_interval", self.arbitration_interval)
        check_positive("delegation_update_interval", self.delegation_update_interval)
        valid_criteria = ("size", "deadline", "las", "task")
        if self.criterion is not None and self.criterion not in valid_criteria:
            raise ValueError(
                f"criterion must be one of {valid_criteria}, got {self.criterion!r}")
        if self.pruning_queues < 0:
            raise ValueError("pruning_queues must be >= 0 (0 disables pruning)")
        if self.num_queues < 2:
            raise ValueError("need >= 2 queues: one is reserved for background")
        if self.arbitration_max_retries < 0:
            raise ValueError("arbitration_max_retries must be >= 0")

    @property
    def num_data_queues(self) -> int:
        """Priority classes available to arbitrated (non-background) flows."""
        return self.num_queues - 1

    @property
    def background_queue(self) -> int:
        """Queue index used by long-lived background flows."""
        return self.num_queues - 1

    @property
    def entry_timeout(self) -> float:
        """Arbitrator entries not refreshed in four intervals are dropped
        (safety net; normal removal is the explicit completion message)."""
        return 4.0 * self.arbitration_interval

    @property
    def pruning_enabled(self) -> bool:
        return self.pruning_queues > 0
