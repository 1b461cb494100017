"""PASE configuration.

Defaults follow Table 3 of the paper (8 priority queues, 200 ms RTO for
flows below the top queue, 500-packet switch buffers) plus the
control-plane settings described in §3.1 (bottom-up arbitration with early
pruning propagating the top two queues, and delegation of aggregation–core
capacity to ToR arbitrators).  Each of the paper's ablations switches one
mechanism off through a field here; the protocol registry names them as
presets (``repro.harness.protocols.PASE_PRESETS``).  Values no experiment
varies are constants beside their reader: the top-queue RTO floor and the
arbitration retry budget in :mod:`repro.core.endhost`, the delegation
rebalance period and the arbitrator entry timeout in
:mod:`repro.core.control_plane`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.units import MSEC
from repro.utils.validation import check_positive


@dataclass
class PaseConfig:
    """Every settable value of a PASE run (control plane + end-host); the
    control plane and all its senders share one instance."""

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
    #: RTO floor below the top queue (the top queue's is ``MIN_RTO_TOP``).
    min_rto_low: float = 200 * MSEC
    #: Seed top-queue windows from the arbitrator's reference rate.  False
    #: is Fig. 13a's PASE-DCTCP: arbitrated queues, DCTCP laws everywhere.
    reference_rate: bool = True
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
    #: How often a source refreshes its arbitration (s).  None (default)
    #: means one RTT of the scenario, so promotions lag at most an RTT
    #: behind flow completions; a control plane built without a binding
    #: uses its ``ARBITRATION_INTERVAL``.
    arbitration_interval: Optional[float] = None

    # -- control-plane optimizations (§3.1.2) ----------------------------
    #: Early pruning: only flows mapped within the top ``pruning_queues``
    #: classes at a lower-level arbitrator propagate upward.  The paper
    #: finds two queues the right balance.  Set to 0 to disable pruning.
    pruning_queues: int = 2
    #: Delegate aggregation-core capacity to ToR arbitrators as virtual
    #: links (§3.1.2 "Delegation").
    delegation_enabled: bool = True

    # -- end-to-end vs local arbitration (Fig. 12a ablation) -------------
    #: When False, only the source/destination access links are arbitrated
    #: ("local arbitration"); fabric links are ignored.
    end_to_end_arbitration: bool = True

    def __post_init__(self) -> None:
        check_positive("num_queues", self.num_queues)
        check_positive("queue_capacity_pkts", self.queue_capacity_pkts)
        check_positive("mark_threshold_pkts", self.mark_threshold_pkts)
        check_positive("min_rto_low", self.min_rto_low)
        if self.arbitration_interval is not None:
            check_positive("arbitration_interval", self.arbitration_interval)
        valid_criteria = ("size", "deadline", "las", "task")
        if self.criterion is not None and self.criterion not in valid_criteria:
            raise ValueError(
                f"criterion must be one of {valid_criteria}, got {self.criterion!r}")
        if self.pruning_queues < 0:
            raise ValueError("pruning_queues must be >= 0 (0 disables pruning)")
        if self.num_queues < 2:
            raise ValueError("need >= 2 queues: one is reserved for background")

    @property
    def num_data_queues(self) -> int:
        """Priority classes available to arbitrated (non-background) flows."""
        return self.num_queues - 1

    @property
    def background_queue(self) -> int:
        """Queue index used by long-lived background flows."""
        return self.num_queues - 1

    @property
    def pruning_enabled(self) -> bool:
        return self.pruning_queues > 0
