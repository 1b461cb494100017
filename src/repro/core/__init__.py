"""PASE: the paper's primary contribution.

* :mod:`~repro.core.config` — the one description of a run (:class:`PaseConfig`),
* :mod:`~repro.core.arbitration` — Algorithm 1 per-link arbitration,
* :mod:`~repro.core.control_plane` — the bottom-up hierarchy with early
  pruning and delegation,
* :mod:`~repro.core.endhost` — Algorithm 2 rate control, probe-based loss
  recovery, and the promotion reordering guard.

Quick sketch::

    sim = Simulator()
    topo = TreeTopology(sim, queue_factory=pase_queue_factory(cfg))
    cp = PaseControlPlane(sim, topo, cfg)
    PaseReceiver(sim, dst_host, flow)
    PaseSender(sim, src_host, flow, cp).start()
    sim.run()
"""

from repro.core.arbitration import (
    ArbitratedFlow,
    ArbitrationResult,
    LinkArbitrator,
    VirtualLinkArbitrator,
)
from repro.core.config import PaseConfig
from repro.core.control_plane import ChainHop, FlowChains, PaseControlPlane
from repro.core.endhost import PaseReceiver, PaseSender
from repro.sim.queues import PriorityQueueBank


def pase_queue_factory(config: PaseConfig = None):
    """Queue factory building each port's strict-priority bank from a
    :class:`PaseConfig` (used when constructing topologies for PASE runs)."""
    cfg = config or PaseConfig()

    def factory() -> PriorityQueueBank:
        # Default: per-class capacity, mirroring the paper's Linux
        # PRIO-over-RED stack (each band its own RED queue) — a burst into
        # a low class can never evict top-priority arrivals.  Set
        # ``shared_queue_capacity`` for shared-memory-switch semantics.
        return PriorityQueueBank(
            num_queues=cfg.num_queues,
            capacity_pkts=cfg.queue_capacity_pkts,
            mark_threshold_pkts=cfg.mark_threshold_pkts,
            per_queue_capacity=not cfg.shared_queue_capacity,
        )
    return factory


__all__ = [
    "ArbitratedFlow",
    "ArbitrationResult",
    "LinkArbitrator",
    "VirtualLinkArbitrator",
    "PaseConfig",
    "ChainHop",
    "FlowChains",
    "PaseControlPlane",
    "PaseReceiver",
    "PaseSender",
    "pase_queue_factory",
]
