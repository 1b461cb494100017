"""End-host transport protocols.

The baselines the paper compares against (each built on the shared reliable
chassis in :mod:`repro.transports.base`):

* :mod:`~repro.transports.tcp` — plain Reno (reference / testing),
* :mod:`~repro.transports.dctcp` — DCTCP (self-adjusting endpoints),
* :mod:`~repro.transports.d2tcp` — deadline-aware DCTCP,
* :mod:`~repro.transports.l2dct` — size-aware DCTCP,
* :mod:`~repro.transports.pdq` — explicit-rate arbitration (preemptive),
* :mod:`~repro.transports.d3` — explicit-rate arbitration (greedy FCFS),
* :mod:`~repro.transports.pfabric` — in-network prioritization.

PASE itself lives in :mod:`repro.core`.  PDQ and D3 share one sender
(:class:`~repro.transports.pdq.PdqSender`) and one per-link table
(:class:`~repro.transports.pdq.RateAllocator`, installed with
``install``); only their allocation rule differs.

Every sender takes one :class:`~repro.transports.base.TransportConfig`
(four values: ``init_cwnd``, ``min_rto``, ``max_rto``, ``initial_rtt``);
pFabric's Table 3 defaults are :class:`~repro.transports.pfabric.PfabricConfig`.
The remaining Table 3 parameters are constants beside the code that reads
them.
"""

from repro.transports.base import (
    ReceiverAgent,
    SenderAgent,
    TransportConfig,
)
from repro.transports.d3 import D3LinkAllocator
from repro.transports.dctcp import DctcpSender
from repro.transports.d2tcp import D2tcpSender
from repro.transports.flow import Flow
from repro.transports.l2dct import L2dctSender
from repro.transports.pdq import (
    PdqLinkScheduler,
    PdqSender,
)
from repro.transports.pfabric import (
    PfabricConfig,
    PfabricSender,
    pfabric_queue_factory,
)
from repro.transports.tcp import TcpSender

__all__ = [
    "Flow",
    "ReceiverAgent",
    "SenderAgent",
    "TransportConfig",
    "TcpSender",
    "D3LinkAllocator",
    "DctcpSender",
    "D2tcpSender",
    "L2dctSender",
    "PdqLinkScheduler",
    "PdqSender",
    "PfabricConfig",
    "PfabricSender",
    "pfabric_queue_factory",
]
