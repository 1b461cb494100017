"""Protocol bindings: everything the experiment runner needs to run one
protocol on one scenario — the switch queue discipline, any network-side
machinery (PDQ's and D3's per-link rate allocators, PASE's control plane),
and the per-flow sender constructor.  Every flow's receiver is a plain
:class:`~repro.transports.base.ReceiverAgent`.

Registered names (the keys of :data:`PROTOCOLS`):

``tcp, dctcp, d2tcp, l2dct, pdq, d3, pfabric, pase`` plus the paper's ablation
variants ``pase-dctcp`` (no reference rate, Fig. 13a), ``pase-local``
(access-link-only arbitration, Fig. 12a), ``pase-noopt`` (pruning and
delegation disabled, Fig. 11), and ``pase-noprobe`` (§4.3.2).  A variant is
not a class: it is a row of :data:`PASE_PRESETS`, the :class:`PaseConfig`
fields it pins over the run's config, so ``"pase"`` with
``PaseConfig(**PASE_PRESETS[name])`` runs exactly the variant.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Dict, Optional, Type

from repro.core import PaseConfig, PaseControlPlane, PaseSender, pase_queue_factory
from repro.sim.engine import Simulator
from repro.sim.network import QueueFactory
from repro.sim.queues import PFabricQueue, REDQueue
from repro.sim.topology import Topology, default_queue_factory
from repro.transports import (
    D2tcpSender,
    D3LinkAllocator,
    DctcpSender,
    Flow,
    L2dctSender,
    PdqLinkScheduler,
    PdqSender,
    PfabricConfig,
    PfabricSender,
    TcpSender,
    TransportConfig,
)
from repro.utils.units import bytes_to_bits

from repro.harness.scenarios import Scenario


class ProtocolBinding:
    """Per-protocol wiring.  Subclasses fill in the three hooks (the default
    sender is ``sender_cls`` over ``self.config``, a :class:`TransportConfig`
    seeded with the scenario's RTT); only :class:`PaseBinding` reads
    ``pase_config``."""

    sender_cls: type

    def __init__(self, scenario: Scenario,
                 pase_config: Optional[PaseConfig] = None) -> None:
        self.scenario = scenario
        self.config = TransportConfig(initial_rtt=scenario.base_rtt)

    # -- hooks -----------------------------------------------------------
    def queue_factory(self) -> QueueFactory:
        """Queue discipline installed on every link in the topology: the
        marking FIFO, sized by the scenario's switch when it has one."""
        if self.scenario.switch_buffer is None:
            return default_queue_factory
        capacity, threshold = self.scenario.switch_buffer
        return lambda: REDQueue(capacity_pkts=capacity,
                                mark_threshold_pkts=threshold)

    def setup_network(self, sim: Simulator, topology: Topology) -> None:
        """Install network-side machinery (schedulers, control plane)."""

    def make_sender(self, sim, host, flow: Flow, on_done=None):
        return self.sender_cls(sim, host, flow, self.config, on_done)


def _unmarked_red() -> REDQueue:
    """Table 3's 225-packet buffer without ECN marking (TCP, D3)."""
    return REDQueue(capacity_pkts=225, mark_threshold_pkts=225)


def _bdp_pkts(scenario: Scenario) -> float:
    """Bandwidth-delay product of a 1 Gbps access link, in MTU packets."""
    return 1e9 * scenario.base_rtt / bytes_to_bits(1500)


def _two_bdp_capacity(scenario: Scenario) -> int:
    """The shallow (~2 BDP, at least 12 packets) buffer of PDQ and pFabric."""
    return max(12, int(2 * _bdp_pkts(scenario)))


class DctcpBinding(ProtocolBinding):
    """DCTCP, and the chassis of the window-based family below (each
    subclass swaps in its own sender)."""

    sender_cls = DctcpSender


class TcpBinding(DctcpBinding):
    sender_cls = TcpSender

    def queue_factory(self) -> QueueFactory:
        return _unmarked_red


class D2tcpBinding(DctcpBinding):
    sender_cls = D2tcpSender


class L2dctBinding(DctcpBinding):
    sender_cls = L2dctSender


class PdqBinding(ProtocolBinding):
    """The explicit-rate chassis: :class:`PdqSender` over one
    ``allocator_cls`` per link."""

    sender_cls = PdqSender
    allocator_cls = PdqLinkScheduler

    def queue_factory(self) -> QueueFactory:
        # Explicit rates keep queues near-empty; the small buffer is what
        # makes stale-rate overlaps during flow switching costly (§2.1).
        capacity = _two_bdp_capacity(self.scenario)
        return lambda: REDQueue(capacity_pkts=capacity, mark_threshold_pkts=capacity)

    def setup_network(self, sim: Simulator, topology: Topology) -> None:
        self.allocator_cls.install(topology.network, self.config)


class D3Binding(PdqBinding):
    """PDQ's chassis with D3's first-come-first-served rate allocators."""

    allocator_cls = D3LinkAllocator

    def queue_factory(self) -> QueueFactory:
        return _unmarked_red


class PfabricBinding(ProtocolBinding):
    sender_cls = PfabricSender

    def __init__(self, scenario: Scenario,
                 pase_config: Optional[PaseConfig] = None) -> None:
        super().__init__(scenario)
        self.config = PfabricConfig(
            initial_rtt=scenario.base_rtt,
            init_cwnd=math.ceil(max(4.0, _bdp_pkts(scenario))))

    def queue_factory(self) -> QueueFactory:
        capacity = _two_bdp_capacity(self.scenario)
        return lambda: PFabricQueue(capacity_pkts=capacity)


class PaseBinding(ProtocolBinding):
    """PASE over the run's :class:`PaseConfig` (:func:`make_binding` has
    already pinned a variant's preset over it)."""

    def __init__(self, scenario: Scenario,
                 pase_config: Optional[PaseConfig] = None) -> None:
        super().__init__(scenario)
        cfg = pase_config or PaseConfig()
        # None means "the scenario's": its criterion (EDF on deadline
        # scenarios) and one of its RTTs between arbitrations.  A scenario
        # that models its switch sets each buffer field left at its default.
        changes: Dict[str, Any] = {}
        if cfg.criterion is None:
            changes["criterion"] = scenario.criterion
        if cfg.arbitration_interval is None:
            changes["arbitration_interval"] = scenario.base_rtt
        for name, value in zip(("queue_capacity_pkts", "mark_threshold_pkts"),
                               scenario.switch_buffer or ()):
            if getattr(cfg, name) == getattr(PaseConfig, name):
                changes[name] = value
        self.config = replace(cfg, **changes)
        self.control_plane: Optional[PaseControlPlane] = None

    def queue_factory(self) -> QueueFactory:
        return pase_queue_factory(self.config)

    def setup_network(self, sim: Simulator, topology: Topology) -> None:
        self.control_plane = PaseControlPlane(sim, topology, self.config)

    def make_sender(self, sim, host, flow, on_done=None):
        return PaseSender(sim, host, flow, self.control_plane, on_done)


#: PASE and its ablations: the :class:`PaseConfig` fields each pins over
#: the run's ``pase_config``.
PASE_PRESETS: Dict[str, Dict[str, Any]] = {
    "pase": {},
    # Fig. 13a: arbitrated queues, DCTCP control laws in every queue.
    "pase-dctcp": {"reference_rate": False},
    # Fig. 12a: only the access links are arbitrated.
    "pase-local": {"end_to_end_arbitration": False},
    # Fig. 11: no early pruning, no delegation.
    "pase-noopt": {"pruning_queues": 0, "delegation_enabled": False},
    # §4.3.2: low-priority flows retransmit instead of probing.
    "pase-noprobe": {"probing_enabled": False},
}

#: The registered protocols, each built by :func:`make_binding`.
PROTOCOLS: Dict[str, Type[ProtocolBinding]] = {
    "tcp": TcpBinding,
    "dctcp": DctcpBinding,
    "d2tcp": D2tcpBinding,
    "l2dct": L2dctBinding,
    "pdq": PdqBinding,
    "d3": D3Binding,
    "pfabric": PfabricBinding,
    **{name: PaseBinding for name in PASE_PRESETS},
}

PROTOCOL_NAMES = tuple(PROTOCOLS)


def make_binding(
    protocol: str,
    scenario: Scenario,
    pase_config: Optional[PaseConfig] = None,
) -> ProtocolBinding:
    """Build the binding for ``protocol`` (one of :data:`PROTOCOL_NAMES`);
    a PASE variant's preset is pinned over ``pase_config``."""
    try:
        cls = PROTOCOLS[protocol]
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}") from None
    preset = PASE_PRESETS.get(protocol)
    if preset:
        pase_config = replace(pase_config or PaseConfig(), **preset)
    return cls(scenario, pase_config)
