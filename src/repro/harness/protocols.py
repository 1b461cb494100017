"""Protocol bindings: everything the experiment runner needs to run one
protocol on one scenario — the switch queue discipline, any network-side
machinery (PDQ's link schedulers, PASE's control plane), and the per-flow
agent constructors.

Registered names (the keys of :data:`PROTOCOLS`):

``tcp, dctcp, d2tcp, l2dct, pdq, d3, pfabric, pase`` plus the paper's ablation
variants ``pase-dctcp`` (no reference rate, Fig. 13a), ``pase-local``
(access-link-only arbitration, Fig. 12a), ``pase-noopt`` (pruning and
delegation disabled, Fig. 11), and ``pase-noprobe`` (§4.3.2).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Dict, Optional, Type

from repro.core import PaseConfig, PaseControlPlane, PaseReceiver, PaseSender, pase_queue_factory
from repro.sim.engine import Simulator
from repro.sim.network import QueueFactory
from repro.sim.queues import PFabricQueue, REDQueue
from repro.sim.topology import Topology, default_queue_factory
from repro.transports import (
    D3Sender,
    D2tcpSender,
    DctcpSender,
    Flow,
    L2dctSender,
    PdqSender,
    PfabricConfig,
    PfabricSender,
    ReceiverAgent,
    TcpSender,
    TransportConfig,
    install_d3_allocators,
    install_pdq_schedulers,
)
from repro.transports.base import CompletionCallback
from repro.utils.units import bytes_to_bits

from repro.harness.scenarios import Scenario


class ProtocolBinding:
    """Per-protocol wiring.  Subclasses fill in the four hooks (the default
    sender is ``sender_cls`` over ``self.config``, a :class:`TransportConfig`
    seeded with the scenario's RTT); only the PASE bindings read
    ``pase_config``."""

    sender_cls: type

    def __init__(self, scenario: Scenario,
                 pase_config: Optional[PaseConfig] = None) -> None:
        self.scenario = scenario
        self.config = TransportConfig(initial_rtt=scenario.base_rtt)

    # -- hooks -----------------------------------------------------------
    def queue_factory(self) -> QueueFactory:
        """Queue discipline installed on every link in the topology."""
        return default_queue_factory

    def setup_network(self, sim: Simulator, topology: Topology) -> None:
        """Install network-side machinery (schedulers, control plane)."""

    def make_receiver(self, sim, host, flow: Flow, on_complete: CompletionCallback):
        return ReceiverAgent(sim, host, flow, on_complete)

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
    sender_cls = PdqSender
    install = staticmethod(install_pdq_schedulers)

    def queue_factory(self) -> QueueFactory:
        # Explicit rates keep queues near-empty; the small buffer is what
        # makes stale-rate overlaps during flow switching costly (§2.1).
        capacity = _two_bdp_capacity(self.scenario)
        return lambda: REDQueue(capacity_pkts=capacity, mark_threshold_pkts=capacity)

    def setup_network(self, sim: Simulator, topology: Topology) -> None:
        self.install(topology.network, self.config)


class D3Binding(PdqBinding):
    """PDQ's chassis with D3's first-come-first-served rate allocators."""

    sender_cls = D3Sender
    install = staticmethod(install_d3_allocators)

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
    #: Fig. 13a ablation: queues via arbitration but DCTCP rate control.
    use_reference_rate = True
    #: :class:`PaseConfig` fields an ablation pins over ``pase_config``.
    ablation: Dict[str, Any] = {}

    def __init__(self, scenario: Scenario,
                 pase_config: Optional[PaseConfig] = None) -> None:
        super().__init__(scenario)
        cfg = pase_config or PaseConfig()
        changes = dict(self.ablation)
        # criterion=None means "the scenario's": EDF on deadline scenarios.
        if cfg.criterion is None:
            changes["criterion"] = scenario.criterion
        # Track the scenario's RTT only when the interval was left at the
        # class default — an explicitly chosen interval (e.g. the ablation
        # benchmark) is respected as-is.
        default_interval = PaseConfig.__dataclass_fields__["arbitration_interval"].default
        if cfg.arbitration_interval == default_interval:
            changes["arbitration_interval"] = scenario.base_rtt
        self.config = replace(cfg, **changes)
        self.control_plane: Optional[PaseControlPlane] = None

    def queue_factory(self) -> QueueFactory:
        return pase_queue_factory(self.config)

    def setup_network(self, sim: Simulator, topology: Topology) -> None:
        self.control_plane = PaseControlPlane(sim, topology, self.config)

    def make_receiver(self, sim, host, flow, on_complete):
        return PaseReceiver(sim, host, flow, on_complete)

    def make_sender(self, sim, host, flow, on_done=None):
        return PaseSender(sim, host, flow, self.control_plane, self.config,
                          on_done, use_reference_rate=self.use_reference_rate)


class PaseDctcpBinding(PaseBinding):
    """PASE-DCTCP (Fig. 13a): arbitrated queues, no reference-rate seeding —
    every flow runs DCTCP control laws regardless of its queue."""

    use_reference_rate = False


class PaseLocalBinding(PaseBinding):
    """Fig. 12a: only the access links are arbitrated."""

    ablation = {"end_to_end_arbitration": False}


class PaseNoOptBinding(PaseBinding):
    """Fig. 11: no early pruning, no delegation."""

    ablation = {"pruning_queues": 0, "delegation_enabled": False}


class PaseNoProbeBinding(PaseBinding):
    """§4.3.2: low-priority flows retransmit instead of probing."""

    ablation = {"probing_enabled": False}


#: The registered protocols, each built as ``cls(scenario, pase_config)``.
PROTOCOLS: Dict[str, Type[ProtocolBinding]] = {
    "tcp": TcpBinding,
    "dctcp": DctcpBinding,
    "d2tcp": D2tcpBinding,
    "l2dct": L2dctBinding,
    "pdq": PdqBinding,
    "d3": D3Binding,
    "pfabric": PfabricBinding,
    "pase": PaseBinding,
    "pase-dctcp": PaseDctcpBinding,
    "pase-local": PaseLocalBinding,
    "pase-noopt": PaseNoOptBinding,
    "pase-noprobe": PaseNoProbeBinding,
}

PROTOCOL_NAMES = tuple(PROTOCOLS)


def make_binding(
    protocol: str,
    scenario: Scenario,
    pase_config: Optional[PaseConfig] = None,
) -> ProtocolBinding:
    """Build the binding for ``protocol`` (one of :data:`PROTOCOL_NAMES`)."""
    try:
        cls = PROTOCOLS[protocol]
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}") from None
    return cls(scenario, pase_config)
