"""Packet-level discrete-event network simulator (the ns2 substitute).

Layering, bottom up:

* :mod:`~repro.sim.engine` — event loop,
* :mod:`~repro.sim.packet` — packet model,
* :mod:`~repro.sim.queues` — egress queue disciplines (DropTail, DCTCP-RED,
  strict-priority bank, pFabric priority-drop),
* :mod:`~repro.sim.link` — store-and-forward links with pluggable per-packet
  processors,
* :mod:`~repro.sim.node` — hosts (transport demux) and switches (forwarding),
* :mod:`~repro.sim.network` — wiring + BFS routing,
* :mod:`~repro.sim.topology` — the paper's star and three-tier tree shapes.
"""

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.network import Network
from repro.sim.node import Host, Node, Switch
from repro.sim.packet import (
    DEFAULT_MTU,
    HEADER_SIZE,
    Packet,
    PacketKind,
    make_ack_packet,
    make_data_packet,
)
from repro.sim.queues import (
    DropTailQueue,
    PFabricQueue,
    PriorityQueueBank,
    QueueDiscipline,
    REDQueue,
)
from repro.sim.topology import (
    StarTopology,
    Topology,
    TreeTopology,
    TreeTopologyConfig,
    default_queue_factory,
)

__all__ = [
    "Simulator",
    "Link",
    "Network",
    "Host",
    "Node",
    "Switch",
    "DEFAULT_MTU",
    "HEADER_SIZE",
    "Packet",
    "PacketKind",
    "make_ack_packet",
    "make_data_packet",
    "DropTailQueue",
    "PFabricQueue",
    "PriorityQueueBank",
    "QueueDiscipline",
    "REDQueue",
    "StarTopology",
    "Topology",
    "TreeTopology",
    "TreeTopologyConfig",
    "default_queue_factory",
]

from repro.sim.switch_models import (
    TABLE2,
    SwitchModel,
    pase_config_for,
)
from repro.sim.trace import TraceEvent, Tracer

__all__ += [
    "TABLE2",
    "SwitchModel",
    "pase_config_for",
    "TraceEvent",
    "Tracer",
]
