"""Network nodes: hosts and switches.

* A :class:`Switch` forwards packets along its static routing table (the
  topologies in the paper are trees, so single-path routing suffices).
* A :class:`Host` terminates transports: data/probe packets are demuxed to a
  per-flow receiver agent, ACKs to the sender agent.  Arbitration control
  traffic rides a modeled channel, not the data plane (see DESIGN.md).

Agents register with their host through :meth:`Host.attach_sender` /
:meth:`Host.attach_receiver`; the transport layer defines the agent API
(see :mod:`repro.transports.base`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.sim.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

_ACK = PacketKind.ACK


class Node:
    """Base class: anything with an id that can receive packets."""

    def __init__(self, sim: "Simulator", node_id: int, name: str) -> None:
        self.sim = sim
        self.node_id = node_id
        self.name = name
        #: Static routing: destination host id -> egress link.
        self.routes: Dict[int, "Link"] = {}

    def receive(self, pkt: Packet, from_link: "Link") -> None:
        raise NotImplementedError

    def egress_for(self, dst: int) -> "Link":
        try:
            return self.routes[dst]
        except KeyError:
            raise KeyError(f"{self.name}: no route to host {dst}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class Switch(Node):
    """Output-queued switch: forward to the egress link for the destination."""

    def receive(self, pkt: Packet, from_link: "Link") -> None:
        # The dict hit is the hot path; a missing route goes through
        # egress_for for its error.
        link = self.routes.get(pkt.dst)
        if link is None:
            link = self.egress_for(pkt.dst)
        link.send(pkt)


class Host(Node):
    """An end host running transport agents.

    ``packets_delivered``/``packets_dropped_local`` counters support tests
    that assert end-to-end conservation.
    """

    def __init__(self, sim: "Simulator", node_id: int, name: str) -> None:
        super().__init__(sim, node_id, name)
        #: Transport agents by flow id; each has ``on_packet(pkt)``.
        self._senders: Dict[int, Any] = {}
        self._receivers: Dict[int, Any] = {}
        self.packets_delivered = 0
        self.unroutable_packets = 0

    # -- agent registry -------------------------------------------------
    def attach_sender(self, flow_id: int, agent: Any) -> None:
        self._senders[flow_id] = agent

    def attach_receiver(self, flow_id: int, agent: Any) -> None:
        self._receivers[flow_id] = agent

    def detach_flow(self, flow_id: int) -> None:
        """Forget a completed flow's agents (keeps long runs memory-flat)."""
        self._senders.pop(flow_id, None)
        self._receivers.pop(flow_id, None)

    # -- datapath --------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Transmit a locally generated packet toward ``pkt.dst``."""
        dst = pkt.dst
        if dst == self.node_id:
            # Same-host flows never traverse the fabric; deliver immediately.
            self.sim.post(0.0, self.receive, pkt, None)
            return True
        # As in Switch.receive: a missing route goes through egress_for.
        link = self.routes.get(dst)
        if link is None:
            link = self.egress_for(dst)
        return link.send(pkt)

    def receive(self, pkt: Packet, from_link: Optional["Link"]) -> None:
        self.packets_delivered += 1
        if pkt.kind == _ACK:
            agent = self._senders.get(pkt.flow_id)
        else:  # DATA or PROBE terminate at the receiver agent
            agent = self._receivers.get(pkt.flow_id)
        if agent is None:
            # Stale packet for an already-detached flow; count and drop.
            self.unroutable_packets += 1
            return
        agent.on_packet(pkt)
