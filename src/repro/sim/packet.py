"""Packet model.

One mutable object per packet in flight.  Transports stamp protocol-specific
headers directly onto dedicated attributes (rather than a generic dict) to
keep per-packet allocation cheap — pure-Python packet simulation lives and
dies by the cost of this class.

Priority semantics
------------------
``priority`` is a *lower-is-better* float used by priority-scheduling queues:

* pFabric sets it to the flow's remaining size in bytes,
* PASE and the PRIO bank use ``queue_index`` instead (0 = highest-priority
  queue), with ``priority`` as a tie-breaker inside the pFabric queue only.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Optional


class PacketKind(IntEnum):
    """Wire-level packet categories understood by hosts and switches."""

    DATA = 0
    ACK = 1
    #: Header-only probe used by PASE low-priority loss recovery and by PDQ's
    #: paused flows.
    PROBE = 2


#: Default maximum transmission unit, bytes (matches ns2 setups in the paper).
DEFAULT_MTU = 1500

#: Header-only packet size (TCP/IP headers), bytes.  Used for ACKs and probes.
HEADER_SIZE = 40


class Packet:
    """A packet traversing the simulated fabric."""

    __slots__ = (
        "kind",
        "src",
        "dst",
        "flow_id",
        "seq",
        "size",
        "priority",
        "queue_index",
        "ecn_capable",
        "ecn_marked",
        "ecn_echo",
        "deadline",
        "sent_time",
        "is_retransmit",
        "ack_seq",
        "ack_sacks",
        "pdq_rate",
        "pdq_pause",
        "pdq_rank",
        "remaining_bytes",
    )

    def __init__(
        self,
        kind: PacketKind,
        src: int,
        dst: int,
        flow_id: int,
        seq: int = 0,
        size: int = DEFAULT_MTU,
        priority: float = 0.0,
        queue_index: int = 0,
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.flow_id = flow_id
        #: Data sequence number, in packets (0-based).
        self.seq = seq
        self.size = size
        self.priority = priority
        self.queue_index = queue_index
        self.ecn_capable: bool = True
        self.ecn_marked: bool = False
        #: On ACKs: echoes the CE mark of the data packet being acknowledged.
        self.ecn_echo: bool = False
        self.deadline: Optional[float] = None
        #: Stamp set by the sender when the packet leaves the transport; used
        #: for RTT estimation.
        self.sent_time: float = 0.0
        self.is_retransmit: bool = False
        #: On ACKs: cumulative ack — the next in-order packet seq expected.
        self.ack_seq: int = 0
        #: On ACKs: the (selective) seq being acknowledged by this ACK.
        self.ack_sacks: int = -1
        #: PDQ in-band header: allocated rate (bits/sec) accumulated min-wise
        #: across hops; ``pdq_pause`` set when some hop allocates zero.
        self.pdq_rate: float = float("inf")
        self.pdq_pause: bool = False
        #: PDQ header: the flow's position in the strictest scheduler's
        #: priority order (0 = head).  Paused flows probe less often the
        #: further from the head they sit (PDQ's suppressed probing).
        self.pdq_rank: int = 0
        #: pFabric/PDQ header: bytes remaining in the flow (scheduling key).
        self.remaining_bytes: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind.name} flow={self.flow_id} "
            f"seq={self.seq} {self.src}->{self.dst} q={self.queue_index} "
            f"prio={self.priority:.0f})"
        )


def make_data_packet(
    src: int,
    dst: int,
    flow_id: int,
    seq: int,
    size: int = DEFAULT_MTU,
    priority: float = 0.0,
    queue_index: int = 0,
) -> Packet:
    """Convenience constructor for a data packet."""
    return Packet(PacketKind.DATA, src, dst, flow_id, seq, size, priority,
                  queue_index)


def make_ack_packet(data_pkt: Packet, ack_seq: int, queue_index: int = 0) -> Packet:
    """Build the ACK for ``data_pkt``, echoing its ECN mark.

    ACKs travel in the same priority queue as their data (so a low-priority
    flow's ACKs cannot starve high-priority data) unless overridden.
    """
    ack = Packet(PacketKind.ACK, data_pkt.dst, data_pkt.src, data_pkt.flow_id,
                 data_pkt.seq, HEADER_SIZE, data_pkt.priority, queue_index)
    ack.ack_seq = ack_seq
    ack.ack_sacks = data_pkt.seq
    ack.ecn_echo = data_pkt.ecn_marked
    ack.ecn_capable = False
    ack.deadline = data_pkt.deadline
    ack.remaining_bytes = data_pkt.remaining_bytes
    # Echo timing metadata so the sender can take RTT samples (Karn's rule:
    # retransmitted packets are excluded, so the flag rides along too).
    ack.sent_time = data_pkt.sent_time
    ack.is_retransmit = data_pkt.is_retransmit
    # Echo PDQ's in-band grant back to the sender.
    ack.pdq_rate = data_pkt.pdq_rate
    ack.pdq_pause = data_pkt.pdq_pause
    ack.pdq_rank = data_pkt.pdq_rank
    return ack
