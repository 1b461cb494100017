"""D3 (Wilson et al., SIGCOMM 2011): deadline-driven rate reservation.

The other arbitration-only protocol in the paper's Table 1.  Each RTT a
sender asks the network for the rate its deadline requires
(``remaining / time_to_deadline``; best-effort flows ask for zero); every
switch on the path grants the request greedily — first-come, first-served —
plus an equal share of whatever capacity is left, and the sender paces at
the path-minimum grant for the next RTT.

D3's signature weakness (the reason PDQ exists) emerges from the greedy
FCFS order: a request that arrives *earlier* is satisfied even when a
later, more urgent flow then cannot reserve what its deadline needs —
allocation order, not deadline order, decides contention.

The in-band plumbing (rate field stamped min-wise per hop, echoed on ACKs,
paced sender) is shared with the PDQ rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.link import Link
from repro.sim.packet import Packet, PacketKind
from repro.transports.base import TransportConfig
from repro.transports.pdq import ENTRY_TIMEOUT_RTTS, PdqSender
from repro.utils.units import bytes_to_bits

#: Floor on every flow's grant (the fair share of leftover capacity is
#: computed per link; this floors it), keeping best-effort flows trickling
#: about one packet per RTT.
BASE_RATE_BPS = 40e6


@dataclass
class _Reservation:
    flow_id: int
    rate: float
    last_seen: float


class D3LinkAllocator:
    """Per-link greedy rate allocator (switch side).

    Reservations are renewed by each passing request and expire when a
    flow goes silent for ``ENTRY_TIMEOUT_RTTS`` base RTTs
    (``config.initial_rtt``).  Greedy FCFS: a renewal keeps whatever it already
    holds if capacity allows; new requests get what is left.
    """

    def __init__(self, link: Link, config: Optional[TransportConfig] = None) -> None:
        self.link = link
        self.config = config or TransportConfig()
        self.reservations: Dict[int, _Reservation] = {}

    # -- LinkProcessor interface -----------------------------------------
    def process(self, pkt: Packet, link: Link) -> None:
        if pkt.kind not in (PacketKind.DATA, PacketKind.PROBE):
            return
        now = link.sim.now
        self._expire(now)
        if pkt.remaining_bytes <= 0:
            self.reservations.pop(pkt.flow_id, None)
            return
        desired = self._desired_rate(pkt, now)
        granted = self._allocate(pkt.flow_id, desired, now)
        pkt.pdq_rate = min(pkt.pdq_rate, granted)

    def _desired_rate(self, pkt: Packet, now: float) -> float:
        if pkt.deadline is None or pkt.deadline <= now:
            return 0.0  # best-effort (or already hopeless): leftover only
        return bytes_to_bits(pkt.remaining_bytes) / (pkt.deadline - now)

    def _allocate(self, flow_id: int, desired: float, now: float) -> float:
        capacity = self.link.capacity_bps
        others = sum(r.rate for fid, r in self.reservations.items()
                     if fid != flow_id)
        available = max(0.0, capacity - others)
        reserved = min(desired, available)
        self.reservations[flow_id] = _Reservation(flow_id, reserved, now)
        # Fair share of the leftover goes on top (D3's "fs" term), floored
        # by the base rate so nobody fully stalls.
        num_flows = max(1, len(self.reservations))
        leftover = max(0.0, capacity - others - reserved)
        grant = reserved + max(BASE_RATE_BPS, leftover / num_flows)
        return min(grant, capacity)

    def _expire(self, now: float) -> None:
        timeout = ENTRY_TIMEOUT_RTTS * self.config.initial_rtt
        dead = [fid for fid, r in self.reservations.items()
                if now - r.last_seen > timeout]
        for fid in dead:
            del self.reservations[fid]


def install_d3_allocators(network, config: Optional[TransportConfig] = None) -> Dict[str, D3LinkAllocator]:
    """Attach a :class:`D3LinkAllocator` to every link in ``network``."""
    allocators: Dict[str, D3LinkAllocator] = {}
    for link in network.links.values():
        alloc = D3LinkAllocator(link, config)
        link.processors.append(alloc)
        allocators[link.name] = alloc
    return allocators


class D3Sender(PdqSender):
    """Paced sender driven by D3 grants.

    Identical chassis to PDQ's sender; D3 grants are never zero (base rate
    floor), so the pause/probe machinery effectively idles and the flow
    simply tracks its granted rate each RTT.
    """

    def _apply_grant(self, rate: float, paused_flag: bool) -> None:
        # D3 has no pause semantics; a grant is always positive.
        if rate == float("inf"):
            return
        super()._apply_grant(max(rate, 1e3), False)
