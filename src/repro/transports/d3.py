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

Only the allocation rule is D3's own.  The rest is PDQ's explicit-rate
chassis (:mod:`repro.transports.pdq`): flows run
:class:`~repro.transports.pdq.PdqSender`, and :class:`D3LinkAllocator`
inherits the per-link flow table, its expiry and ``install`` from
:class:`~repro.transports.pdq.RateAllocator`.  A D3 grant never falls below
``BASE_RATE_BPS`` and never sets the pause flag, so a D3 flow probes once
to learn its first grant and then streams at the rate each ACK echoes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.link import Link
from repro.sim.packet import Packet
from repro.transports.pdq import RateAllocator
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


class D3LinkAllocator(RateAllocator):
    """Per-link greedy rate allocator (switch side).

    Reservations are renewed by each passing request and expire when a
    flow goes silent for ``ENTRY_TIMEOUT_RTTS`` base RTTs
    (``config.initial_rtt``).  Greedy FCFS: a renewal keeps whatever it already
    holds if capacity allows; new requests get what is left.
    """

    flows: Dict[int, _Reservation]

    def process(self, pkt: Packet, link: Link) -> None:
        # Expire before the update: a flow renewing a stale reservation is
        # re-inserted at the end of the table (sums run in table order).
        now = link.sim.now
        self._expire(now)
        if pkt.remaining_bytes <= 0:
            self.flows.pop(pkt.flow_id, None)
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
        others = sum(r.rate for fid, r in self.flows.items()
                     if fid != flow_id)
        available = max(0.0, capacity - others)
        reserved = min(desired, available)
        self.flows[flow_id] = _Reservation(flow_id, reserved, now)
        if now < self._oldest:
            self._oldest = now
        # Fair share of the leftover goes on top (D3's "fs" term), floored
        # by the base rate so nobody fully stalls.
        num_flows = max(1, len(self.flows))
        leftover = max(0.0, capacity - others - reserved)
        grant = reserved + max(BASE_RATE_BPS, leftover / num_flows)
        return min(grant, capacity)
