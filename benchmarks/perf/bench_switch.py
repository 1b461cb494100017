"""Fabric datapath throughput: packets/second through a loaded switch.

No transports, no control plane — raw header-only ACK packets are offered
to the access links of a star topology faster than the core can drain
them, so the switch's egress queue stays loaded and every packet pays the
full serialize → propagate → forward → serialize → deliver path (the
receiver has no agent for them, so it counts them unroutable).  This isolates the link/queue/node hot path that the engine
optimizations target.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketKind
from repro.sim.topology import StarTopology
from repro.utils.units import GBPS, USEC

from benchmarks.perf import best_of


def switch_packets_per_sec(num_packets: int = 30_000,
                           num_senders: int = 8) -> float:
    """Fan ``num_senders`` access links into one receiver's downlink.

    Senders interleave their injections at exactly the downlink's line
    rate, so the shared egress stays 100% utilized for the whole run
    without overflowing its drop-tail queue — every offered packet pays
    the full forwarding path and is delivered.  Throughput is delivered
    packets per wall-clock second.
    """
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=num_senders + 1,
                        link_bps=10 * GBPS, rtt=40 * USEC)
    receiver = topo.hosts[-1]
    senders = topo.hosts[:-1]

    pkt_time = Packet(PacketKind.ACK, 0, 0, 0).size * 8 / (10 * GBPS)
    per_sender = num_packets // num_senders

    def make_injector(host, flow_id):
        remaining = iter(range(per_sender))

        def inject():
            n = next(remaining, None)
            if n is None:
                return
            host.send(Packet(PacketKind.ACK, host.node_id,
                             receiver.node_id, flow_id, seq=n))
            sim.post(num_senders * pkt_time, inject)

        return inject

    for i, host in enumerate(senders):
        sim.post_at(i * pkt_time, make_injector(host, i + 1))

    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert receiver.packets_delivered == per_sender * len(senders)
    return receiver.packets_delivered / elapsed


def run(scale: str = "full", repeats: int = 3) -> Dict[str, float]:
    n = 30_000 if scale == "full" else 6_000
    return {
        "incast_packets_per_sec": best_of(
            lambda: switch_packets_per_sec(n), repeats),
    }
