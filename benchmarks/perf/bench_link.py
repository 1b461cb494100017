"""Per-hop data plane: packets/second for trains through equal-rate switches.

One host sends back-to-back trains of MTU packets to another across a
chain of switches; every link runs at the same rate.  In a store-and-
forward chain of equal rates, each packet of a train reaches a switch port
at the exact instant the port finishes serializing the packet before it,
so this isolates the link's frame-end path: the handoff that starts such
a packet at once instead of behind a wake-up (:mod:`repro.sim.link`).
No transports and no control plane; the receiver has no agent, so it
counts the packets unroutable.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.packet import DEFAULT_MTU, make_data_packet
from repro.sim.queues import DropTailQueue
from repro.utils.units import GBPS, USEC

from benchmarks.perf import best_of

#: Switches between the two hosts: six hops, as host -> ToR -> agg -> core
#: -> agg -> ToR -> host in the paper's tree.
CHAIN_SWITCHES = 5
#: Packets per train, and the spacing of trains in packet times: the chain
#: idles between trains, so every train starts on an empty path.
TRAIN_PKTS = 32
TRAIN_SPACING = 40


def chain_packets_per_sec(num_packets: int = 40_000) -> float:
    """Send ``num_packets`` in trains of :data:`TRAIN_PKTS` through
    :data:`CHAIN_SWITCHES` 10 Gbps switches and return delivered packets
    per wall-clock second."""
    sim = Simulator()
    net = Network(sim)
    src, dst = net.add_host("src"), net.add_host("dst")
    hops = [src] + [net.add_switch(f"sw{i}")
                    for i in range(CHAIN_SWITCHES)] + [dst]
    for a, b in zip(hops, hops[1:]):
        net.connect(a, b, 10 * GBPS, 1 * USEC, lambda: DropTailQueue(100))
    net.build_routes()

    pkt_time = DEFAULT_MTU * 8 / (10 * GBPS)
    trains = iter(range(num_packets // TRAIN_PKTS))

    def inject():
        train = next(trains, None)
        if train is None:
            return
        base = train * TRAIN_PKTS
        for seq in range(base, base + TRAIN_PKTS):
            src.send(make_data_packet(src.node_id, dst.node_id, 1, seq,
                                      size=DEFAULT_MTU))
        sim.post(TRAIN_SPACING * pkt_time, inject)

    sim.post(0.0, inject)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert dst.packets_delivered == num_packets // TRAIN_PKTS * TRAIN_PKTS
    return dst.packets_delivered / elapsed


def run(scale: str = "full", repeats: int = 3) -> Dict[str, float]:
    n = 40_000 if scale == "full" else 8_000
    return {
        "chain_packets_per_sec": best_of(
            lambda: chain_packets_per_sec(n), repeats),
    }
