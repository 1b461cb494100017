#!/usr/bin/env python3
"""A guided tour of PASE's arbitration machinery, no packets involved.

Part 1 drives Algorithm 1 directly: feed a link arbitrator a set of flows
and watch the (priority queue, reference rate) assignments change as flows
arrive, drain, and leave.

Part 2 builds the full three-tier control plane and shows what the paper's
two scalability optimizations buy: how many control messages a flow costs
with and without early pruning + delegation.

Run:  python examples/arbitration_playground.py
"""

from repro.core import LinkArbitrator, PaseConfig, PaseControlPlane
from repro.core.control_plane import DELEGATION_UPDATE_INTERVAL
from repro.sim import Simulator, TreeTopology, TreeTopologyConfig
from repro.transports import Flow
from repro.utils.units import GBPS, KB, MBPS


def part1_algorithm_one() -> None:
    print("=" * 66)
    print("Part 1: Algorithm 1 on a single 1 Gbps link")
    print("=" * 66)
    arb = LinkArbitrator("demo-link", capacity_bps=1 * GBPS, num_queues=7,
                         base_rate_bps=40 * MBPS)

    print("\nThree flows arrive (sizes 500 KB, 50 KB, 200 KB), each able to")
    print("saturate the link (demand = 1 Gbps):\n")
    for fid, size in ((1, 500 * KB), (2, 50 * KB), (3, 200 * KB)):
        arb.arbitrate(fid, criterion_value=size, demand=1 * GBPS, now=0.0)
    for fid, size in ((1, 500 * KB), (2, 50 * KB), (3, 200 * KB)):
        r = arb.arbitrate(fid, size, 1 * GBPS, now=0.0)
        print(f"  flow {fid} ({size // 1000:>3} KB): queue {r.queue}, "
              f"Rref = {r.reference_rate / 1e6:7.1f} Mbps")
    print("\n  -> the shortest flow owns the top queue at full rate; the")
    print("     others hold lower queues at the base (probe) rate.")

    print("\nFlow 2 finishes and is removed; flow 3 re-arbitrates:\n")
    arb.remove(2)
    r = arb.arbitrate(3, 200 * KB, 1 * GBPS, now=0.001)
    print(f"  flow 3: queue {r.queue}, Rref = {r.reference_rate / 1e6:.1f} Mbps")
    print("  -> promoted to the top queue with the full link as its rate.")

    print("\nA flow with a small demand shares the top queue:\n")
    arb.remove(1)
    arb.remove(3)
    arb.arbitrate(10, 10 * KB, demand=200 * MBPS, now=0.002)
    r = arb.arbitrate(11, 80 * KB, demand=1 * GBPS, now=0.002)
    print(f"  flow 11 behind a 200 Mbps-demand flow: queue {r.queue}, "
          f"Rref = {r.reference_rate / 1e6:.1f} Mbps")
    print("  -> ADH < C, so it rides the top queue at the spare 800 Mbps.")


def part2_control_plane() -> None:
    print()
    print("=" * 66)
    print("Part 2: message cost of inter-rack arbitration, by optimization")
    print("=" * 66)
    print("\nOne cross-aggregation flow; count control messages per request:\n")

    variants = {
        "pruning + delegation (paper default)": PaseConfig(),
        "no delegation": PaseConfig(delegation_enabled=False),
        "no pruning, no delegation": PaseConfig(delegation_enabled=False,
                                                pruning_queues=0),
    }
    for label, config in variants.items():
        sim = Simulator()
        topo = TreeTopology(sim, TreeTopologyConfig(hosts_per_rack=2))
        cp = PaseControlPlane(sim, topo, config)
        src = topo.rack_hosts(0)[0]
        dst = topo.rack_hosts(2)[0]  # other side of the core
        flow = Flow(flow_id=1, src=src.node_id, dst=dst.node_id,
                    size_bytes=100 * KB, start_time=0.0)
        cp.request(flow, 100 * KB, 1 * GBPS, lambda half, result: None)
        # Stop before the first delegation rebalance, whose share reports
        # are messages too: only the request's own cost is counted.
        sim.run(until=0.5 * DELEGATION_UPDATE_INTERVAL)
        print(f"  {label:<40} {cp.messages_sent:>3} messages")

    print("\n  -> delegation keeps arbitration at the ToR (no aggregation/")
    print("     core round trips); intra-rack flows cost zero messages.")


if __name__ == "__main__":
    part1_algorithm_one()
    part2_control_plane()
