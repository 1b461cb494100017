#!/usr/bin/env python3
"""Build your own transport on the shared reliable chassis.

The library's five baseline protocols all subclass
:class:`repro.transports.base.SenderAgent` and override only four hooks
(packet decoration, per-ACK window law, fast-retransmit reaction, timeout
reaction).  This example writes a toy protocol the same way — "HalfTCP",
a deliberately lazy AIMD that grows half as fast as Reno and backs off
twice as hard — runs it head-to-head against DCTCP on a shared bottleneck,
and shows the chassis metrics you get for free.

Run:  python examples/custom_protocol.py
"""

from repro.sim import Simulator, StarTopology
from repro.sim.packet import Packet
from repro.transports import DctcpSender, Flow, ReceiverAgent
from repro.transports.base import MAX_CWND, SenderAgent, TransportConfig
from repro.utils.units import GBPS, KB, USEC


class HalfTcpSender(SenderAgent):
    """A timid AIMD: +0.5 MSS per RTT, multiplicative decrease by 4."""

    def decorate_packet(self, pkt: Packet) -> None:
        pkt.ecn_capable = False  # loss-based only

    def on_ack_window_update(self, pkt: Packet, newly_acked: bool) -> None:
        if newly_acked:
            self.cwnd = min(self.cwnd + 0.5 / max(self.cwnd, 1.0), MAX_CWND)

    def on_fast_retransmit(self) -> None:
        self.cwnd = max(1.0, self.cwnd / 4)

    def on_timeout_window_update(self) -> None:
        self.cwnd = 1.0


def main() -> None:
    sim = Simulator()
    topology = StarTopology(sim, num_hosts=4, link_bps=1 * GBPS,
                            rtt=100 * USEC)

    # Two equal flows into the same destination — one per protocol.
    config = TransportConfig(initial_rtt=100 * USEC)
    contenders = [("half-tcp", HalfTcpSender), ("dctcp", DctcpSender)]
    flows = []
    for i, (name, sender_cls) in enumerate(contenders):
        flow = Flow(flow_id=i + 1, src=topology.hosts[i].node_id,
                    dst=topology.hosts[3].node_id, size_bytes=400 * KB,
                    start_time=0.0)
        ReceiverAgent(sim, topology.hosts[3], flow)
        sender_cls(sim, topology.hosts[i], flow, config).start()
        flows.append((name, flow))

    sim.run(until=1.0)

    print("Two 400 KB flows sharing a 1 Gbps bottleneck:\n")
    print(f"{'protocol':<12}{'FCT':<12}{'retransmits':<14}{'timeouts':<10}")
    for name, flow in flows:
        print(f"{name:<12}{flow.fct * 1e3:>7.2f} ms  "
              f"{flow.retransmissions:<14}{flow.timeouts:<10}")

    half, dctcp = flows[0][1], flows[1][1]
    assert dctcp.fct < half.fct, "the timid protocol should lose the race"
    print("\nThe lazy AIMD cedes bandwidth to DCTCP, as designed.")
    print("Writing a protocol = subclassing SenderAgent and overriding")
    print("4 hooks; reliability, RTT estimation, timers, metrics are free.")


if __name__ == "__main__":
    main()
