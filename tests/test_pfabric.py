"""Tests for the pFabric rebuild."""

import pytest

from repro.metrics.overhead import NetworkCounters
from repro.sim import Simulator, StarTopology
from repro.transports import (
    Flow,
    PfabricConfig,
    PfabricSender,
    ReceiverAgent,
    pfabric_queue_factory,
)
from repro.transports.pfabric import PROBE_MODE_THRESHOLD
from repro.utils.units import GBPS, KB, USEC


def run_pfabric(specs, until=5.0, num_hosts=4, queue_pkts=16, init_cwnd=8.0):
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=num_hosts, link_bps=1 * GBPS,
                        rtt=100 * USEC,
                        queue_factory=pfabric_queue_factory(queue_pkts))
    cfg = PfabricConfig(initial_rtt=100 * USEC, init_cwnd=init_cwnd)
    flows = []
    for i, (s, d, size, start) in enumerate(specs):
        f = Flow(flow_id=i + 1, src=topo.hosts[s].node_id,
                 dst=topo.hosts[d].node_id, size_bytes=size, start_time=start)
        flows.append(f)

    def launch(f):
        ReceiverAgent(sim, topo.network.nodes[f.dst], f)
        PfabricSender(sim, topo.network.nodes[f.src], f, cfg).start()

    for f in flows:
        sim.schedule_at(f.start_time, launch, f)
    sim.run(until=until)
    return topo, flows


def test_priority_is_remaining_bytes():
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=2,
                        queue_factory=pfabric_queue_factory())
    f = Flow(flow_id=1, src=topo.hosts[0].node_id,
             dst=topo.hosts[1].node_id, size_bytes=30 * KB, start_time=0.0)
    sender = PfabricSender(sim, topo.hosts[0], f,
                           PfabricConfig(initial_rtt=100 * USEC))
    from repro.sim.packet import make_data_packet
    pkt = make_data_packet(0, 1, 1, 0)
    sender.decorate_packet(pkt)
    assert pkt.priority == pytest.approx(30 * KB)
    assert not pkt.ecn_capable


def test_window_capped_by_flow_size():
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=2,
                        queue_factory=pfabric_queue_factory())
    f = Flow(flow_id=1, src=topo.hosts[0].node_id,
             dst=topo.hosts[1].node_id, size_bytes=3 * KB, start_time=0.0)
    sender = PfabricSender(sim, topo.hosts[0], f,
                           PfabricConfig(initial_rtt=100 * USEC, init_cwnd=38))
    assert sender.cwnd == 2  # 3 KB = 2 packets


def test_single_flow_completes_at_line_rate():
    _, flows = run_pfabric([(0, 1, 100 * KB, 0.0)])
    f = flows[0]
    assert f.completed
    # No slow start: one BDP-window blast, ~0.9 ms.
    assert f.fct < 1.2e-3


def test_short_flow_preempts_in_network():
    _, flows = run_pfabric([
        (0, 3, 1_000 * KB, 0.0),
        (1, 3, 20 * KB, 0.001),
    ])
    short, long_flow = flows[1], flows[0]
    assert short.completed
    assert short.fct < 1e-3  # cuts straight through the long flow


def test_contention_causes_drops_but_flows_complete():
    _, flows = run_pfabric([
        (0, 3, 300 * KB, 0.0),
        (1, 3, 300 * KB, 0.0),
        (2, 3, 300 * KB, 0.0),
    ], queue_pkts=12)
    assert all(f.completed for f in flows)
    total_retx = sum(f.retransmissions for f in flows)
    assert total_retx > 0  # line-rate start into a shallow buffer drops


def test_sjf_completion_order():
    _, flows = run_pfabric([
        (0, 3, 500 * KB, 0.0),
        (1, 3, 50 * KB, 0.0),
        (2, 3, 200 * KB, 0.0),
    ])
    by_size = sorted(flows, key=lambda f: f.size_bytes)
    fcts = [f.fct for f in by_size]
    assert fcts[0] < fcts[1] < fcts[2]


def test_loss_rate_grows_with_fanin():
    topo_small, _ = run_pfabric(
        [(i, 5, 200 * KB, 0.0) for i in range(2)], num_hosts=6)
    topo_big, _ = run_pfabric(
        [(i, 5, 200 * KB, 0.0) for i in range(5)], num_hosts=6)
    small = NetworkCounters.from_network(topo_small.network, 1.0)
    big = NetworkCounters.from_network(topo_big.network, 1.0)
    assert big.loss_rate >= small.loss_rate


def test_probe_mode_engages_after_persistent_timeouts():
    """pFabric 4.3: after PROBE_MODE_THRESHOLD consecutive timeouts the
    sender stops retransmitting payloads and emits header-only probes."""
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=2,
                        queue_factory=pfabric_queue_factory())
    f = Flow(flow_id=1, src=topo.hosts[0].node_id,
             dst=topo.hosts[1].node_id, size_bytes=100 * KB, start_time=0.0)
    cfg = PfabricConfig(initial_rtt=100 * USEC)
    sender = PfabricSender(sim, topo.hosts[0], f, cfg)
    sender.start()
    sim.run(until=0.2e-3)
    for _ in range(PROBE_MODE_THRESHOLD - 1):
        sender.on_timeout_window_update()
    assert not sender.probe_mode
    sender.on_timeout_window_update()
    assert sender.probe_mode
    sender._inflight.add(sender.cum_ack)
    sender.handle_timeout()
    assert f.probes_sent == 1
    # A probe reply saying "missing" exits probe mode and requeues data.
    from repro.sim.packet import Packet, PacketKind
    reply = Packet(PacketKind.ACK, f.dst, f.src, f.flow_id, seq=sender.cum_ack)
    reply.ack_sacks = -1
    assert sender.handle_special_ack(reply)
    assert not sender.probe_mode
