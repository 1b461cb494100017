"""Tests for the shared reliable transport chassis (base sender/receiver)."""

import pytest

from repro.sim import Simulator, StarTopology
from repro.sim.packet import PacketKind
from repro.sim.queues import DropTailQueue
from repro.transports import Flow, ReceiverAgent, TcpSender
from repro.transports.base import SenderAgent, TransportConfig
from repro.utils.units import GBPS, KB, USEC


def run_flow(size_bytes=30 * KB, queue_factory=None, sender_cls=TcpSender,
             config=None, until=5.0, num_hosts=4):
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=num_hosts, link_bps=1 * GBPS,
                        rtt=100 * USEC, queue_factory=queue_factory)
    flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                dst=topo.hosts[1].node_id, size_bytes=size_bytes,
                start_time=0.0)
    completions = []
    ReceiverAgent(sim, topo.hosts[1], flow, on_complete=completions.append)
    done = []
    sender = sender_cls(sim, topo.hosts[0], flow,
                        config or TransportConfig(initial_rtt=100 * USEC),
                        on_done=done.append)
    sim.schedule(0.0, sender.start)
    sim.run(until=until)
    return sim, flow, sender, completions, done


def test_single_flow_completes():
    sim, flow, sender, completions, done = run_flow()
    assert flow.completed
    assert completions == [flow]
    assert done == [flow]
    assert sender.finished


def test_fct_close_to_ideal():
    # 30 KB = 20 packets; serialization 20 x 12 us = 240 us (+RTT, slow start).
    _, flow, *_ = run_flow(size_bytes=30 * KB)
    assert 240 * USEC < flow.fct < 2e-3


def test_completion_callback_fires_once():
    _, flow, _, completions, _ = run_flow()
    assert len(completions) == 1


def test_tail_packet_carries_remainder():
    # 3001 bytes = 2 full packets + 1 byte; receiver still completes.
    _, flow, *_ = run_flow(size_bytes=3001)
    assert flow.total_pkts == 3
    assert flow.completed


def test_single_packet_flow():
    _, flow, *_ = run_flow(size_bytes=100)
    assert flow.total_pkts == 1
    assert flow.completed


def test_no_retransmissions_on_clean_path():
    _, flow, *_ = run_flow()
    assert flow.retransmissions == 0
    assert flow.timeouts == 0


def test_loss_recovery_with_tiny_queue():
    # A 4-packet buffer forces drops during slow start; the flow must still
    # complete via fast retransmit / RTO.
    _, flow, *_ = run_flow(
        size_bytes=150 * KB,
        queue_factory=lambda: DropTailQueue(capacity_pkts=4),
        until=10.0,
    )
    assert flow.completed
    assert flow.retransmissions > 0


def test_sender_detaches_after_finish():
    sim, flow, sender, _, _ = run_flow()
    assert flow.flow_id not in sender.host._senders


def test_rtt_estimate_converges():
    _, flow, sender, _, _ = run_flow(size_bytes=60 * KB)
    # True RTT is 100 us propagation + some serialization/queueing.
    assert 90 * USEC < sender.srtt < 1e-3
    assert sender.base_rtt >= 100 * USEC


def test_remaining_bytes_decreases_to_zero():
    _, flow, sender, _, _ = run_flow()
    assert sender.remaining_bytes == 0


def test_cwnd_grows_during_transfer():
    cfg = TransportConfig(initial_rtt=100 * USEC, init_cwnd=2.0)
    _, flow, sender, _, _ = run_flow(size_bytes=150 * KB, config=cfg)
    assert sender.cwnd > 2.0


def test_two_flows_both_complete_through_shared_bottleneck():
    # Plain Reno: slow-start races make exact fairness timing-dependent
    # (that is realistic); the invariant is that both flows finish and the
    # shared link carried their full volume.  DCTCP's fairness is asserted
    # in test_dctcp_family / test_integration.
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=4, link_bps=1 * GBPS, rtt=100 * USEC)
    flows = []
    for i, src in enumerate([0, 1]):
        f = Flow(flow_id=10 + i, src=topo.hosts[src].node_id,
                 dst=topo.hosts[2].node_id, size_bytes=400 * KB, start_time=0.0)
        ReceiverAgent(sim, topo.hosts[2], f)
        TcpSender(sim, topo.hosts[src], f,
                  TransportConfig(initial_rtt=100 * USEC)).start()
        flows.append(f)
    sim.run(until=5.0)
    assert all(f.completed for f in flows)
    # Neither can beat the aggregate serialization floor of 800 KB at 1 Gbps.
    assert max(f.fct for f in flows) > 6.4e-3


def test_probe_ack_reports_missing_data():
    """The receiver's probe reply distinguishes received from missing seqs."""
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=2)
    flow = Flow(flow_id=5, src=topo.hosts[0].node_id,
                dst=topo.hosts[1].node_id, size_bytes=10 * KB, start_time=0.0)
    rx = ReceiverAgent(sim, topo.hosts[1], flow)
    acks = []
    topo.hosts[0].attach_sender(
        5, type("S", (), {"on_packet": staticmethod(acks.append)})())
    from repro.sim.packet import Packet
    probe = Packet(PacketKind.PROBE, topo.hosts[0].node_id,
                   topo.hosts[1].node_id, 5, seq=0)
    topo.hosts[0].send(probe)
    sim.run()
    assert len(acks) == 1
    assert acks[0].ack_sacks == -1  # nothing received yet


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        TransportConfig(init_cwnd=0)
    with pytest.raises(ValueError):
        TransportConfig(min_rto=-1)
