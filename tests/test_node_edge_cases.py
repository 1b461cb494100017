"""Edge-case tests for hosts, switches, and packet demux."""

import pytest

from repro.sim import Simulator, StarTopology
from repro.sim.packet import Packet, PacketKind, make_data_packet
from repro.transports import Flow, ReceiverAgent, TcpSender
from repro.utils.units import GBPS, KB, USEC


def star(num_hosts=3):
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=num_hosts)
    return sim, topo


class TestHostDemux:
    def test_stale_packet_counted_not_crashing(self):
        sim, topo = star()
        host = topo.hosts[1]
        pkt = make_data_packet(topo.hosts[0].node_id, host.node_id, 999, 0)
        host.receive(pkt, None)
        assert host.unroutable_packets == 1

    def test_ack_routed_to_sender_agent(self):
        sim, topo = star()
        got = []
        topo.hosts[0].attach_sender(
            7, type("A", (), {"on_packet": staticmethod(got.append)})())
        ack = Packet(PacketKind.ACK, topo.hosts[1].node_id,
                     topo.hosts[0].node_id, 7)
        topo.hosts[0].receive(ack, None)
        assert len(got) == 1

    def test_probe_routed_to_receiver_agent(self):
        sim, topo = star()
        got = []
        topo.hosts[1].attach_receiver(
            7, type("A", (), {"on_packet": staticmethod(got.append)})())
        probe = Packet(PacketKind.PROBE, topo.hosts[0].node_id,
                       topo.hosts[1].node_id, 7)
        topo.hosts[1].receive(probe, None)
        assert len(got) == 1

    def test_stale_ack_counted_not_crashing(self):
        sim, topo = star()
        host = topo.hosts[0]
        ack = Packet(PacketKind.ACK, topo.hosts[1].node_id, host.node_id, 999)
        host.receive(ack, None)
        assert host.unroutable_packets == 1

    def test_detach_flow_idempotent(self):
        sim, topo = star()
        host = topo.hosts[0]
        host.attach_sender(1, object())
        host.detach_flow(1)
        host.detach_flow(1)  # second call is a no-op
        assert 1 not in host._senders

    def test_same_host_flow_delivered_locally(self):
        sim, topo = star()
        host = topo.hosts[0]
        got = []
        host.attach_receiver(
            5, type("A", (), {"on_packet": staticmethod(got.append)})())
        pkt = make_data_packet(host.node_id, host.node_id, 5, 0)
        host.send(pkt)
        sim.run()
        assert len(got) == 1


class TestFlowValidation:
    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Flow(flow_id=1, src=0, dst=1, size_bytes=0, start_time=0.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Flow(flow_id=1, src=0, dst=1, size_bytes=1, start_time=-1.0)

    def test_zero_deadline_rejected(self):
        with pytest.raises(ValueError):
            Flow(flow_id=1, src=0, dst=1, size_bytes=1, start_time=0.0,
                 deadline=0.0)

    def test_met_deadline_none_without_deadline(self):
        f = Flow(flow_id=1, src=0, dst=1, size_bytes=1, start_time=0.0)
        assert f.met_deadline is None

    def test_met_deadline_false_while_incomplete(self):
        f = Flow(flow_id=1, src=0, dst=1, size_bytes=1, start_time=0.0,
                 deadline=1.0)
        assert f.met_deadline is False

    def test_total_pkts_rounds_up(self):
        f = Flow(flow_id=1, src=0, dst=1, size_bytes=1501, start_time=0.0)
        assert f.total_pkts == 2

    def test_tiny_flow_one_packet(self):
        f = Flow(flow_id=1, src=0, dst=1, size_bytes=1, start_time=0.0)
        assert f.total_pkts == 1


class TestTwoSimultaneousFlowsSameHostPair:
    def test_independent_flow_demux(self):
        sim, topo = star()
        src, dst = topo.hosts[0], topo.hosts[1]
        flows = []
        for fid in (1, 2):
            f = Flow(flow_id=fid, src=src.node_id, dst=dst.node_id,
                     size_bytes=30 * KB, start_time=0.0)
            ReceiverAgent(sim, dst, f)
            TcpSender(sim, src, f).start()
            flows.append(f)
        sim.run(until=1.0)
        assert all(f.completed for f in flows)
