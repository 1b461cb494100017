"""Unit tests for the link model."""

import pytest

from repro.metrics.overhead import NetworkCounters
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import make_ack_packet, make_data_packet
from repro.sim.queues import DropTailQueue
from repro.utils.units import GBPS, USEC


class SinkNode(Node):
    def __init__(self, sim, node_id=1, name="sink"):
        super().__init__(sim, node_id, name)
        self.received = []

    def receive(self, pkt, from_link):
        self.received.append((self.sim.now, pkt))


def make_link(sim, capacity=1 * GBPS, delay=10 * USEC, queue=None):
    src = SinkNode(sim, 0, "src")
    dst = SinkNode(sim, 1, "dst")
    link = Link(sim, "src->dst", src, dst, capacity, delay,
                queue if queue is not None else DropTailQueue(100))
    return link, dst


def test_delivery_time_is_serialization_plus_propagation():
    sim = Simulator()
    link, dst = make_link(sim)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    sim.run()
    # 1500 B at 1 Gbps = 12 us, plus 10 us propagation.
    assert dst.received[0][0] == pytest.approx(22 * USEC)


def test_back_to_back_packets_serialize():
    sim = Simulator()
    link, dst = make_link(sim)
    for i in range(3):
        link.send(make_data_packet(0, 1, 1, i, size=1500))
    sim.run()
    times = [t for t, _ in dst.received]
    assert times[1] - times[0] == pytest.approx(12 * USEC)
    assert times[2] - times[1] == pytest.approx(12 * USEC)


def test_delivery_preserves_fifo_order():
    sim = Simulator()
    link, dst = make_link(sim)
    for i in range(5):
        link.send(make_data_packet(0, 1, 1, i))
    sim.run()
    assert [p.seq for _, p in dst.received] == list(range(5))


def test_send_returns_false_on_drop():
    sim = Simulator()
    link, _ = make_link(sim, queue=DropTailQueue(capacity_pkts=1))
    # First packet starts transmitting immediately (dequeued), second sits in
    # the queue, third is dropped.
    assert link.send(make_data_packet(0, 1, 1, 0))
    assert link.send(make_data_packet(0, 1, 1, 1))
    assert not link.send(make_data_packet(0, 1, 1, 2))


def test_counters_and_utilization():
    sim = Simulator()
    link, _ = make_link(sim)
    for i in range(4):
        link.send(make_data_packet(0, 1, 1, i, size=1500))
    sim.run()
    assert link.pkts_sent == 4
    assert link.bytes_sent == 6000
    assert link.data_pkts_offered == 4
    assert 0 < link.utilization(elapsed=1.0) < 1e-3


def test_loss_rate():
    sim = Simulator()
    link, _ = make_link(sim, queue=DropTailQueue(capacity_pkts=1))
    for i in range(4):
        link.send(make_data_packet(0, 1, 1, i))
    sim.run()
    assert link.loss_rate == pytest.approx(2 / 4)


def test_dropped_acks_do_not_raise_data_loss_rate():
    """Loss rate is data drops over data offered: a dropped ACK is not a
    lost data packet, at the link or network-wide."""
    sim = Simulator()
    net = Network(sim)
    a, b = net.add_host("a"), net.add_host("b")
    link, _ = net.connect(a, b, 1 * GBPS, 10 * USEC,
                          lambda: DropTailQueue(capacity_pkts=1))
    first = make_data_packet(a.node_id, b.node_id, 1, 0)
    link.send(first)                              # on the wire
    link.send(make_data_packet(a.node_id, b.node_id, 1, 1))  # queued
    link.send(make_ack_packet(first, 1))          # dropped ACK
    link.send(make_data_packet(a.node_id, b.node_id, 1, 2))  # dropped data
    assert link.queue.drops == 2
    assert link.loss_rate == pytest.approx(1 / 3)
    counters = NetworkCounters.from_network(net, 1.0)
    assert counters.data_pkts_dropped == 1
    assert counters.loss_rate == pytest.approx(1 / 3)


def test_processors_run_on_send():
    sim = Simulator()
    link, _ = make_link(sim)
    seen = []

    class Recorder:
        def process(self, pkt, lnk):
            seen.append((pkt.seq, lnk.name))

    link.processors.append(Recorder())
    link.send(make_data_packet(0, 1, 1, 7))
    assert seen == [(7, "src->dst")]


def test_invalid_parameters():
    sim = Simulator()
    src, dst = SinkNode(sim, 0), SinkNode(sim, 1)
    with pytest.raises(ValueError):
        Link(sim, "bad", src, dst, 0, 1e-6, DropTailQueue())
    with pytest.raises(ValueError):
        Link(sim, "bad", src, dst, 1e9, -1e-6, DropTailQueue())


# ---------------------------------------------------------------------------
# Fused hops: one event per uncontended hop, exact link-down semantics
# ---------------------------------------------------------------------------

def test_uncontended_hop_costs_one_event():
    sim = Simulator()
    link, dst = make_link(sim)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    sim.run()
    assert len(dst.received) == 1
    assert sim.events_processed == 1  # the delivery; no wake-up
    assert link.queue.enqueued_total == 1


def test_busy_during_and_after_a_frame():
    sim = Simulator()
    link, _ = make_link(sim)
    seen = []
    assert not link.busy
    link.send(make_data_packet(0, 1, 1, 0, size=1500))  # 12 us on the wire
    assert link.busy
    for t in (6 * USEC, 11.9 * USEC, 12.1 * USEC, 30 * USEC):
        sim.schedule_at(t, lambda: seen.append((link.busy, link.pkts_sent)))
    sim.run()
    assert seen == [(True, 0), (True, 0), (False, 1), (False, 1)]
    assert not link.busy


def test_short_flap_delivers_the_frame():
    """Back up before the frame's last bit leaves: the frame survives."""
    sim = Simulator()
    link, dst = make_link(sim)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    seen = []
    sim.schedule_at(4 * USEC, link.set_down)
    sim.schedule_at(6 * USEC, lambda: seen.append(link.pkts_sent))
    sim.schedule_at(8 * USEC, link.set_up)
    sim.run()
    assert seen == [0]
    assert [t for t, _ in dst.received] == [pytest.approx(22 * USEC)]
    assert (link.pkts_sent, link.bytes_sent, link.down_drops) == (1, 1500, 0)


def test_long_flap_corrupts_the_frame():
    """Still down when the frame ends: corrupted, never delivered, never
    counted as sent; the queued packet is flushed."""
    sim = Simulator()
    link, dst = make_link(sim)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    link.send(make_data_packet(0, 1, 1, 1, size=1500))
    sim.schedule_at(4 * USEC, link.set_down)
    sim.schedule_at(20 * USEC, link.set_up)
    sim.run()
    assert dst.received == []
    assert (link.pkts_sent, link.bytes_sent, link.down_drops) == (0, 0, 2)
    assert link.busy_time == pytest.approx(12 * USEC)
    # The line is usable again after the outage.
    link.send(make_data_packet(0, 1, 1, 2, size=1500))
    sim.run()
    assert [p.seq for _, p in dst.received] == [2]


def test_paused_link_resumes_its_queue():
    """``flush=False``: the frame on the wire is lost, queued packets wait
    out the outage and leave back to back once the link is up."""
    sim = Simulator()
    link, dst = make_link(sim)
    for i in range(3):
        link.send(make_data_packet(0, 1, 1, i, size=1500))
    sim.schedule_at(4 * USEC, link.set_down, False)
    sim.schedule_at(100 * USEC, link.set_up)
    sim.run()
    assert [p.seq for _, p in dst.received] == [1, 2]
    assert [t for t, _ in dst.received] == [pytest.approx(122 * USEC),
                                            pytest.approx(134 * USEC)]
    assert (link.pkts_sent, link.down_drops) == (2, 1)


def test_down_link_drops_arrivals():
    sim = Simulator()
    link, dst = make_link(sim)
    link.set_down()
    assert not link.send(make_data_packet(0, 1, 1, 0))
    link.set_up()
    sim.run()
    assert dst.received == []
    assert link.down_drops == 1


def test_arrival_at_frame_end_queues_behind_pending_wakeup():
    """A packet offered at exactly the instant a frame ends, before the
    link's wake-up has run, waits for that wake-up like any queued one."""
    sim = Simulator()
    link, dst = make_link(sim)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    link.send(make_data_packet(0, 1, 1, 1, size=1500))
    sim.schedule_at(12 * USEC, link.send, make_data_packet(0, 1, 1, 2,
                                                           size=1500))
    sim.run()
    assert [p.seq for _, p in dst.received] == [0, 1, 2]
    assert [t for t, _ in dst.received] == [pytest.approx(22 * USEC),
                                            pytest.approx(34 * USEC),
                                            pytest.approx(46 * USEC)]


def test_lossy_queue_takes_the_full_queue_path():
    from repro.faults import BernoulliLoss, LossyQueue

    sim = Simulator()
    link, dst = make_link(sim, queue=LossyQueue(DropTailQueue(100),
                                                BernoulliLoss(0.0)))
    for i in range(3):
        link.send(make_data_packet(0, 1, 1, i, size=1500))
    sim.run()
    assert [p.seq for _, p in dst.received] == [0, 1, 2]
    assert link.queue.enqueued_total == 3


@pytest.mark.parametrize("before_slot", [True, False])
def test_arrival_at_frame_end_follows_the_reserved_slot(before_slot):
    """At the exact instant a frame ends, an arrival ordered before the
    frame's wake-up slot waits for a wake-up; one ordered after it finds
    the line free, as it would behind an eager per-frame wake-up."""
    sim = Simulator()
    link, dst = make_link(sim)
    late = make_data_packet(0, 1, 1, 1, size=1500)
    if before_slot:
        sim.schedule_at(12 * USEC, link.send, late)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    if not before_slot:
        sim.schedule_at(12 * USEC, link.send, late)
    sim.run()
    assert [t for t, _ in dst.received] == [pytest.approx(22 * USEC),
                                            pytest.approx(34 * USEC)]
    # Two deliveries and the arrival; a wake-up only before the slot.
    assert sim.events_processed == (4 if before_slot else 3)
