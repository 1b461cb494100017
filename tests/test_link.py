"""Unit tests for the link model."""

import pytest

from repro.metrics.overhead import NetworkCounters
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.network import Network
from repro.sim.node import Host, Node, Switch
from repro.sim.packet import (HEADER_SIZE, Packet, PacketKind,
                              make_ack_packet, make_data_packet)
from repro.sim.queues import DropTailQueue, PriorityQueueBank
from repro.sim.trace import Tracer
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


def test_allocator_sees_data_and_probes_never_acks():
    sim = Simulator()
    link, _ = make_link(sim)
    seen = []

    class Recorder:
        def process(self, pkt, lnk):
            seen.append((pkt.kind, pkt.seq, lnk.name))

    link.allocator = Recorder()
    data = make_data_packet(0, 1, 1, 7)
    link.send(data)
    link.send(make_ack_packet(data, 8))
    link.send(Packet(PacketKind.PROBE, 0, 1, 1, seq=9, size=HEADER_SIZE))
    assert seen == [(PacketKind.DATA, 7, "src->dst"),
                    (PacketKind.PROBE, 9, "src->dst")]


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


class ScriptedLoss:
    """A loss model that answers from a script and logs every draw."""

    kind = "scripted"

    def __init__(self, name, log, answers=()):
        self.name = name
        self.log = log
        self.answers = list(answers)

    def drop(self):
        self.log.append(self.name)
        return self.answers.pop(0) if self.answers else False


def test_lossy_link_drops_data_only():
    """An open loss window draws for DATA packets only: ACKs and probes
    pass.  A lost packet is booked as a queue drop, traced with reason
    ``injected-loss``."""
    sim = Simulator()
    sim.tracer = Tracer()
    link, dst = make_link(sim)
    log = []
    link.loss.append(ScriptedLoss("w", log, answers=[True] * 8))
    data = make_data_packet(0, 1, 1, 0, size=1500)
    assert link.send(data) is False
    assert link.send(make_ack_packet(data, 1)) is True
    assert link.send(Packet(PacketKind.PROBE, 0, 1, flow_id=1, seq=0,
                            size=HEADER_SIZE)) is True
    sim.run()
    assert log == ["w"]
    assert [p.kind for _, p in dst.received] == [PacketKind.ACK,
                                                 PacketKind.PROBE]
    assert link.loss_drops == link.data_drops == link.queue.drops == 1
    assert link.data_pkts_offered == 1
    assert [e.detail("reason") for e in sim.tracer.of("drop")] == [
        "injected-loss"]


def test_down_link_draws_no_loss_coin():
    sim = Simulator()
    link, dst = make_link(sim)
    log = []
    link.loss.append(ScriptedLoss("w", log, answers=[True]))
    link.set_down()
    assert link.send(make_data_packet(0, 1, 1, 0, size=1500)) is False
    assert log == []
    assert link.down_drops == 1 and link.loss_drops == 0


def test_loss_windows_draw_newest_first():
    """Overlapping windows draw newest first, and the first drop wins."""
    sim = Simulator()
    link, dst = make_link(sim)
    log = []
    link.loss.append(ScriptedLoss("old", log, answers=[True, False]))
    link.loss.append(ScriptedLoss("new", log, answers=[True, False, False]))
    for i in range(3):
        link.send(make_data_packet(0, 1, 1, i, size=1500))
    sim.run()
    # The newest drops the first packet, the oldest the second; the third
    # passes both.
    assert log == ["new", "new", "old", "new", "old"]
    assert [p.seq for _, p in dst.received] == [2]
    assert link.loss_drops == link.queue.drops == 2


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


# ---------------------------------------------------------------------------
# Handoff: an arrival at a switch port just as its frame ends starts at once
# ---------------------------------------------------------------------------

def make_port(sim, src, queue=None):
    """A 1 Gbps, 10 us link from ``src`` to a sink, routed for host 1."""
    dst = SinkNode(sim, 1, "dst")
    link = Link(sim, f"{src.name}->dst", src, dst, 1 * GBPS, 10 * USEC,
                queue if queue is not None else DropTailQueue(100))
    src.routes[1] = link
    return link, dst


@pytest.mark.parametrize("src_type,events", [(Switch, 3), (Host, 4)])
def test_arrival_at_frame_end_hands_off_only_at_a_switch(src_type, events):
    """A packet forwarded by a switch at the instant the port's frame ends,
    with nothing else due first, starts its frame in the same event: one
    event fewer than queueing behind a wake-up, same delivery times.  A
    host may run more code after ``send`` (its transport posts timers),
    so a host-sourced link always takes the wake-up."""
    sim = Simulator()
    src = src_type(sim, 0, "src")
    link, dst = make_port(sim, src)
    late = make_data_packet(0, 1, 1, 1, size=1500)
    # Posted before the first frame claims its wake-up slot, so at 12 us
    # the frame is still on the wire when the packet arrives.
    if src_type is Switch:
        sim.schedule_at(12 * USEC, src.receive, late, None)
    else:
        sim.schedule_at(12 * USEC, src.send, late)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    sim.run()
    assert [t for t, _ in dst.received] == [pytest.approx(22 * USEC),
                                            pytest.approx(34 * USEC)]
    # Two deliveries and the arrival; a wake-up only behind a host.
    assert sim.events_processed == events
    assert (link.pkts_sent, link.bytes_sent) == (2, 3000)
    assert link.queue.enqueued_total == 2
    assert link.busy_time == pytest.approx(24 * USEC)


def test_lossy_switch_port_still_hands_off():
    """A loss window that drops nothing leaves a switch port's handoff, and
    its deliveries and counters, as on a clean port."""
    sim = Simulator()
    switch = Switch(sim, 0, "sw")
    link, dst = make_port(sim, switch)
    log = []
    link.loss.append(ScriptedLoss("w", log))
    sim.schedule_at(12 * USEC, switch.receive,
                    make_data_packet(0, 1, 1, 1, size=1500), None)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    sim.run()
    assert log == ["w", "w"]
    assert [t for t, _ in dst.received] == [pytest.approx(22 * USEC),
                                            pytest.approx(34 * USEC)]
    assert sim.events_processed == 3
    assert link.queue.enqueued_total == 2 and link.loss_drops == 0


def test_handoff_yields_to_an_entry_ahead_of_the_slot():
    """Two packets reach a priority port at the instant its frame ends,
    low priority first.  The second arrival orders before the frame's
    wake-up slot, so the first must not hand off: the wake-up then picks
    the high-priority packet, as the eager model does."""
    sim = Simulator()
    switch = Switch(sim, 0, "sw")
    link, dst = make_port(sim, switch, PriorityQueueBank(num_queues=4))
    low = make_data_packet(0, 1, 1, 1, size=1500)
    low.queue_index = 3
    high = make_data_packet(0, 1, 2, 2, size=1500)
    high.queue_index = 0
    sim.schedule_at(12 * USEC, switch.receive, low, None)
    sim.schedule_at(12 * USEC, switch.receive, high, None)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    sim.run()
    assert [p.seq for _, p in dst.received] == [0, 2, 1]
    assert [t for t, _ in dst.received] == [pytest.approx(22 * USEC),
                                            pytest.approx(34 * USEC),
                                            pytest.approx(46 * USEC)]
    # Two arrivals, three deliveries, and a wake-up at the end of each of
    # the first two frames.
    assert sim.events_processed == 7


def test_wakeup_push_goes_through_post_at():
    """The wake-up pushed into its claimed slot is an ordinary post_at
    call (so wrappers of the scheduling methods see it), and it leaves the
    sequence counter where it was."""
    calls = []

    class Recording(Simulator):
        def post_at(self, time, fn, *args):
            calls.append(fn)
            return super().post_at(time, fn, *args)

    sim = Recording()
    link, dst = make_link(sim)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    seq = sim.seq
    link.send(make_data_packet(0, 1, 1, 1, size=1500))  # queued: wake up
    assert calls[-1] == link._wakeup
    assert sim.seq == seq
    sim.run()
    assert [p.seq for _, p in dst.received] == [0, 1]
