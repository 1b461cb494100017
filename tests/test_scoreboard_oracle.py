"""Differential oracle: the O(window) reliability scoreboards against lists.

``ReceiverAgent`` and ``SenderAgent`` keep a cumulative ack plus the set
of seqs received (or acked) above it.  The reference below is the plain
per-packet list of booleans those two replaced.  One receiver and one
sender are driven with random arrivals and ACKs: duplicates, out-of-order
and out-of-range seqs, probes answered "received" and "missing", and
PASE's cumulative booking on a probe reply.  After every step the agents
must agree with the reference on the cumulative ack, whether the ACK
newly acked a packet, ``pkts_acked``, the probe's answer and which seq
``_next_seq_to_send`` picks after skipping acked retransmissions.
"""

import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.endhost import PaseSender
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketKind, make_data_packet
from repro.transports import Flow, ReceiverAgent
from repro.transports.base import SenderAgent, TransportConfig
from repro.workloads import BACKGROUND_FLOW_BYTES


class _Host:
    """Just enough of a host: records what the agents send."""

    node_id = 0

    def __init__(self):
        self.sent = []

    def send(self, pkt):
        self.sent.append(pkt)

    def attach_receiver(self, flow_id, agent):
        pass

    def attach_sender(self, flow_id, agent):
        pass

    def detach_flow(self, flow_id):
        pass


class _Sender(SenderAgent):
    """A chassis sender whose window never opens by itself (the test pulls
    each transmission through ``_next_seq_to_send``) and which answers
    probe replies with PASE's own code."""

    handle_special_ack = PaseSender.handle_special_ack

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cwnd = 0.0
        self._probe_seq = None
        self.newly_acked = []

    def on_ack_window_update(self, ack, newly_acked):
        self.newly_acked.append(newly_acked)

    def on_fast_retransmit(self):
        pass

    def on_timeout_window_update(self):
        pass


def _advance(marks, cum):
    while cum < len(marks) and marks[cum]:
        cum += 1
    return cum


def _ack(seq, sack, ack_seq):
    ack = Packet(PacketKind.ACK, 1, 0, 1, seq=seq)
    ack.ack_sacks = sack
    ack.ack_seq = ack_seq
    return ack


class _Reference:
    """The list-of-bools scoreboards, stepped beside the agents."""

    def __init__(self, total):
        self.received = [False] * total
        self.recv_cum = 0
        self.acked = [False] * total
        self.cum = 0
        self.pkts_acked = 0

    def receive(self, seq):
        if 0 <= seq < len(self.received) and not self.received[seq]:
            self.received[seq] = True
            self.recv_cum = _advance(self.received, self.recv_cum)

    def got(self, seq):
        return 0 <= seq < len(self.received) and self.received[seq]

    def book(self, seq):
        if 0 <= seq < len(self.acked) and not self.acked[seq]:
            self.acked[seq] = True
            self.pkts_acked += 1
            return True
        return False


#: Each op is (kind, a, b).  Seqs are drawn as ``a`` packets past the
#: current cumulative ack, so holes, their fills and the flow's two ends
#: all come up; ``b`` is a probe reply's cumulative ack, the same way.
OPS = st.lists(
    st.tuples(
        st.sampled_from(["data", "probe", "ack", "probe-received",
                         "probe-missing", "timeout", "send"]),
        st.integers(-3, 6),
        st.integers(-3, 6),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(total=st.integers(1, 12), ops=OPS)
def test_scoreboards_match_list_reference(total, ops):
    sim = Simulator()
    flow = Flow(flow_id=1, src=0, dst=1, size_bytes=total * 1500,
                start_time=0.0)
    assert flow.total_pkts == total
    recv_host, send_host = _Host(), _Host()
    completions = []
    receiver = ReceiverAgent(sim, recv_host, flow,
                             on_complete=completions.append)
    sender = _Sender(sim, send_host, flow, TransportConfig())
    ref = _Reference(total)

    for kind, a, b in ops:
        if kind in ("data", "probe"):
            seq = ref.recv_cum + a
            pkt = make_data_packet(0, 1, 1, seq, size=1500)
            if kind == "probe":
                pkt.kind = PacketKind.PROBE
            receiver.on_packet(pkt)
            reply = recv_host.sent[-1]
            if kind == "probe":
                assert reply.ack_sacks == (seq if ref.got(seq) else -1)
            else:
                ref.receive(seq)
                assert reply.ack_sacks == seq
            assert reply.ack_seq == receiver.cum_ack == ref.recv_cum
            assert all(s > ref.recv_cum for s in receiver._beyond)
            assert completions == ([flow] if ref.recv_cum == total else [])
            continue

        if sender.finished:
            continue
        if kind == "send":
            retx = [s for s in sender._retx_queue
                    if not ref.acked[s] and s not in sender._inflight]
            if retx:
                expected = (retx[0], True)
            elif sender.next_new < total:
                expected = (sender.next_new, False)
            else:
                expected = None
            picked = sender._next_seq_to_send()
            assert picked == expected
            if picked is not None:
                sender._transmit(picked[0], retransmit=picked[1])
        elif kind == "timeout":
            sender.handle_timeout()
        elif kind == "probe-missing":
            # The reply names the probed seq; its sack is -1.  Everything
            # in flight is presumed lost, and the probed seq goes first
            # unless it is queued already or acked.
            seq = min(max(ref.cum + a, 0), total - 1)
            expected = list(sender._retx_queue)
            expected += [s for s in sorted(sender._inflight)
                         if s not in expected]
            if seq not in expected and not ref.acked[seq]:
                expected.insert(0, seq)
            sender._probe_seq = seq
            assert sender.handle_special_ack(_ack(seq, -1, b))
            assert sender._retx_queue == expected
        else:
            sack = ref.cum + a
            if sack == -1:
                sack = -2  # a sack of -1 is a "missing" probe reply
            b = ref.cum + b
            before = len(sender.newly_acked)
            if kind == "probe-received":
                # The reply's cumulative ack is the receiver's: at most
                # the flow's packet count.
                b = min(b, total)
                sender._probe_seq = sack
                for seq in range(ref.cum, b):
                    if seq != sack:
                        ref.book(seq)
            newly = ref.book(sack)
            ref.cum = _advance(ref.acked, ref.cum)
            sender.on_packet(_ack(max(sack, 0), sack, b))
            assert sender.newly_acked[before:] == [newly]
            assert sender.finished == (ref.cum == total)
        assert sender.cum_ack == ref.cum
        assert sender.pkts_acked == ref.pkts_acked
        assert [sender.is_acked(s) for s in range(total)] == ref.acked
        assert all(s > ref.cum for s in sender._sacked)


@settings(max_examples=200, deadline=None)
@given(order=st.integers(1, 12).flatmap(
           lambda n: st.permutations(range(n))),
       repeats=st.lists(st.integers(0, 11)),
       lost=st.sets(st.integers(0, 30)))
def test_any_arrival_order_matches_list_reference(order, repeats, lost):
    """Every seq arrives once, in any order, with duplicates in between,
    and the receiver is probed for each arrival and for its first hole.
    The receiver's ACK for each arrival goes straight to the sender unless
    it is lost; after a lost ACK the sender probes its first unacked seq,
    and a "received" reply books everything below the receiver's
    cumulative ack, as PASE does."""
    total = len(order)
    sim = Simulator()
    flow = Flow(flow_id=1, src=0, dst=1, size_bytes=total * 1500,
                start_time=0.0)
    recv_host = _Host()
    receiver = ReceiverAgent(sim, recv_host, flow)
    sender = _Sender(sim, _Host(), flow, TransportConfig())
    ref = _Reference(total)
    arrivals = list(order)
    for i, seq in enumerate(repeats):
        arrivals.insert(i * 2 % (len(arrivals) + 1), seq % total)
    for i, seq in enumerate(arrivals):
        receiver.on_packet(make_data_packet(0, 1, 1, seq, size=1500))
        ref.receive(seq)
        assert receiver.cum_ack == ref.recv_cum
        reply = recv_host.sent[-1]
        for probed in (seq, ref.recv_cum):
            probe = make_data_packet(0, 1, 1, probed, size=1500)
            probe.kind = PacketKind.PROBE
            receiver.on_packet(probe)
            answer = recv_host.sent[-1].ack_sacks
            assert answer == (probed if ref.got(probed) else -1)
        if i in lost:
            probed = min(ref.cum, total - 1)
            if not ref.got(probed):
                continue
            sender._probe_seq = probed
            reply = _ack(probed, probed, receiver.cum_ack)
            for booked in range(ref.cum, receiver.cum_ack):
                if booked != probed:
                    ref.book(booked)
            seq = probed
        newly = ref.book(seq)
        ref.cum = _advance(ref.acked, ref.cum)
        sender.on_packet(reply)
        if not sender.finished:
            assert sender.newly_acked[-1] == newly
        assert sender.cum_ack == ref.cum
        assert sender.pkts_acked == ref.pkts_acked
    assert flow.completed


class _FixedWindow(SenderAgent):
    def on_ack_window_update(self, ack, newly_acked):
        pass

    def on_fast_retransmit(self):
        pass


def test_reliability_state_is_o_window():
    """A background-sized flow's sender and receiver cost kilobytes, at
    construction and after thousands of reordered ACKs."""
    sim = Simulator()
    flow = Flow(flow_id=1, src=0, dst=1, size_bytes=BACKGROUND_FLOW_BYTES,
                start_time=0.0)
    assert flow.total_pkts > 600_000
    wire = _Host()
    acks = _Host()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        receiver = ReceiverAgent(sim, acks, flow)
        sender = _FixedWindow(sim, wire, flow, TransportConfig(init_cwnd=16))
        built, _ = tracemalloc.get_traced_memory()
        assert built - base < 64 * 1024

        # Fixed 16-packet window, delivered in a shuffled order, so both
        # sides hold seqs above their cumulative ack along the way.
        sender.start()
        rng = random.Random(7)
        for _ in range(2000):
            rng.shuffle(wire.sent)
            receiver.on_packet(wire.sent.pop())
            sender.on_packet(acks.sent.pop())
        assert sender.cum_ack > 1900
        after, _ = tracemalloc.get_traced_memory()
        assert after - base < 64 * 1024
    finally:
        tracemalloc.stop()
