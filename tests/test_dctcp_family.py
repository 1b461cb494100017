"""Tests for DCTCP, D2TCP, and L2DCT control laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, StarTopology
from repro.sim.packet import Packet, PacketKind
from repro.transports import (
    D2tcpSender,
    DctcpSender,
    Flow,
    L2dctSender,
    ReceiverAgent,
    TransportConfig,
)
from repro.transports.dctcp import DctcpAlphaEstimator
from repro.utils.units import GBPS, KB, MB, USEC


class TestAlphaEstimator:
    def test_starts_at_zero(self):
        est = DctcpAlphaEstimator()
        assert est.alpha == 0.0

    def test_no_marks_keeps_alpha_zero(self):
        est = DctcpAlphaEstimator()
        est.begin_window(4)
        for _ in range(10):
            est.observe(False, 4)
        assert est.alpha == 0.0

    def test_all_marked_converges_to_one(self):
        est = DctcpAlphaEstimator(g=0.5)
        est.begin_window(2)
        for _ in range(40):
            est.observe(True, 2)
        assert est.alpha > 0.99

    def test_window_rollover_returns_true(self):
        est = DctcpAlphaEstimator()
        est.begin_window(3)
        assert not est.observe(False, 3)
        assert not est.observe(False, 3)
        assert est.observe(False, 3)

    def test_partial_marks_track_fraction(self):
        est = DctcpAlphaEstimator(g=1.0)  # no smoothing: alpha = fraction
        est.begin_window(4)
        for marked in (True, False, False, False):
            est.observe(marked, 4)
        assert est.alpha == pytest.approx(0.25)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.floats(min_value=0.5, max_value=40.0)),
                max_size=80))
def test_sender_inline_update_matches_estimator_observe(acks):
    """``DctcpSender.on_ack_window_update`` runs the estimator's per-ACK
    update inline; step for step it must leave the estimator exactly as
    :meth:`DctcpAlphaEstimator.observe` leaves a reference one."""
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=2)
    flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                dst=topo.hosts[1].node_id, size_bytes=100 * KB,
                start_time=0.0)
    sender = DctcpSender(sim, topo.hosts[0], flow)
    ref = DctcpAlphaEstimator()
    ref.begin_window(sender.cwnd)
    for marked, cwnd in acks:
        ack = Packet(PacketKind.ACK, 1, 0, 1)
        ack.ecn_echo = marked
        sender.cwnd = cwnd
        ref.observe(marked, cwnd)
        sender.on_ack_window_update(ack, True)
        est = sender.estimator
        assert ((est.alpha, est._acked, est._marked, est._window_target)
                == (ref.alpha, ref._acked, ref._marked, ref._window_target))


CONFIG = TransportConfig(initial_rtt=100 * USEC)


def build(sender_cls, config, size=200 * KB, deadline=None):
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=3, link_bps=1 * GBPS, rtt=100 * USEC)
    flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                dst=topo.hosts[1].node_id, size_bytes=size, start_time=0.0,
                deadline=deadline)
    ReceiverAgent(sim, topo.hosts[1], flow)
    sender = sender_cls(sim, topo.hosts[0], flow, config)
    return sim, topo, flow, sender


class TestDctcp:
    def test_completes_clean(self):
        sim, _, flow, _ = build(DctcpSender, CONFIG)
        sim.schedule(0.0, lambda: None)
        sim.run(until=0.0)
        # start manually
        sim2, _, flow2, sender2 = build(DctcpSender, CONFIG)
        sender2.start()
        sim2.run(until=1.0)
        assert flow2.completed

    def test_mark_reduces_window(self):
        _, _, _, sender = build(DctcpSender, CONFIG)
        sender.start()
        sender.cwnd = 10.0
        sender.estimator.alpha = 0.5
        sender._last_reduction_seq = -1
        ack = Packet(PacketKind.ACK, 1, 0, 1, seq=0)
        ack.ack_sacks = 0
        ack.ecn_echo = True
        before = sender.cwnd
        sender.on_ack_window_update(ack, newly_acked=True)
        assert sender.cwnd < before
        # alpha=0.5 (approx; the estimator folded in this window's sample)
        assert sender.cwnd == pytest.approx(before * (1 - sender.alpha / 2), rel=0.2)

    def test_one_reduction_per_window(self):
        _, _, _, sender = build(DctcpSender, CONFIG)
        sender.start()
        sender.cwnd = 16.0
        sender.next_new = 20
        sender.estimator.alpha = 1.0
        ack = Packet(PacketKind.ACK, 1, 0, 1, seq=0)
        ack.ecn_echo = True
        ack.ack_sacks = 0
        sender.on_ack_window_update(ack, newly_acked=True)
        first = sender.cwnd
        sender.on_ack_window_update(ack, newly_acked=True)
        # Second marked ACK in the same window: no further reduction
        # (it falls through to the increase path instead).
        assert sender.cwnd >= first

    def test_unmarked_acks_grow_window(self):
        _, _, _, sender = build(DctcpSender, CONFIG)
        sender.start()
        sender.cwnd = 4.0
        sender.ssthresh = 1.0
        ack = Packet(PacketKind.ACK, 1, 0, 1, seq=0)
        ack.ack_sacks = 0
        before = sender.cwnd
        sender.on_ack_window_update(ack, newly_acked=True)
        assert sender.cwnd == pytest.approx(before + 1 / before)


class TestD2tcp:
    def test_no_deadline_degenerates_to_dctcp(self):
        _, _, _, sender = build(D2tcpSender, CONFIG)
        assert sender.deadline_imminence() == 1.0
        sender.estimator.alpha = 0.4
        assert sender.backoff_factor() == pytest.approx(0.4)

    def test_imminence_clamped(self):
        _, _, _, sender = build(
            D2tcpSender, CONFIG,
            deadline=100.0)  # very far deadline
        sender.start()
        assert sender.deadline_imminence() == pytest.approx(0.5)

    def test_expired_deadline_most_aggressive(self):
        sim, _, _, sender = build(
            D2tcpSender, CONFIG,
            deadline=1e-9)
        sender.start()
        sim.run(until=0.01)
        assert sender.deadline_imminence() == pytest.approx(2.0)

    def test_near_deadline_backs_off_less(self):
        _, _, _, far = build(D2tcpSender, CONFIG,
                             deadline=100.0)
        far.start()
        far.estimator.alpha = 0.5
        # d = 0.5 -> p = alpha^0.5 > alpha; far flows back off MORE.
        assert far.backoff_factor() > 0.5
        _, _, _, near = build(D2tcpSender, CONFIG)
        near.estimator.alpha = 0.5
        near_p = near.backoff_factor()  # d = 1
        assert near_p == pytest.approx(0.5)
        assert far.backoff_factor() > near_p


class TestL2dct:
    def test_weight_starts_at_max(self):
        _, _, _, sender = build(L2dctSender, CONFIG)
        assert sender.weight() == pytest.approx(2.5)

    def test_weight_decreases_with_attained_service(self):
        _, _, _, sender = build(L2dctSender, CONFIG,
                                size=2 * MB)
        w0 = sender.weight()
        sender.pkts_acked = 100  # 150 KB attained
        w1 = sender.weight()
        sender.pkts_acked = 500  # 750 KB attained
        w2 = sender.weight()
        assert w0 > w1 > w2

    def test_weight_floors_at_min(self):
        _, _, _, sender = build(L2dctSender, CONFIG,
                                size=10 * MB)
        sender.pkts_acked = 10_000  # 15 MB >> ramp_high
        assert sender.weight() == pytest.approx(0.125)

    def test_long_flows_back_off_more(self):
        _, _, _, sender = build(L2dctSender, CONFIG,
                                size=10 * MB)
        sender.estimator.alpha = 0.5
        short_backoff = sender.backoff_factor()
        sender.pkts_acked = 10_000
        long_backoff = sender.backoff_factor()
        assert long_backoff > short_backoff

    def test_completes(self):
        sim, _, flow, sender = build(L2dctSender,
                                     CONFIG)
        sender.start()
        sim.run(until=1.0)
        assert flow.completed
