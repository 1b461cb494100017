"""Tests for PASE's end-host transport (Algorithm 2)."""

import pytest

from repro.core import (
    PaseConfig,
    PaseControlPlane,
    PaseReceiver,
    PaseSender,
    pase_queue_factory,
)
from repro.core.endhost import MIN_RTO_TOP
from repro.sim import Simulator, StarTopology
from repro.transports import Flow
from repro.utils.units import GBPS, KB, MSEC, USEC, bytes_to_bits


def build(num_hosts=6, config=None, rtt=100 * USEC):
    cfg = config or PaseConfig()
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=num_hosts, link_bps=1 * GBPS, rtt=rtt,
                        queue_factory=pase_queue_factory(cfg))
    cp = PaseControlPlane(sim, topo, cfg)
    return sim, topo, cp, cfg


def launch(sim, topo, cp, fid, src, dst, size, start=0.0, deadline=None,
           background=False):
    flow = Flow(flow_id=fid, src=topo.hosts[src].node_id,
                dst=topo.hosts[dst].node_id, size_bytes=size,
                start_time=start, deadline=deadline, background=background)
    sender_box = []

    def go():
        PaseReceiver(sim, topo.hosts[dst], flow)
        s = PaseSender(sim, topo.hosts[src], flow, cp)
        sender_box.append(s)
        s.start()

    sim.schedule_at(start, go)
    return flow, sender_box


class TestRateControl:
    def test_lone_flow_runs_in_top_queue(self):
        sim, topo, cp, cfg = build()
        flow, box = launch(sim, topo, cp, 1, 0, 1, 100 * KB)
        sim.run(until=0.05)
        assert flow.completed
        sender = box[0]
        assert sender.queue_index == 0
        # Near line rate: ~0.9 ms for 100 KB.
        assert flow.fct < 1.3e-3

    def test_reference_window_matches_rref(self):
        sim, topo, cp, cfg = build()
        flow, box = launch(sim, topo, cp, 1, 0, 1, 500 * KB)
        sim.run(until=0.3e-3)
        sender = box[0]
        expected = sender.reference_rate * sender.base_rtt / bytes_to_bits(1500)
        assert sender.cwnd == pytest.approx(max(1.0, expected), rel=0.3)

    def test_cached_reference_window_follows_rref_and_min_rtt(self):
        """The top queue's per-ACK window is cached; a new Rref or a new
        minimum RTT sample recomputes it from ``_reference_window``."""
        sim, topo, cp, cfg = build()
        flow, box = launch(sim, topo, cp, 1, 0, 1, 500 * KB)
        sim.run(until=0.3e-3)
        sender = box[0]
        assert sender.queue_index == 0 and not sender._is_intermediate

        def window_after_ack():
            sender._increase_window()
            return sender.cwnd

        assert window_after_ack() == max(1.0, sender._reference_window())
        sender.reference_rate /= 4
        assert window_after_ack() == max(1.0, sender._reference_window())
        sender._rtt_min_sample /= 2
        assert window_after_ack() == max(1.0, sender._reference_window())
        # A window changed elsewhere (a marked ACK's decrease) is pinned
        # back to the cached value on the next unmarked ACK.
        expected = sender.cwnd
        sender.cwnd = 1.0
        assert window_after_ack() == expected

    def test_second_flow_lands_in_lower_queue(self):
        sim, topo, cp, cfg = build()
        f1, b1 = launch(sim, topo, cp, 1, 0, 2, 50 * KB)
        f2, b2 = launch(sim, topo, cp, 2, 1, 2, 800 * KB)
        sim.run(until=0.4e-3)
        assert b1[0].queue_index == 0
        assert b2[0].queue_index >= 1
        assert b2[0]._is_intermediate  # running DCTCP laws, not Rref-pinned

    def test_sjf_completion_order(self):
        sim, topo, cp, cfg = build()
        flows = []
        for i, size in enumerate([600 * KB, 60 * KB, 250 * KB]):
            f, _ = launch(sim, topo, cp, i + 1, i, 5, size)
            flows.append(f)
        sim.run(until=0.1)
        assert all(f.completed for f in flows)
        by_size = sorted(flows, key=lambda f: f.size_bytes)
        assert by_size[0].fct < by_size[1].fct < by_size[2].fct

    def test_promotion_after_completion(self):
        sim, topo, cp, cfg = build()
        f1, _ = launch(sim, topo, cp, 1, 0, 2, 50 * KB)
        f2, b2 = launch(sim, topo, cp, 2, 1, 2, 300 * KB)
        sim.run(until=0.05)
        assert f1.completed and f2.completed
        # After f1 finished, f2 must have been promoted to the top queue.
        assert b2[0].queue_index == 0

    def test_background_flow_pinned_to_bottom_queue(self):
        sim, topo, cp, cfg = build()
        flow, box = launch(sim, topo, cp, 1, 0, 1, 500 * KB, background=True)
        sim.run(until=1e-3)
        sender = box[0]
        assert sender.queue_index == cfg.background_queue
        # Background flows never contact arbitrators.
        assert cp.requests_started == 0

    def test_background_does_not_delay_short_flow(self):
        sim, topo, cp, cfg = build()
        bg, _ = launch(sim, topo, cp, 1, 0, 2, 10_000 * KB, background=True)
        short, _ = launch(sim, topo, cp, 2, 1, 2, 50 * KB, start=2e-3)
        sim.run(until=0.05)
        assert short.completed
        assert short.fct < 1.5e-3  # cuts through the background flow


class TestDeadlineCriterion:
    def test_edf_beats_sjf_order(self):
        cfg = PaseConfig(criterion="deadline")
        sim, topo, cp, _ = build(config=cfg)
        # The larger flow has the earlier deadline.
        f_big, _ = launch(sim, topo, cp, 1, 0, 2, 400 * KB, deadline=4 * MSEC)
        f_small, _ = launch(sim, topo, cp, 2, 1, 2, 100 * KB, deadline=50 * MSEC)
        sim.run(until=0.05)
        assert f_big.met_deadline
        assert f_small.completed

    def test_expired_deadline_demoted(self):
        cfg = PaseConfig(criterion="deadline")
        sim, topo, cp, _ = build(config=cfg)
        flow, box = launch(sim, topo, cp, 1, 0, 1, 400 * KB, deadline=1e-6)
        sim.run(until=1e-3)
        sender = box[0]
        assert sender._criterion_value() > 1e8  # demoted past real deadlines


class TestLossRecovery:
    def test_rto_floor_depends_on_queue(self):
        cfg = PaseConfig()
        sim, topo, cp, _ = build(config=cfg)
        flow, box = launch(sim, topo, cp, 1, 0, 1, 100 * KB)
        sim.run(until=0.2e-3)
        sender = box[0]
        sender._set_queue(0)
        assert sender.rto_value() >= MIN_RTO_TOP
        sender._set_queue(2)
        assert sender.rto_value() >= cfg.min_rto_low

    def test_rto_floor_in_fallback_is_the_low_queue_floor(self):
        cfg = PaseConfig()
        sim, topo, cp, _ = build(config=cfg)
        flow, box = launch(sim, topo, cp, 1, 0, 1, 100 * KB)
        sim.run(until=0.2e-3)
        sender = box[0]
        sender._set_queue(0)
        assert sender._rto_floor == MIN_RTO_TOP
        sender._enter_fallback()
        assert sender.queue_index == cfg.num_data_queues - 1
        assert sender._rto_floor == cfg.min_rto_low
        assert sender.rto_value() >= cfg.min_rto_low

    def test_low_priority_timeout_sends_probe_not_data(self):
        cfg = PaseConfig()
        sim, topo, cp, _ = build(config=cfg)
        flow, box = launch(sim, topo, cp, 1, 0, 1, 100 * KB)
        sim.run(until=0.2e-3)
        sender = box[0]
        sender.queue_index = 3
        sent_before = flow.pkts_sent
        sender.handle_timeout()
        assert flow.probes_sent == 1
        assert flow.pkts_sent == sent_before  # no data retransmission

    def test_probing_disabled_falls_back_to_retransmit(self):
        cfg = PaseConfig(probing_enabled=False)
        sim, topo, cp, _ = build(config=cfg)
        flow, box = launch(sim, topo, cp, 1, 0, 1, 100 * KB)
        sim.run(until=0.2e-3)
        sender = box[0]
        sender.queue_index = 3
        sender._inflight.add(min(sender.next_new, sender.total_pkts - 1))
        sender.handle_timeout()
        assert flow.probes_sent == 0

    def test_probe_reply_missing_triggers_retransmit(self):
        cfg = PaseConfig()
        sim, topo, cp, _ = build(config=cfg)
        flow, box = launch(sim, topo, cp, 1, 0, 1, 100 * KB)
        sim.run(until=0.2e-3)
        sender = box[0]
        from repro.sim.packet import Packet, PacketKind
        reply = Packet(PacketKind.ACK, flow.dst, flow.src, flow.flow_id,
                       seq=sender.cum_ack)
        reply.ack_sacks = -1
        probed = reply.seq
        consumed = sender.handle_special_ack(reply)
        assert consumed
        # The probed packet was declared lost and handled: it is either
        # already retransmitted (back in flight), still queued, or (if an
        # ACK raced in) acknowledged.
        assert (probed in sender._inflight
                or probed in sender._retx_queue
                or sender.is_acked(probed))


class TestPromotionGuard:
    def test_promotion_waits_for_inflight(self):
        cfg = PaseConfig()
        sim, topo, cp, _ = build(config=cfg)
        flow, box = launch(sim, topo, cp, 1, 0, 1, 400 * KB)
        sim.run(until=0.2e-3)
        sender = box[0]
        sender.queue_index = 2
        sender._is_intermediate = True
        sender._inflight.add(0)
        from repro.core.arbitration import ArbitrationResult
        sender._half_results.clear()
        sender._on_arbitration("src", ArbitrationResult(0, 1 * GBPS))
        assert sender._pending_queue == 0
        assert sender.queue_index == 2  # unchanged while draining
        sender._inflight.clear()
        sender.send_window()
        assert sender.queue_index == 0

    def test_demotion_is_immediate(self):
        cfg = PaseConfig()
        sim, topo, cp, _ = build(config=cfg)
        flow, box = launch(sim, topo, cp, 1, 0, 1, 400 * KB)
        sim.run(until=0.2e-3)
        sender = box[0]
        sender._inflight.add(0)
        from repro.core.arbitration import ArbitrationResult
        sender._half_results.clear()
        sender._on_arbitration("src", ArbitrationResult(4, 1e6))
        assert sender.queue_index == 4


class TestArbitrationBackoff:
    def test_long_failure_run_backs_off_at_the_cap(self, monkeypatch):
        """More than 1,100 refused requests in a row: the re-request
        interval stays at the capped ``interval x 8`` instead of
        overflowing ``2.0 ** failures`` (which raises past ~1,024)."""
        from repro.core.endhost import ARBITRATION_BACKOFF_CAP

        sim, topo, cp, _ = build(num_hosts=2)
        interval = cp.config.arbitration_interval
        src, dst = topo.hosts
        # The control plane refuses every request, and the sender's access
        # link is down, so the flow never completes and never stops asking.
        cp.crash()
        src.egress_for(dst.node_id).set_down()
        ticks = []
        arbitrate = PaseSender._arbitrate

        def spy(sender):
            ticks.append(sim.now)
            arbitrate(sender)

        monkeypatch.setattr(PaseSender, "_arbitrate", spy)
        flow, box = launch(sim, topo, cp, 1, 0, 1, 100 * KB)
        sim.run(until=1_110 * ARBITRATION_BACKOFF_CAP * interval)
        assert not flow.completed
        assert box[0]._arb_failures > 1_100
        # Failures 1, 2 and 3 wait 2x, 4x and 8x; every later one the cap.
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert gaps[:3] == pytest.approx([2 * interval, 4 * interval,
                                          8 * interval])
        assert gaps[3:] == pytest.approx(
            [interval * ARBITRATION_BACKOFF_CAP] * (len(gaps) - 3))
