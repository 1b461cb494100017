"""Coverage for corners not reached by the behavior-focused suites."""

import math

import pytest

from repro.core import ArbitrationResult, PaseConfig, PaseControlPlane
from repro.harness import format_series_table, improvement_row, series_from_results
from repro.sim import Simulator, StarTopology
from repro.sim.queues import PFabricQueue, PriorityQueueBank
from repro.transports import TransportConfig
from repro.transports.base import SenderAgent
from repro.utils.units import KB, MSEC, USEC
from repro.workloads import DEADLINE_SIZES, QUERY_SIZES


class TestEngineCorners:
    def test_schedule_at_exactly_now_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.5, lambda: sim.schedule_at(sim.now, fired.append, 1))
        sim.run()
        assert fired == [1]

    def test_run_empty_heap_returns_zero(self):
        sim = Simulator()
        assert sim.run() == 0
        assert sim.now == 0.0

    def test_run_until_before_first_event(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=0.5) == 0
        assert sim.now == 0.5
        assert sim.pending_events == 1


class TestQueueCorners:
    def test_priority_bank_dequeue_empty(self):
        assert PriorityQueueBank().dequeue() is None

    def test_pfabric_dequeue_empty(self):
        assert PFabricQueue().dequeue() is None

    def test_pfabric_byte_depth(self):
        q = PFabricQueue(capacity_pkts=4)
        from repro.sim.packet import Packet, PacketKind
        p = Packet(PacketKind.DATA, 0, 1, 1, size=700, priority=1.0)
        q.enqueue(p)
        assert q.byte_depth == 700
        q.dequeue()
        assert q.byte_depth == 0

    def test_counters_accumulate(self):
        q = PriorityQueueBank(num_queues=2, capacity_pkts=1)
        from repro.sim.packet import Packet, PacketKind
        q.enqueue(Packet(PacketKind.DATA, 0, 1, 1))
        q.enqueue(Packet(PacketKind.DATA, 0, 1, 2))
        assert q.enqueued_total == 1
        assert q.drops == 1
        assert q.drop_bytes > 0


class TestPaseConfigProperties:
    def test_num_data_queues_with_reserved_background(self):
        cfg = PaseConfig(num_queues=8)
        assert cfg.num_data_queues == 7
        assert cfg.background_queue == 7

    def test_entry_timeout_scales_with_interval(self):
        sim = Simulator()
        cp = PaseControlPlane(sim, StarTopology(sim, num_hosts=2),
                              PaseConfig(arbitration_interval=1 * MSEC))
        assert cp.entry_timeout == pytest.approx(4 * MSEC)

    def test_unset_interval_without_a_binding_is_300us(self):
        sim = Simulator()
        cp = PaseControlPlane(sim, StarTopology(sim, num_hosts=2))
        assert cp.config.arbitration_interval == 300 * USEC
        assert cp.entry_timeout == pytest.approx(1200 * USEC)

    def test_pruning_disabled_at_zero(self):
        assert not PaseConfig(pruning_queues=0).pruning_enabled
        assert PaseConfig(pruning_queues=2).pruning_enabled

    def test_two_queue_minimum_with_background(self):
        with pytest.raises(ValueError):
            PaseConfig(num_queues=1)

    def test_invalid_criterion(self):
        with pytest.raises(ValueError):
            PaseConfig(criterion="magic")


class TestArbitrationResult:
    def test_merge_identity(self):
        r = ArbitrationResult(queue=1, reference_rate=5e8)
        assert r.merge(r) == r

    def test_merge_associative(self):
        a = ArbitrationResult(0, 1e9)
        b = ArbitrationResult(2, 4e8)
        c = ArbitrationResult(1, 7e8)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))


class TestPaperDistributionConstants:
    def test_query_sizes_interval(self):
        assert QUERY_SIZES.low == 2 * KB
        assert QUERY_SIZES.high == 198 * KB
        assert QUERY_SIZES.mean_bytes == 100 * KB

    def test_deadline_sizes_interval(self):
        assert DEADLINE_SIZES.low == 100 * KB
        assert DEADLINE_SIZES.high == 500 * KB


class TestSenderAgentCorners:
    def _sender(self, **cfg):
        from repro.sim import StarTopology
        from repro.transports import Flow
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=2)
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=30 * KB,
                    start_time=0.0)
        return SenderAgent(sim, topo.hosts[0], flow,
                           TransportConfig(**cfg))

    def test_rto_exponential_backoff_capped(self):
        sender = self._sender(min_rto=10 * MSEC, max_rto=0.1)
        base = sender.rto_value()
        sender._rto_backoff = 3
        assert sender.rto_value() == pytest.approx(min(0.1, base * 8))
        sender._rto_backoff = 20
        assert sender.rto_value() == 0.1  # capped at max_rto

    def test_usable_window_never_negative(self):
        sender = self._sender()
        sender.cwnd = 1.0
        sender._inflight.update({0, 1, 2})
        assert sender.usable_window() == 0

    def test_start_idempotent(self):
        sender = self._sender()
        sender.start()
        sent = sender.flow.pkts_sent
        sender.start()
        assert sender.flow.pkts_sent == sent

    def test_default_special_ack_is_noop(self):
        sender = self._sender()
        from repro.sim.packet import Packet, PacketKind
        ack = Packet(PacketKind.ACK, 1, 0, 1)
        assert sender.handle_special_ack(ack) is False

    def test_base_rtt_before_samples_is_initial(self):
        sender = self._sender(initial_rtt=250 * USEC)
        assert sender.base_rtt == pytest.approx(250 * USEC)


class TestReportHelpers:
    def _result(self, afct_ms):
        class FakeStats:
            pass

        class FakeResult:
            afct = afct_ms * 1e-3
        return FakeResult()

    def test_improvement_row(self):
        loads = [0.5]
        baseline = {0.5: self._result(10.0)}
        candidate = {0.5: self._result(4.0)}
        (imp,) = improvement_row(loads, baseline, candidate)
        assert imp == pytest.approx(60.0)

    def test_series_table_handles_missing_points(self):
        table = format_series_table("t", [0.1, 0.9], {"p": {0.1: 1.0}},
                                    unit="ms")
        assert "nan" in table  # missing 0.9 shown explicitly, not dropped

    def test_series_from_results_scaling(self):
        series = series_from_results({"p": {0.5: self._result(2.0)}},
                                     "afct", scale=1e3)
        assert series["p"][0.5] == pytest.approx(2.0)
