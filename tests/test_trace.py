"""Tests for the tracing infrastructure and its instrumentation points."""

import pytest

from repro.core import PaseConfig, PaseControlPlane, PaseReceiver, PaseSender, pase_queue_factory
from repro.sim import Simulator, StarTopology
from repro.sim.queues import DropTailQueue
from repro.sim.trace import TraceEvent, Tracer
from repro.transports import Flow, ReceiverAgent, TcpSender, TransportConfig
from repro.utils.units import GBPS, KB, USEC


class TestTracerCore:
    def test_record_and_query(self):
        t = Tracer()
        t.record(0.1, "drop", "linkA", flow=1)
        t.record(0.2, "timeout", 1, cum_ack=5)
        t.record(0.3, "drop", "linkB", flow=2)
        assert len(t) == 3
        assert t.count("drop") == 2
        assert [e.subject for e in t.of("drop")] == ["linkA", "linkB"]
        assert t.about(1)[0].category == "timeout"

    def test_detail_accessor(self):
        t = Tracer()
        t.record(0.1, "drop", "l", flow=7, seq=3)
        e = t.events[0]
        assert e.detail("flow") == 7
        assert e.detail("missing", "default") == "default"

    def test_category_filter(self):
        t = Tracer(categories=["timeout"])
        t.record(0.1, "drop", "l")
        t.record(0.2, "timeout", 1)
        assert len(t) == 1
        assert t.events[0].category == "timeout"

    def test_max_events_cap(self):
        t = Tracer(max_events=2)
        for i in range(5):
            t.record(i * 0.1, "x", i)
        assert len(t) == 2
        assert t.dropped_records == 3

    def test_flow_timeline_sorted(self):
        t = Tracer()
        t.record(0.3, "a", 1)
        t.record(0.1, "b", 1)
        t.record(0.2, "c", 2)
        timeline = t.flow_timeline(1)
        assert [e.time for e in timeline] == [0.1, 0.3]


class TestInstrumentation:
    def test_drops_recorded(self):
        sim = Simulator()
        sim.tracer = Tracer()
        topo = StarTopology(sim, num_hosts=4, link_bps=1 * GBPS,
                            rtt=100 * USEC,
                            queue_factory=lambda: DropTailQueue(capacity_pkts=2))
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=100 * KB,
                    start_time=0.0)
        ReceiverAgent(sim, topo.hosts[1], flow)
        TcpSender(sim, topo.hosts[0], flow,
                  TransportConfig(initial_rtt=100 * USEC, init_cwnd=20)).start()
        sim.run(until=1.0)
        assert sim.tracer.count("drop") > 0
        drop = sim.tracer.of("drop")[0]
        assert drop.detail("flow") == 1

    def test_timeouts_and_retransmits_recorded(self):
        sim = Simulator()
        sim.tracer = Tracer()
        topo = StarTopology(sim, num_hosts=4, link_bps=1 * GBPS,
                            rtt=100 * USEC,
                            queue_factory=lambda: DropTailQueue(capacity_pkts=2))
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=150 * KB,
                    start_time=0.0)
        ReceiverAgent(sim, topo.hosts[1], flow)
        TcpSender(sim, topo.hosts[0], flow,
                  TransportConfig(initial_rtt=100 * USEC, init_cwnd=30)).start()
        sim.run(until=2.0)
        assert flow.completed
        assert sim.tracer.count("retransmit") == flow.retransmissions

    def test_pase_queue_changes_recorded(self):
        cfg = PaseConfig()
        sim = Simulator()
        sim.tracer = Tracer(categories=["queue-change"])
        topo = StarTopology(sim, num_hosts=4, link_bps=1 * GBPS,
                            rtt=100 * USEC,
                            queue_factory=pase_queue_factory(cfg))
        cp = PaseControlPlane(sim, topo, cfg)
        flows = []
        for i, size in enumerate([50 * KB, 400 * KB]):
            f = Flow(flow_id=i + 1, src=topo.hosts[i].node_id,
                     dst=topo.hosts[3].node_id, size_bytes=size,
                     start_time=0.0)
            PaseReceiver(sim, topo.hosts[3], f)
            PaseSender(sim, topo.hosts[i], f, cp).start()
            flows.append(f)
        sim.run(until=0.1)
        # The long flow was demoted then promoted: >= 2 transitions.
        changes = sim.tracer.flow_timeline(2)
        assert len(changes) >= 2
        assert changes[-1].detail("new") == 0  # ends in the top queue

    def test_no_tracer_no_overhead_errors(self):
        sim = Simulator()
        assert sim.tracer is None
        topo = StarTopology(sim, num_hosts=2)
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=10 * KB,
                    start_time=0.0)
        ReceiverAgent(sim, topo.hosts[1], flow)
        TcpSender(sim, topo.hosts[0], flow).start()
        sim.run(until=1.0)
        assert flow.completed
