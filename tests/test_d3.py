"""Tests for the D3 rebuild (deadline-driven rate reservation)."""

import pytest

from repro.sim import Simulator, StarTopology
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import make_data_packet
from repro.sim.queues import DropTailQueue
from repro.transports import (
    D3LinkAllocator,
    Flow,
    PdqSender,
    ReceiverAgent,
    TransportConfig,
)
from repro.harness import ExperimentSpec, ScenarioSpec, run_experiment
from repro.utils.units import GBPS, KB, MSEC, USEC


def make_allocator(capacity=1 * GBPS, config=None):
    sim = Simulator()
    a, b = Node(sim, 0, "a"), Node(sim, 1, "b")
    link = Link(sim, "a->b", a, b, capacity, 10 * USEC, DropTailQueue(100))
    cfg = config or TransportConfig(initial_rtt=100 * USEC)
    return sim, link, D3LinkAllocator(link, cfg)


def request(flow, remaining, deadline=None):
    p = make_data_packet(0, 1, flow, 0)
    p.remaining_bytes = remaining
    p.deadline = deadline
    return p


class TestAllocator:
    def test_deadline_flow_reserves_required_rate(self):
        sim, link, alloc = make_allocator()
        # 500 KB in 10 ms needs 400 Mbps.
        p = request(1, 500 * KB, deadline=0.010)
        alloc.process(p, link)
        assert p.pdq_rate >= 400e6 * 0.99  # reservation + leftover share

    def test_best_effort_gets_leftover_share(self):
        sim, link, alloc = make_allocator()
        p = request(1, 500 * KB, deadline=None)
        alloc.process(p, link)
        # No reservation: the grant is the leftover share (full link here).
        assert 0 < p.pdq_rate <= 1 * GBPS

    def test_greedy_fcfs_starves_later_urgent_flow(self):
        """The pathology PDQ fixed: an earlier reservation wins even when a
        later flow's deadline is tighter."""
        sim, link, alloc = make_allocator()
        relaxed = request(1, 900 * KB, deadline=0.008)   # needs 900 Mbps
        alloc.process(relaxed, link)
        urgent = request(2, 900 * KB, deadline=0.0075)   # needs 960 Mbps
        alloc.process(urgent, link)
        granted_urgent = alloc.flows[2].rate
        assert granted_urgent < 960e6 * 0.5  # cannot reserve what it needs

    def test_reservations_capped_at_capacity(self):
        sim, link, alloc = make_allocator()
        for fid in range(4):
            p = request(fid, 900 * KB, deadline=0.008)
            alloc.process(p, link)
            assert p.pdq_rate <= 1 * GBPS + 1
        total = sum(r.rate for r in alloc.flows.values())
        assert total <= 1 * GBPS * 1.001

    def test_fin_clears_reservation(self):
        sim, link, alloc = make_allocator()
        alloc.process(request(1, 500 * KB, deadline=0.01), link)
        assert 1 in alloc.flows
        alloc.process(request(1, 0), link)
        assert 1 not in alloc.flows

    def test_expiry(self):
        sim, link, alloc = make_allocator()  # expires after 10 RTTs = 1 ms
        alloc.process(request(1, 500 * KB, deadline=0.01), link)
        sim.schedule(0.01, lambda: None)
        sim.run()
        alloc.process(request(2, 100 * KB, deadline=0.02), link)
        assert 1 not in alloc.flows

    def test_expired_deadline_treated_as_best_effort(self):
        sim, link, alloc = make_allocator()
        p = request(1, 500 * KB, deadline=-1.0)
        alloc.process(p, link)
        assert alloc.flows[1].rate == 0.0


class TestD3EndToEnd:
    def test_single_deadline_flow_meets_it(self):
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=3, rtt=100 * USEC)
        cfg = TransportConfig(initial_rtt=100 * USEC)
        D3LinkAllocator.install(topo.network, cfg)
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=200 * KB,
                    start_time=0.0, deadline=10 * MSEC)
        ReceiverAgent(sim, topo.hosts[1], flow)
        PdqSender(sim, topo.hosts[0], flow, cfg).start()
        sim.run(until=0.1)
        assert flow.met_deadline

    def test_never_pauses(self):
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=4, rtt=100 * USEC)
        cfg = TransportConfig(initial_rtt=100 * USEC)
        D3LinkAllocator.install(topo.network, cfg)
        flows = []
        for i in range(3):
            f = Flow(flow_id=i + 1, src=topo.hosts[i].node_id,
                     dst=topo.hosts[3].node_id, size_bytes=300 * KB,
                     start_time=0.0, deadline=30 * MSEC)
            ReceiverAgent(sim, topo.hosts[3], f)
            PdqSender(sim, topo.hosts[i], f, cfg).start()
            flows.append(f)
        sim.run(until=0.2)
        assert all(f.completed for f in flows)

    def test_harness_integration(self):
        r = run_experiment(ExperimentSpec(
            "d3", ScenarioSpec("intra-rack-deadlines", {"num_hosts": 8}),
            0.5, num_flows=40, seed=2))
        assert r.stats.completion_fraction == 1.0
        assert r.application_throughput > 0.7

    def test_d3_beats_dctcp_on_deadlines(self):
        scn = ScenarioSpec("intra-rack-deadlines", {"num_hosts": 10})
        d3 = run_experiment(ExperimentSpec("d3", scn, 0.7, num_flows=80, seed=4))
        dctcp = run_experiment(ExperimentSpec("dctcp", scn, 0.7, num_flows=80, seed=4))
        assert d3.application_throughput >= dctcp.application_throughput
