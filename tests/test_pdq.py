"""Tests for the PDQ rebuild: link schedulers, pause/resume, preemption."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, StarTopology
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet, PacketKind, make_data_packet
from repro.sim.queues import DropTailQueue
from repro.transports import (
    Flow,
    PdqLinkScheduler,
    PdqSender,
    ReceiverAgent,
    TransportConfig,
)
from repro.transports.pdq import ENTRY_TIMEOUT_RTTS
from repro.utils.units import GBPS, KB, USEC


def make_scheduler(capacity=1 * GBPS, config=None):
    sim = Simulator()
    a = Node(sim, 0, "a")
    b = Node(sim, 1, "b")
    link = Link(sim, "a->b", a, b, capacity, 10 * USEC, DropTailQueue(100))
    sched = PdqLinkScheduler(link, config or TransportConfig())
    return sim, link, sched


def data(flow, remaining, deadline=None):
    p = make_data_packet(0, 1, flow, 0)
    p.remaining_bytes = remaining
    p.deadline = deadline
    return p


class TestScheduler:
    def test_single_flow_gets_line_rate(self):
        _, link, sched = make_scheduler()
        p = data(1, 100 * KB)
        sched.process(p, link)
        assert p.pdq_rate == pytest.approx(1 * GBPS)
        assert not p.pdq_pause

    def test_shorter_flow_preempts(self):
        _, link, sched = make_scheduler()
        sched.process(data(1, 900 * KB), link)
        short = data(2, 300 * KB)
        sched.process(short, link)
        assert short.pdq_rate == pytest.approx(1 * GBPS)
        # The long flow is now paused (the short one needs 2.4 ms, well
        # beyond the Early Start overlap window).
        long_again = data(1, 900 * KB)
        sched.process(long_again, link)
        assert long_again.pdq_pause

    def test_early_start_overlaps_draining_head(self):
        _, link, sched = make_scheduler()
        sched.process(data(1, 10 * KB), link)  # drains in 80 us
        runner_up = data(2, 500 * KB)
        sched.process(runner_up, link)
        assert not runner_up.pdq_pause  # streams while the head drains

    def test_deadline_beats_size(self):
        _, link, sched = make_scheduler()
        sched.process(data(1, 10 * KB, deadline=None), link)
        urgent = data(2, 500 * KB, deadline=0.005)
        sched.process(urgent, link)
        assert not urgent.pdq_pause  # EDF: any deadline beats no deadline

    def test_min_rate_across_hops(self):
        _, link, sched = make_scheduler(capacity=1 * GBPS)
        p = data(1, 100 * KB)
        p.pdq_rate = 0.5 * GBPS  # stamped by an upstream hop
        sched.process(p, link)
        assert p.pdq_rate == pytest.approx(0.5 * GBPS)

    def test_fin_removes_entry(self):
        _, link, sched = make_scheduler()
        sched.process(data(1, 100 * KB), link)
        assert 1 in sched.flows
        fin = data(1, 0)
        sched.process(fin, link)
        assert 1 not in sched.flows

    def test_entry_expiry(self):
        sim, link, sched = make_scheduler(
            config=TransportConfig(initial_rtt=100 * USEC))  # 1 ms expiry
        sched.process(data(1, 100 * KB), link)
        sim.schedule(0.01, lambda: None)
        sim.run()
        sched.process(data(2, 50 * KB), link)
        assert 1 not in sched.flows  # expired; only flow 2 remains

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 1500),
                              st.integers(0, 3)), max_size=60))
    def test_expiry_matches_full_scan(self, steps):
        """Skipping the scan while no entry can have timed out expires the
        same entries, at the same packets, as scanning on every packet."""
        sim, link, sched = make_scheduler(
            config=TransportConfig(initial_rtt=100 * USEC))  # 1 ms expiry
        ref = PdqLinkScheduler(link, sched.config)

        def full_scan(now):
            timeout = ENTRY_TIMEOUT_RTTS * ref.config.initial_rtt
            for fid in [fid for fid, e in ref.flows.items()
                        if now - e.last_seen > timeout]:
                del ref.flows[fid]

        ref._expire = full_scan
        for flow_id, gap_us, size in steps:
            sim.schedule(gap_us * USEC, lambda: None)
            sim.run()
            stamps = []
            for scheduler in (sched, ref):
                p = data(flow_id, size * 100 * KB)  # size 0 is a FIN
                scheduler.process(p, link)
                stamps.append((p.pdq_rate, p.pdq_pause, p.pdq_rank))
            assert stamps[0] == stamps[1]
            assert list(sched.flows) == list(ref.flows)

    def test_rank_stamped(self):
        _, link, sched = make_scheduler()
        sched.process(data(1, 10 * KB), link)
        p = data(2, 100 * KB)
        sched.process(p, link)
        assert p.pdq_rank == 1

    def test_ack_packets_not_processed(self):
        _, link, sched = make_scheduler()
        link.allocator = sched
        ack = Packet(PacketKind.ACK, 0, 1, 3)
        ack.remaining_bytes = 50 * KB
        link.send(ack)
        assert 3 not in sched.flows


def run_pdq_flows(specs, until=5.0, num_hosts=4):
    """specs: list of (src_idx, dst_idx, size, start)."""
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=num_hosts, link_bps=1 * GBPS,
                        rtt=100 * USEC,
                        queue_factory=lambda: DropTailQueue(100))
    cfg = TransportConfig(initial_rtt=100 * USEC)
    PdqLinkScheduler.install(topo.network, cfg)
    flows = []
    for i, (s, d, size, start) in enumerate(specs):
        f = Flow(flow_id=i + 1, src=topo.hosts[s].node_id,
                 dst=topo.hosts[d].node_id, size_bytes=size, start_time=start)
        flows.append(f)

    def launch(f):
        ReceiverAgent(sim, topo.network.nodes[f.dst], f)
        PdqSender(sim, topo.network.nodes[f.src], f, cfg).start()

    for f in flows:
        sim.schedule_at(f.start_time, launch, f)
    sim.run(until=until)
    return flows


class TestPdqEndToEnd:
    def test_single_flow_completes_near_line_rate(self):
        flows = run_pdq_flows([(0, 1, 100 * KB, 0.0)])
        f = flows[0]
        assert f.completed
        # 0.8 ms serialization + ~1 RTT arbitration startup + RTT delivery.
        assert f.fct < 1.6e-3

    def test_sjf_order_under_contention(self):
        flows = run_pdq_flows([
            (0, 3, 500 * KB, 0.0),
            (1, 3, 50 * KB, 0.0),
            (2, 3, 200 * KB, 0.0),
        ])
        assert all(f.completed for f in flows)
        by_size = sorted(flows, key=lambda f: f.size_bytes)
        fcts = [f.fct for f in by_size]
        assert fcts[0] < fcts[1] < fcts[2]

    def test_short_flow_barely_delayed_by_long(self):
        flows = run_pdq_flows([
            (0, 3, 2_000 * KB, 0.0),
            (1, 3, 20 * KB, 0.002),
        ])
        short = flows[1]
        assert short.completed
        # Short flow preempts: its FCT is a few RTTs, not the 16 ms the
        # long flow needs.
        assert short.fct < 2e-3

    def test_paused_flow_probes(self):
        flows = run_pdq_flows([
            (0, 3, 1_000 * KB, 0.0),
            (1, 3, 1_000 * KB, 0.0),
        ])
        assert all(f.completed for f in flows)
        assert max(f.probes_sent for f in flows) > 3
