"""Tests for the bottom-up arbitration control plane (§3.1)."""

import pytest

from repro.core import PaseConfig, PaseControlPlane
from repro.core import control_plane
from repro.core.control_plane import (
    DELEGATION_MIN_SHARE,
    DELEGATION_UPDATE_INTERVAL,
    LEVEL_AGG,
    LEVEL_HOST,
    LEVEL_TOR,
)
from repro.sim import Simulator, StarTopology, TreeTopology, TreeTopologyConfig
from repro.transports import Flow
from repro.utils.units import GBPS, KB, USEC


def star_cp(config=None, num_hosts=4):
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=num_hosts, rtt=100 * USEC)
    cp = PaseControlPlane(sim, topo, config or PaseConfig())
    return sim, topo, cp


def tree_cp(config=None, hosts_per_rack=2):
    sim = Simulator()
    topo = TreeTopology(sim, TreeTopologyConfig(hosts_per_rack=hosts_per_rack))
    cp = PaseControlPlane(sim, topo, config or PaseConfig())
    return sim, topo, cp


def flow_between(topo, src_host, dst_host, size=100 * KB, fid=1):
    return Flow(flow_id=fid, src=src_host.node_id, dst=dst_host.node_id,
                size_bytes=size, start_time=0.0)


class TestIntraRack:
    def test_local_result_is_synchronous(self):
        sim, topo, cp = star_cp()
        flow = flow_between(topo, topo.hosts[0], topo.hosts[1])
        result = cp.request(flow, 100 * KB, 1 * GBPS, lambda h, r: None)
        assert result.queue == 0
        assert result.reference_rate == pytest.approx(1 * GBPS)

    def test_intra_rack_costs_zero_messages(self):
        sim, topo, cp = star_cp()
        flow = flow_between(topo, topo.hosts[0], topo.hosts[1])
        cp.request(flow, 100 * KB, 1 * GBPS, lambda h, r: None)
        sim.run(until=0.01)
        assert cp.messages_sent == 0

    def test_dst_half_arrives_after_transfer_latency(self):
        sim, topo, cp = star_cp()
        flow = flow_between(topo, topo.hosts[0], topo.hosts[1])
        arrivals = []
        cp.request(flow, 100 * KB, 1 * GBPS,
                   lambda h, r: arrivals.append((sim.now, h)))
        sim.run(until=0.01)
        halves = {h for _, h in arrivals}
        assert halves == {"src", "dst"}
        dst_time = next(t for t, h in arrivals if h == "dst")
        # One-way out (piggybacked) + one-way back: about one RTT.
        assert dst_time == pytest.approx(100 * USEC, rel=0.01)

    def test_dst_half_reflects_downlink_contention(self):
        sim, topo, cp = star_cp()
        # Flow 9 already saturates host 1's downlink with higher priority.
        other = flow_between(topo, topo.hosts[2], topo.hosts[1], size=5 * KB, fid=9)
        cp.request(other, 5 * KB, 1 * GBPS, lambda h, r: None)
        flow = flow_between(topo, topo.hosts[0], topo.hosts[1], size=500 * KB)
        results = {}
        cp.request(flow, 500 * KB, 1 * GBPS, lambda h, r: results.setdefault(h, r))
        sim.run(until=0.01)
        assert results["src"].queue == 0  # own uplink is idle
        assert results["dst"].queue == 1  # behind flow 9 on the downlink


class TestInterRack:
    def test_cross_agg_with_delegation_stops_at_tor(self):
        cfg = PaseConfig(delegation_enabled=True)
        sim, topo, cp = tree_cp(cfg)
        src = topo.rack_hosts(0)[0]
        dst = topo.rack_hosts(2)[0]  # other aggregation switch
        flow = flow_between(topo, src, dst)
        chains = cp.chains_for(flow)
        levels = [h.level for h in chains.src_hops]
        assert LEVEL_AGG not in levels  # delegated to the ToR
        assert levels.count(LEVEL_TOR) == 2  # real ToR link + virtual core link

    def test_cross_agg_without_delegation_reaches_agg(self):
        cfg = PaseConfig(delegation_enabled=False)
        sim, topo, cp = tree_cp(cfg)
        src = topo.rack_hosts(0)[0]
        dst = topo.rack_hosts(2)[0]
        chains = cp.chains_for(flow_between(topo, src, dst))
        assert [h.level for h in chains.src_hops] == [LEVEL_HOST, LEVEL_TOR, LEVEL_AGG]

    def test_same_agg_needs_no_core_hop(self):
        sim, topo, cp = tree_cp()
        src = topo.rack_hosts(0)[0]
        dst = topo.rack_hosts(1)[0]  # same aggregation switch
        chains = cp.chains_for(flow_between(topo, src, dst))
        assert len(chains.src_hops) == 2  # host + ToR only

    def test_inter_rack_messages_counted(self):
        sim, topo, cp = tree_cp(PaseConfig(delegation_enabled=False))
        src = topo.rack_hosts(0)[0]
        dst = topo.rack_hosts(2)[0]
        flow = flow_between(topo, src, dst)
        cp.request(flow, 100 * KB, 1 * GBPS, lambda h, r: None)
        sim.run(until=0.01)
        # Both halves consult a ToR (2 msgs) and an Agg (2 msgs) each.
        assert cp.messages_sent == 8

    def test_delegation_reduces_messages(self, monkeypatch):
        flows_args = (100 * KB, 1 * GBPS)
        # No rebalance (whose reports are messages too) within the run.
        monkeypatch.setattr(control_plane, "DELEGATION_UPDATE_INTERVAL", 1.0)

        def messages(delegation):
            cfg = PaseConfig(delegation_enabled=delegation, pruning_queues=0)
            sim, topo, cp = tree_cp(cfg)
            src = topo.rack_hosts(0)[0]
            dst = topo.rack_hosts(2)[0]
            cp.request(flow_between(topo, src, dst), *flows_args,
                       lambda h, r: None)
            sim.run(until=0.01)
            return cp.messages_sent

        assert messages(True) < messages(False)

    def test_pruning_stops_low_priority_climb(self):
        cfg = PaseConfig(delegation_enabled=False, pruning_queues=1)
        sim, topo, cp = tree_cp(cfg, hosts_per_rack=3)
        rack0 = topo.rack_hosts(0)
        dst = topo.rack_hosts(2)[0]
        # Saturate the shared source uplink path with a higher-priority flow
        # from the same host so the second flow maps below the top queue at
        # its first (local) arbitrator.
        f1 = flow_between(topo, rack0[0], dst, size=5 * KB, fid=1)
        cp.request(f1, 5 * KB, 1 * GBPS, lambda h, r: None)
        f2 = flow_between(topo, rack0[0], dst, size=500 * KB, fid=2)
        cp.request(f2, 500 * KB, 1 * GBPS, lambda h, r: None)
        sim.run(until=0.01)
        assert cp.prunes >= 1

    def test_completion_clears_arbitrators(self):
        sim, topo, cp = tree_cp()
        src = topo.rack_hosts(0)[0]
        dst = topo.rack_hosts(2)[0]
        flow = flow_between(topo, src, dst)
        cp.request(flow, 100 * KB, 1 * GBPS, lambda h, r: None)
        sim.run(until=0.01)
        cp.notify_complete(flow)
        for arb in list(cp.arbitrators.values()) + list(cp.virtual.values()):
            assert flow.flow_id not in arb.flows


class TestDelegationRebalance:
    def test_shares_follow_demand(self, monkeypatch):
        monkeypatch.setattr(control_plane, "DELEGATION_UPDATE_INTERVAL", 1e-3)
        cfg = PaseConfig(delegation_enabled=True)
        sim, topo, cp = tree_cp(cfg)
        agg_up = topo.network.link_between(topo.aggs[0], topo.core)
        busy_tor = topo.tors[0]
        idle_tor = topo.tors[1]
        busy = cp.virtual[(agg_up.name, busy_tor.node_id)]
        idle = cp.virtual[(agg_up.name, idle_tor.node_id)]
        # Register load only on the busy ToR's virtual slice.
        busy.arbitrate(1, 10 * KB, demand=5 * GBPS, now=0.0)
        sim.run(until=2e-3)  # one rebalance period
        assert busy.share > idle.share
        assert idle.share >= DELEGATION_MIN_SHARE - 1e-9

    def test_idle_tree_drains_and_request_rearms_rebalancer(self):
        """With nothing else pending the rebalancer parks, so an idle run
        drains instead of ticking forever; a request restarts it."""
        sim, topo, cp = tree_cp()
        sim.run(max_events=100_000)
        assert sim.peek_time() is None
        assert sim.events_processed <= 3
        agg_up = topo.network.link_between(topo.aggs[0], topo.core)
        busy = cp.virtual[(agg_up.name, topo.tors[0].node_id)]
        idle = cp.virtual[(agg_up.name, topo.tors[1].node_id)]
        assert busy.share == idle.share
        src = topo.rack_hosts(0)[0]
        dst = topo.rack_hosts(2)[0]
        cp.request(flow_between(topo, src, dst), 100 * KB, 1 * GBPS,
                   lambda h, r: None)
        sim.run(until=sim.now + 1.5 * DELEGATION_UPDATE_INTERVAL)
        assert busy.share > idle.share

    def test_rebalance_messages_counted(self, monkeypatch):
        monkeypatch.setattr(control_plane, "DELEGATION_UPDATE_INTERVAL", 1e-3)
        cfg = PaseConfig(delegation_enabled=True)
        sim, topo, cp = tree_cp(cfg)
        before = cp.messages_sent
        sim.run(until=2.5e-3)
        assert cp.messages_sent > before


class TestLocalArbitrationAblation:
    def test_local_mode_has_no_fabric_hops(self):
        cfg = PaseConfig(end_to_end_arbitration=False)
        sim, topo, cp = tree_cp(cfg)
        src = topo.rack_hosts(0)[0]
        dst = topo.rack_hosts(2)[0]
        chains = cp.chains_for(flow_between(topo, src, dst))
        assert len(chains.src_hops) == 1
        assert len(chains.dst_hops) == 1


class TestProcessingLoad:
    def test_delegation_moves_processing_off_aggregation(self):
        from repro.transports import Flow as _Flow
        sim, topo, cp = tree_cp(PaseConfig(delegation_enabled=True))
        src = topo.rack_hosts(0)[0]
        dst = topo.rack_hosts(2)[0]
        cp.request(flow_between(topo, src, dst), 100 * KB, 1 * GBPS,
                   lambda h, r: None)
        sim.run(until=0.01)
        assert cp.processed_by_level[LEVEL_AGG] == 0
        assert cp.processed_by_level[LEVEL_TOR] > 0

    def test_no_delegation_loads_aggregation(self):
        sim, topo, cp = tree_cp(PaseConfig(delegation_enabled=False,
                                           pruning_queues=0))
        src = topo.rack_hosts(0)[0]
        dst = topo.rack_hosts(2)[0]
        cp.request(flow_between(topo, src, dst), 100 * KB, 1 * GBPS,
                   lambda h, r: None)
        sim.run(until=0.01)
        assert cp.processed_by_level[LEVEL_AGG] == 2  # both halves' core hop

    def test_host_level_counts_local_decisions(self):
        sim, topo, cp = star_cp()
        flow = flow_between(topo, topo.hosts[0], topo.hosts[1])
        cp.request(flow, 100 * KB, 1 * GBPS, lambda h, r: None)
        sim.run(until=0.01)
        assert cp.processed_by_level[LEVEL_HOST] == 2  # src + dst access links
