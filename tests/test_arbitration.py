"""Tests for Algorithm 1 (per-link arbitration)."""

import pytest

from repro.core.arbitration import (
    ArbitrationResult,
    LinkArbitrator,
    VirtualLinkArbitrator,
)
from repro.utils.units import GBPS, KB, MBPS

C = 1 * GBPS
BASE = 40 * MBPS  # one packet per RTT at these scales


def arb(num_queues=7):
    return LinkArbitrator("test", C, num_queues, BASE)


class TestAlgorithmOne:
    def test_single_flow_top_queue_full_demand(self):
        a = arb()
        r = a.arbitrate(1, criterion_value=100 * KB, demand=C, now=0.0)
        assert r.queue == 0
        assert r.reference_rate == pytest.approx(C)

    def test_small_demand_gets_demand(self):
        a = arb()
        r = a.arbitrate(1, 10 * KB, demand=50 * MBPS, now=0.0)
        assert r.queue == 0
        assert r.reference_rate == pytest.approx(50 * MBPS)

    def test_second_flow_gets_spare_capacity(self):
        a = arb()
        a.arbitrate(1, 10 * KB, demand=300 * MBPS, now=0.0)
        r = a.arbitrate(2, 50 * KB, demand=C, now=0.0)
        # ADH = 300 Mbps < C: still top queue, rate = spare 700 Mbps.
        assert r.queue == 0
        assert r.reference_rate == pytest.approx(C - 300 * MBPS)

    def test_saturated_link_pushes_to_second_queue(self):
        a = arb()
        a.arbitrate(1, 10 * KB, demand=C, now=0.0)
        r = a.arbitrate(2, 50 * KB, demand=C, now=0.0)
        assert r.queue == 1
        assert r.reference_rate == pytest.approx(BASE)

    def test_each_intermediate_queue_holds_one_c_of_demand(self):
        a = arb()
        queues = []
        for i in range(5):
            r = a.arbitrate(i, (i + 1) * 10 * KB, demand=C, now=0.0)
            queues.append(r.queue)
        assert queues == [0, 1, 2, 3, 4]

    def test_clamped_to_lowest_queue(self):
        a = arb(num_queues=3)
        for i in range(6):
            r = a.arbitrate(i, (i + 1) * 10 * KB, demand=C, now=0.0)
        assert r.queue == 2  # lowest data queue

    def test_sjf_order_is_by_criterion_not_arrival(self):
        a = arb()
        a.arbitrate(1, 500 * KB, demand=C, now=0.0)  # long flow first
        r_short = a.arbitrate(2, 5 * KB, demand=C, now=0.0)
        assert r_short.queue == 0  # shortest wins regardless of arrival
        r_long = a.arbitrate(1, 500 * KB, demand=C, now=0.0)
        assert r_long.queue == 1

    def test_update_resorts(self):
        a = arb()
        a.arbitrate(1, 500 * KB, demand=C, now=0.0)
        a.arbitrate(2, 100 * KB, demand=C, now=0.0)
        # Flow 1 drains below flow 2's remaining size.
        r = a.arbitrate(1, 50 * KB, demand=C, now=1.0)
        assert r.queue == 0

    def test_tie_broken_by_flow_id(self):
        a = arb()
        r1 = a.arbitrate(1, 100 * KB, demand=C, now=0.0)
        r2 = a.arbitrate(2, 100 * KB, demand=C, now=0.0)
        assert r1.queue == 0
        assert r2.queue == 1

    def test_remove(self):
        a = arb()
        a.arbitrate(1, 10 * KB, demand=C, now=0.0)
        a.arbitrate(2, 50 * KB, demand=C, now=0.0)
        a.remove(1)
        r = a.arbitrate(2, 50 * KB, demand=C, now=0.0)
        assert r.queue == 0

    def test_remove_unknown_is_noop(self):
        a = arb()
        a.remove(99)  # must not raise

    def test_expire(self):
        a = arb()
        a.arbitrate(1, 10 * KB, demand=C, now=0.0)
        a.arbitrate(2, 50 * KB, demand=C, now=5.0)
        dropped = a.expire(now=10.0, timeout=6.0)
        assert dropped == [1]
        assert 1 not in a.flows and 2 in a.flows

    def test_expire_skips_scan_when_fresh(self):
        a = arb()
        a.arbitrate(1, 10 * KB, demand=C, now=0.0)
        a.arbitrate(2, 50 * KB, demand=C, now=1.0)
        assert a.expire(now=2.0, timeout=6.0) == []
        assert a.active_flows == 2
        assert a.expire(now=0.0, timeout=0.0) == []  # empty-safe bound

    def test_expire_returns_every_stale_id(self):
        a = arb()
        for fid in (3, 1, 2):
            a.arbitrate(fid, fid * 10 * KB, demand=C, now=0.0)
        a.arbitrate(9, 90 * KB, demand=C, now=5.0)
        dropped = a.expire(now=10.0, timeout=6.0)
        assert sorted(dropped) == [1, 2, 3]
        assert list(a.flows) == [9]

    def test_clear_resets_table(self):
        a = arb()
        a.arbitrate(1, 10 * KB, demand=C, now=0.0)
        a.arbitrate(2, 50 * KB, demand=C, now=0.0)
        a.clear()
        assert a.active_flows == 0
        assert a.aggregate_demand() == 0.0
        r = a.arbitrate(3, 5 * KB, demand=C, now=1.0)
        assert r.queue == 0

    def test_negative_inputs_rejected(self):
        a = arb()
        with pytest.raises(ValueError):
            a.arbitrate(1, -5, demand=C, now=0.0)
        with pytest.raises(ValueError):
            a.arbitrate(1, 5, demand=-1, now=0.0)


class TestAggregateDemand:
    def test_total(self):
        a = arb()
        a.arbitrate(1, 10 * KB, demand=300 * MBPS, now=0.0)
        a.arbitrate(2, 20 * KB, demand=200 * MBPS, now=0.0)
        assert a.aggregate_demand() == pytest.approx(500 * MBPS)

    def test_top_queue_only(self):
        a = arb()
        a.arbitrate(1, 10 * KB, demand=C, now=0.0)
        a.arbitrate(2, 20 * KB, demand=C, now=0.0)
        a.arbitrate(3, 30 * KB, demand=C, now=0.0)
        # Only the first C worth of demand counts for top_queues=1.
        assert a.aggregate_demand(top_queues=1) == pytest.approx(C)


class TestMerge:
    def test_merge_takes_worst_queue_and_min_rate(self):
        a = ArbitrationResult(queue=0, reference_rate=1e9)
        b = ArbitrationResult(queue=3, reference_rate=5e8)
        m = a.merge(b)
        assert m.queue == 3
        assert m.reference_rate == 5e8

    def test_merge_commutative(self):
        a = ArbitrationResult(queue=2, reference_rate=1e8)
        b = ArbitrationResult(queue=1, reference_rate=9e8)
        assert a.merge(b) == b.merge(a)


class TestVirtualLink:
    def test_share_scales_capacity(self):
        v = VirtualLinkArbitrator("v", C, 7, BASE, initial_share=0.5)
        assert v.capacity == pytest.approx(C / 2)
        r1 = v.arbitrate(1, 10 * KB, demand=C, now=0.0)
        assert r1.reference_rate == pytest.approx(C / 2)

    def test_queue_boundaries_follow_share(self):
        v = VirtualLinkArbitrator("v", C, 7, BASE, initial_share=0.25)
        v.arbitrate(1, 10 * KB, demand=C / 4, now=0.0)
        r = v.arbitrate(2, 20 * KB, demand=C, now=0.0)
        assert r.queue == 1  # the slice is saturated by flow 1

    def test_set_share_validation(self):
        v = VirtualLinkArbitrator("v", C, 7, BASE, initial_share=0.5)
        v.set_share(0.9)
        assert v.capacity == pytest.approx(0.9 * C)
        with pytest.raises(ValueError):
            v.set_share(0.0)
        with pytest.raises(ValueError):
            v.set_share(1.5)

    def test_share_of_one_is_the_full_link(self):
        """share=1.0 is legal (a lone child owns the whole parent link) and
        must behave exactly like a physical arbitrator of that capacity."""
        v = VirtualLinkArbitrator("v", C, 7, BASE, initial_share=0.25)
        v.set_share(1.0)
        assert v.capacity == pytest.approx(C)
        real = LinkArbitrator("r", C, 7, BASE)
        for fid in (1, 2, 3):
            rv = v.arbitrate(fid, fid * 10 * KB, demand=C, now=0.0)
            rr = real.arbitrate(fid, fid * 10 * KB, demand=C, now=0.0)
            assert rv == rr

    @pytest.mark.parametrize("share", [0.05, 0.3, 0.5, 1.0])
    def test_decision_after_set_share_matches_fresh_arbitrator(self, share):
        """The cached capacity follows ``set_share``: every decision on a
        rebalanced slice equals one made by an arbitrator built at the
        new share with the same table."""
        table = [(1, 10 * KB, 0.3 * C), (2, 20 * KB, 0.2 * C),
                 (3, 40 * KB, C), (4, 80 * KB, 0.05 * C)]
        moved = VirtualLinkArbitrator("v", C, 7, BASE, initial_share=0.25)
        fresh = VirtualLinkArbitrator("f", C, 7, BASE, initial_share=share)
        for fid, criterion, demand in table:
            moved.arbitrate(fid, criterion, demand, now=0.0)
            fresh.arbitrate(fid, criterion, demand, now=0.0)
        moved.set_share(share)
        assert moved.capacity == fresh.capacity
        for fid, criterion, demand in table:
            assert (moved.arbitrate(fid, criterion, demand, now=1.0)
                    == fresh.arbitrate(fid, criterion, demand, now=1.0))
        assert (moved.aggregate_demand(top_queues=1)
                == fresh.aggregate_demand(top_queues=1))

    def test_capacity_change_mid_epoch_invalidates_decisions(self):
        """A rebalance between two decisions on an unchanged table must be
        visible: re-registering with the same values is a pure re-decide
        against the new slice capacity."""
        v = VirtualLinkArbitrator("v", C, 7, BASE, initial_share=1.0)
        v.arbitrate(1, 10 * KB, demand=C, now=0.0)
        # Flow 1 saturates the full link.
        assert v.arbitrate(2, 20 * KB, demand=C, now=0.0).queue == 1
        v.set_share(0.5)
        # Half the capacity: ADH spans two classes.
        assert v.arbitrate(2, 20 * KB, demand=C, now=1.0).queue == 2
        r1 = v.arbitrate(1, 10 * KB, demand=C, now=1.0)
        assert r1.reference_rate == pytest.approx(C / 2)
        # Re-asserting the same share changes no decision.
        v.set_share(0.5)
        assert v.arbitrate(1, 10 * KB, demand=C, now=2.0) == r1
        assert v.arbitrate(2, 20 * KB, demand=C, now=2.0).queue == 2

    def test_aggregate_demand_tie_break_is_deterministic(self):
        """Flows with equal criterion order by flow id, so the top-queue
        demand cut falls on the same flow no matter the insertion order."""
        def fill(order):
            a = arb()
            for fid in order:
                a.arbitrate(fid, 100 * KB, demand=0.4 * C, now=0.0)
            return a.aggregate_demand(top_queues=1)

        forward = fill([1, 2, 3, 4])
        backward = fill([4, 3, 2, 1])
        assert forward == backward
        # Three 0.4C flows fit before the cumulative demand reaches C
        # (the crossing flow is included, per Algorithm 1's cumulative scan).
        assert forward == pytest.approx(1.2 * C)
