"""Tests for FCT statistics, deadline accounting, and overhead metrics."""

import math

import pytest

from repro.metrics import (
    ControlPlaneCounters,
    FlowStats,
    NetworkCounters,
    overhead_reduction,
    percentile,
)
from repro.transports import Flow


def make_flow(fid, size=10_000, start=0.0, fct=None, deadline=None,
              background=False):
    f = Flow(flow_id=fid, src=0, dst=1, size_bytes=size, start_time=start,
             deadline=deadline, background=background)
    if fct is not None:
        f.completion_time = start + fct
    return f


class TestPercentile:
    def test_endpoints(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 4.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_against_numpy(self):
        import numpy as np
        data = sorted([3.1, 0.2, 9.9, 5.5, 4.4, 1.1, 8.8])
        for p in (10, 25, 50, 75, 90, 99):
            assert percentile(data, p) == pytest.approx(
                float(np.percentile(data, p)))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestFlowStats:
    def test_afct(self):
        flows = [make_flow(i, fct=ms * 1e-3) for i, ms in enumerate([1, 2, 3])]
        stats = FlowStats.from_flows(flows)
        assert stats.afct == pytest.approx(2e-3)

    def test_background_excluded(self):
        flows = [
            make_flow(1, fct=1e-3),
            make_flow(2, fct=100e-3, background=True),
        ]
        stats = FlowStats.from_flows(flows)
        assert stats.num_flows == 1
        assert stats.afct == pytest.approx(1e-3)

    def test_incomplete_tracked(self):
        flows = [make_flow(1, fct=1e-3), make_flow(2)]
        stats = FlowStats.from_flows(flows)
        assert stats.num_completed == 1
        assert stats.completion_fraction == 0.5

    def test_incomplete_deadline_counts_as_missed(self):
        flows = [
            make_flow(1, fct=1e-3, deadline=5e-3),   # met
            make_flow(2, fct=9e-3, deadline=5e-3),   # missed
            make_flow(3, deadline=5e-3),             # never completed
        ]
        stats = FlowStats.from_flows(flows)
        assert stats.application_throughput == pytest.approx(1 / 3)

    def test_no_deadline_flows_gives_nan(self):
        stats = FlowStats.from_flows([make_flow(1, fct=1e-3)])
        assert math.isnan(stats.application_throughput)

    def test_p99(self):
        flows = [make_flow(i, fct=(i + 1) * 1e-3) for i in range(100)]
        stats = FlowStats.from_flows(flows)
        assert stats.p99_fct == pytest.approx(percentile(sorted(stats.fcts), 99))

    def test_cdf_monotonic_and_complete(self):
        flows = [make_flow(i, fct=(i % 17 + 1) * 1e-3) for i in range(50)]
        cdf = FlowStats.from_flows(flows).fct_cdf()
        fracs = [fr for _, fr in cdf]
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0
        values = [v for v, _ in cdf]
        assert values == sorted(values)

    def test_empty_stats(self):
        stats = FlowStats.from_flows([])
        assert math.isnan(stats.afct)
        assert stats.fct_cdf() == []


class TestCounters:
    def test_network_loss_rate(self):
        c = NetworkCounters(data_pkts_offered=200, data_pkts_dropped=10,
                            duration=1.0)
        assert c.loss_rate == pytest.approx(0.05)

    def test_zero_offered(self):
        c = NetworkCounters(0, 0, 1.0)
        assert c.loss_rate == 0.0

    def test_messages_per_sec(self):
        c = ControlPlaneCounters(messages=500, messages_by_level={},
                                 requests=100, prunes=5, duration=0.5)
        assert c.messages_per_sec == pytest.approx(1000.0)

    def test_overhead_reduction(self):
        assert overhead_reduction(1000, 400) == pytest.approx(60.0)
        assert overhead_reduction(0, 10) == 0.0
