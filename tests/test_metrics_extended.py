"""Tests for slowdown/bucket statistics and time-series probes."""

import math

import pytest

from repro.metrics import (
    Series,
    TimeSeriesProbe,
    bucket_stats,
    ideal_fct,
)
from repro.sim import Simulator, StarTopology
from repro.sim.packet import make_data_packet
from repro.transports import Flow
from repro.utils.units import GBPS, KB, USEC


def make_flow(fid, size, fct=None, background=False):
    f = Flow(flow_id=fid, src=0, dst=1, size_bytes=size, start_time=0.0,
             background=background)
    if fct is not None:
        f.completion_time = fct
    return f


class TestIdealFct:
    def test_formula(self):
        f = make_flow(1, 125_000)  # 1 Mbit
        assert ideal_fct(f, 1 * GBPS, 100 * USEC) == pytest.approx(
            100e-6 + 1e-3)

    def test_invalid_bottleneck(self):
        with pytest.raises(ValueError):
            ideal_fct(make_flow(1, 1000), 0, 1e-4)


class TestSlowdowns:
    def test_idle_path_slowdown_near_one(self):
        f = make_flow(1, 125_000, fct=1.1e-3)
        (bucket,) = bucket_stats([f], [], 1 * GBPS, 100 * USEC)
        assert bucket.mean_slowdown == pytest.approx(1.0, rel=0.01)

    def test_background_and_incomplete_excluded(self):
        fs = [
            make_flow(1, 125_000, fct=2e-3),
            make_flow(2, 125_000, fct=2e-3, background=True),
            make_flow(3, 125_000),  # incomplete
        ]
        (bucket,) = bucket_stats(fs, [], 1 * GBPS, 100 * USEC)
        assert bucket.count == 1


class TestBuckets:
    def test_partitioning(self):
        fs = [make_flow(i, size, fct=1e-3)
              for i, size in enumerate([5 * KB, 50 * KB, 500 * KB])]
        buckets = bucket_stats(fs, [10 * KB, 100 * KB], 1 * GBPS, 100 * USEC)
        assert [b.count for b in buckets] == [1, 1, 1]
        assert buckets[-1].high_bytes == math.inf

    def test_empty_bucket_is_nan(self):
        fs = [make_flow(1, 5 * KB, fct=1e-3)]
        buckets = bucket_stats(fs, [10 * KB], 1 * GBPS, 100 * USEC)
        assert buckets[0].count == 1
        assert buckets[1].count == 0
        assert math.isnan(buckets[1].mean_fct)

    def test_labels(self):
        fs = [make_flow(1, 5 * KB, fct=1e-3)]
        buckets = bucket_stats(fs, [10 * KB], 1 * GBPS, 100 * USEC)
        assert buckets[0].label == "(0KB, 10KB]"
        assert "inf" in buckets[1].label

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            bucket_stats([], [100, 10], 1 * GBPS, 1e-4)


class TestTimeSeriesProbe:
    def test_sampling_cadence(self):
        sim = Simulator()
        probe = TimeSeriesProbe(sim, period=1e-3)
        ticks = probe.add_gauge("clock", lambda: sim.now)
        probe.start()
        sim.schedule(10e-3, sim.stop)
        sim.run()
        assert len(ticks.times) >= 10
        # Samples are evenly spaced.
        gaps = [b - a for a, b in zip(ticks.times, ticks.times[1:])]
        assert all(abs(g - 1e-3) < 1e-9 for g in gaps)

    def test_queue_depth_gauge(self):
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=2)
        link = topo.host_uplink(topo.hosts[0])
        probe = TimeSeriesProbe(sim, period=1e-6)
        depth = probe.watch_queue_depth(link)
        probe.start()
        for i in range(10):
            link.send(make_data_packet(0, 1, 1, i))
        sim.schedule(20e-6, probe.stop)
        sim.run(until=1e-3)
        assert depth.peak > 0

    def test_busy_gauge_and_over(self):
        sim = Simulator()
        topo = StarTopology(sim, num_hosts=2)
        link = topo.host_uplink(topo.hosts[0])
        probe = TimeSeriesProbe(sim, period=1e-6)
        busy = probe.watch_busy(link)
        probe.start()
        for i in range(50):
            link.send(make_data_packet(0, 1, 1, i))
        sim.schedule(100e-6, probe.stop)
        sim.run(until=1e-3)
        assert busy.over(0.5) > 0.3  # mostly busy while draining 50 packets

    def test_duplicate_gauge_rejected(self):
        probe = TimeSeriesProbe(Simulator())
        probe.add_gauge("x", lambda: 0.0)
        with pytest.raises(ValueError):
            probe.add_gauge("x", lambda: 1.0)

    def test_series_stats_empty(self):
        s = Series("empty")
        assert math.isnan(s.mean)
        assert math.isnan(s.peak)
        assert math.isnan(s.over(0.5))
