"""Tests for distributions, patterns, and the workload generator."""

import random

import pytest

from repro.utils.units import GBPS, KB
from repro.workloads import (
    DeadlineDistribution,
    EmpiricalSizeDistribution,
    FixedSizeDistribution,
    IncastAllToAll,
    IntraRackRandom,
    LeftRight,
    ManyToOne,
    UniformSizeDistribution,
    WorkloadConfig,
    generate_workload,
)


class TestDistributions:
    def test_uniform_bounds(self):
        dist = UniformSizeDistribution(2 * KB, 198 * KB)
        rng = random.Random(1)
        samples = [dist.sample(rng) for _ in range(500)]
        assert all(2 * KB <= s <= 198 * KB for s in samples)

    def test_uniform_mean(self):
        dist = UniformSizeDistribution(100, 300)
        assert dist.mean_bytes == 200
        rng = random.Random(2)
        mean = sum(dist.sample(rng) for _ in range(5000)) / 5000
        assert mean == pytest.approx(200, rel=0.05)

    def test_uniform_invalid(self):
        with pytest.raises(ValueError):
            UniformSizeDistribution(100, 50)

    def test_fixed(self):
        dist = FixedSizeDistribution(1234)
        assert dist.sample(random.Random()) == 1234
        assert dist.mean_bytes == 1234

    def test_empirical_interpolates(self):
        dist = EmpiricalSizeDistribution([(1000, 0.0), (2000, 0.5), (10_000, 1.0)])
        rng = random.Random(3)
        samples = [dist.sample(rng) for _ in range(2000)]
        assert min(samples) >= 1000
        assert max(samples) <= 10_000
        below = sum(1 for s in samples if s <= 2000) / len(samples)
        assert below == pytest.approx(0.5, abs=0.05)

    def test_empirical_validation(self):
        with pytest.raises(ValueError):
            EmpiricalSizeDistribution([(100, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalSizeDistribution([(100, 0.5), (200, 0.4)])
        with pytest.raises(ValueError):
            EmpiricalSizeDistribution([(300, 0.0), (200, 1.0)])

    def test_deadlines_in_range(self):
        dist = DeadlineDistribution(5e-3, 25e-3)
        rng = random.Random(4)
        assert all(5e-3 <= dist.sample(rng) <= 25e-3 for _ in range(200))


class TestPatterns:
    def test_intra_rack_distinct_pairs(self):
        p = IntraRackRandom(list(range(10)), 1 * GBPS)
        rng = random.Random(1)
        for _ in range(200):
            s, d = p.pair(rng)
            assert s != d
            assert s in range(10) and d in range(10)

    def test_intra_rack_basis(self):
        p = IntraRackRandom(list(range(10)), 1 * GBPS)
        assert p.capacity_basis_bps == 10 * GBPS

    def test_all_to_all_round_robin_aggregators(self):
        hosts = list(range(4))
        p = IncastAllToAll(hosts, 1 * GBPS, fanin=1)
        rng = random.Random(1)
        dsts = [p.pair(rng)[1] for _ in range(8)]
        assert dsts == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_all_to_all_src_differs_from_dst(self):
        p = IncastAllToAll(list(range(4)), 1 * GBPS, fanin=1)
        rng = random.Random(2)
        assert all(s != d for s, d in (p.pair(rng) for _ in range(100)))

    def test_many_to_one(self):
        p = ManyToOne([1, 2, 3], 9, 1 * GBPS)
        rng = random.Random(1)
        for _ in range(50):
            s, d = p.pair(rng)
            assert d == 9 and s in (1, 2, 3)
        assert p.capacity_basis_bps == 1 * GBPS

    def test_many_to_one_receiver_not_sender(self):
        with pytest.raises(ValueError):
            ManyToOne([1, 2], 2, 1 * GBPS)

    def test_left_right_membership(self):
        p = LeftRight([1, 2], [8, 9], 10 * GBPS)
        rng = random.Random(1)
        for _ in range(50):
            s, d = p.pair(rng)
            assert s in (1, 2) and d in (8, 9)
        assert p.capacity_basis_bps == 10 * GBPS


class TestGenerator:
    def cfg(self, **kw):
        defaults = dict(
            pattern=IntraRackRandom(list(range(10)), 1 * GBPS),
            size_dist=UniformSizeDistribution(2 * KB, 198 * KB),
            load=0.5,
            num_flows=100,
            seed=7,
        )
        defaults.update(kw)
        return WorkloadConfig(**defaults)

    def test_flow_count(self):
        flows = generate_workload(self.cfg())
        assert len(flows) == 100

    def test_deterministic_by_seed(self):
        a = generate_workload(self.cfg())
        b = generate_workload(self.cfg())
        assert [(f.src, f.dst, f.size_bytes, f.start_time) for f in a] == \
               [(f.src, f.dst, f.size_bytes, f.start_time) for f in b]

    def test_different_seeds_differ(self):
        a = generate_workload(self.cfg(seed=1))
        b = generate_workload(self.cfg(seed=2))
        assert [f.size_bytes for f in a] != [f.size_bytes for f in b]

    def test_arrival_rate_realizes_load(self):
        cfg = self.cfg(num_flows=3000, load=0.5)
        flows = generate_workload(cfg)
        span = flows[-1].start_time - flows[0].start_time
        measured_rate = (len(flows) - 1) / span
        assert measured_rate == pytest.approx(cfg.arrival_rate, rel=0.1)

    def test_arrival_rate_formula(self):
        cfg = self.cfg(load=0.8)
        expected = 0.8 * 10 * GBPS / (100 * KB * 8)
        assert cfg.arrival_rate == pytest.approx(expected)

    def test_background_flows_first_and_flagged(self):
        flows = generate_workload(self.cfg(num_background_flows=2))
        assert len(flows) == 102
        assert flows[0].background and flows[1].background
        assert flows[0].start_time == 0.0
        assert not any(f.background for f in flows[2:])

    def test_start_times_sorted(self):
        flows = generate_workload(self.cfg())
        starts = [f.start_time for f in flows]
        assert starts == sorted(starts)

    def test_flow_ids_unique(self):
        flows = generate_workload(self.cfg(num_background_flows=3))
        ids = [f.flow_id for f in flows]
        assert len(set(ids)) == len(ids)

    def test_first_flow_id_offset(self):
        flows = generate_workload(self.cfg(), first_flow_id=500)
        assert flows[0].flow_id == 500

    def test_deadlines_attached(self):
        cfg = self.cfg(deadline_dist=DeadlineDistribution(5e-3, 25e-3))
        flows = generate_workload(cfg)
        assert all(5e-3 <= f.deadline <= 25e-3 for f in flows)

    def test_load_bounds_validated(self):
        with pytest.raises(ValueError):
            self.cfg(load=0.0)
        with pytest.raises(ValueError):
            self.cfg(load=2.0)
