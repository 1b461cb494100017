"""Tests for multi-seed replication and the significance helpers."""

import pytest

from repro.harness import ScenarioSpec
from repro.harness.replication import (
    Replication,
    compare_protocols,
    replicate,
    significantly_better,
)


class TestReplicationStats:
    def test_mean_and_std(self):
        r = Replication([1.0, 2.0, 3.0])
        assert r.mean == pytest.approx(2.0)
        assert r.std == pytest.approx(1.0)

    def test_single_value_degenerate(self):
        r = Replication([5.0])
        assert r.mean == 5.0
        assert r.std == 0.0
        assert r.ci_halfwidth == 0.0

    def test_ci_narrows_with_more_samples(self):
        wide = Replication([1.0, 3.0])
        narrow = Replication([1.0, 3.0] * 8)
        assert narrow.ci_halfwidth < wide.ci_halfwidth

    def test_confidence_levels(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert (Replication(vals, confidence=0.99).ci_halfwidth
                > Replication(vals, confidence=0.90).ci_halfwidth)
        with pytest.raises(ValueError):
            Replication(vals, confidence=0.42).ci_halfwidth

    def test_overlap_detection(self):
        a = Replication([1.0, 1.1, 0.9])
        b = Replication([1.05, 1.15, 0.95])
        far = Replication([9.0, 9.1, 8.9])
        assert a.overlaps(b)
        assert not a.overlaps(far)

    def test_significantly_better(self):
        fast = Replication([1.0, 1.1, 0.9])
        slow = Replication([5.0, 5.2, 4.8])
        assert significantly_better(fast, slow)
        assert not significantly_better(slow, fast)
        assert not significantly_better(fast, fast)


class TestReplicatedExperiments:
    def test_replicate_runs_all_seeds(self):
        rep = replicate("dctcp", ScenarioSpec("intra-rack", {"num_hosts": 6}), 0.5,
                        seeds=(1, 2, 3), num_flows=25)
        assert rep.n == 3
        assert rep.mean > 0
        assert rep.std > 0  # different seeds, different workloads

    def test_compare_pase_beats_dctcp_significantly(self):
        results = compare_protocols(
            ("pase", "dctcp"), ScenarioSpec("intra-rack", {"num_hosts": 8}), 0.7,
            seeds=(1, 2, 3, 4), num_flows=60)
        assert significantly_better(results["pase"], results["dctcp"])

    def test_custom_metric(self):
        rep = replicate("pase", ScenarioSpec("intra-rack", {"num_hosts": 6}), 0.5,
                        seeds=(1, 2), num_flows=25,
                        metric=lambda r: r.stats.completion_fraction)
        assert rep.mean == pytest.approx(1.0)
