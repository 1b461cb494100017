"""Tests for the Table 2 switch profiles and PASE's portability onto them."""

import pytest

from repro.core import PaseConfig
from repro.harness import ExperimentSpec, ScenarioSpec, run_experiment
from repro.sim.switch_models import TABLE2, get_switch_model, pase_config_for


class TestTable2:
    def test_all_five_models_present(self):
        assert set(TABLE2) == {"BCM56820", "G8264", "7050S", "EX3300", "S4810"}

    def test_queue_counts_match_paper(self):
        assert TABLE2["BCM56820"].num_queues == 10
        assert TABLE2["G8264"].num_queues == 8
        assert TABLE2["7050S"].num_queues == 7
        assert TABLE2["EX3300"].num_queues == 5
        assert TABLE2["S4810"].num_queues == 3

    def test_only_ex3300_lacks_ecn(self):
        no_ecn = [m.name for m in TABLE2.values() if not m.ecn]
        assert no_ecn == ["EX3300"]

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="unknown switch model"):
            get_switch_model("nexus9000")


class TestConfigDerivation:
    def test_queue_count_carries_over(self):
        cfg = pase_config_for(get_switch_model("S4810"))
        assert cfg.num_queues == 3
        assert cfg.num_data_queues == 2

    def test_no_ecn_disables_marking(self):
        cfg = pase_config_for(get_switch_model("EX3300"))
        # Threshold == capacity means the instantaneous queue can never
        # strictly exceed it at enqueue time: no CE marks.
        assert cfg.mark_threshold_pkts == cfg.queue_capacity_pkts

    def test_base_config_respected(self):
        base = PaseConfig(arbitration_interval=150e-6)
        cfg = pase_config_for(get_switch_model("G8264"), base)
        assert cfg.arbitration_interval == 150e-6
        assert cfg.num_queues == 8


class TestPaseOnEveryTable2Switch:
    @pytest.mark.parametrize("model_name", sorted(TABLE2))
    def test_pase_runs_and_completes(self, model_name):
        cfg = pase_config_for(get_switch_model(model_name))
        result = run_experiment(ExperimentSpec(
            "pase", ScenarioSpec("intra-rack", {"num_hosts": 8}), 0.6,
            num_flows=50, seed=6, pase_config=cfg))
        assert result.stats.completion_fraction == 1.0

    def test_more_queues_never_hurt_much(self):
        """BCM56820 (10 queues) should be at least as good as S4810 (3)."""
        results = {}
        for name in ("BCM56820", "S4810"):
            cfg = pase_config_for(get_switch_model(name))
            results[name] = run_experiment(ExperimentSpec(
                "pase", ScenarioSpec("intra-rack", {"num_hosts": 10}), 0.8,
                num_flows=80, seed=6, pase_config=cfg))
        assert results["BCM56820"].afct <= 1.1 * results["S4810"].afct
