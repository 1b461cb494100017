"""Tests for the experiment harness: bindings, runner, sweeps, reports."""

import pytest

from repro.core import PaseConfig
from repro.harness import (
    ExperimentResult,
    ExperimentSpec,
    ScenarioSpec,
    format_cdf,
    format_series_table,
    make_binding,
    run_experiment,
    series_from_results,
    sweep_loads,
)
from repro.harness.protocols import PROTOCOL_NAMES
from repro.harness.scenarios import intra_rack, left_right


SMALL = dict(load=0.5, num_flows=30, seed=2)
INTRA6 = ScenarioSpec("intra-rack", {"num_hosts": 6})


class TestBindings:
    def test_all_protocols_constructible(self):
        scn = intra_rack(num_hosts=4)
        for name in PROTOCOL_NAMES:
            binding = make_binding(name, scn)
            assert binding.queue_factory() is not None

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            make_binding("quic", intra_rack(num_hosts=4))

    def test_pase_variants_configure_correctly(self):
        scn = left_right(hosts_per_rack=2)
        local = make_binding("pase-local", scn)
        assert not local.config.end_to_end_arbitration
        noopt = make_binding("pase-noopt", scn)
        assert noopt.config.pruning_queues == 0
        assert not noopt.config.delegation_enabled
        noprobe = make_binding("pase-noprobe", scn)
        assert not noprobe.config.probing_enabled

    def test_deadline_scenario_sets_edf(self):
        scn = intra_rack(num_hosts=4, with_deadlines=True)
        binding = make_binding("pase", scn)
        assert binding.config.criterion == "deadline"

    def test_explicit_size_criterion_overrides_deadline_scenario(self):
        scn = intra_rack(num_hosts=4, with_deadlines=True)
        binding = make_binding("pase", scn, PaseConfig(criterion="size"))
        assert binding.config.criterion == "size"


class TestRunExperiment:
    @pytest.mark.parametrize("protocol", ["dctcp", "d2tcp", "l2dct", "pdq",
                                          "pfabric", "pase", "pase-dctcp"])
    def test_protocol_completes_intra_rack(self, protocol):
        result = run_experiment(ExperimentSpec(protocol, INTRA6, **SMALL))
        assert result.stats.completion_fraction == 1.0
        assert result.afct > 0

    def test_left_right_runs(self):
        result = run_experiment(ExperimentSpec(
            "pase", ScenarioSpec("left-right", {"hosts_per_rack": 2}),
            load=0.4, num_flows=20, seed=2))
        assert result.stats.completion_fraction == 1.0
        assert result.control_plane is not None
        assert result.control_plane.messages > 0

    def test_all_to_all_runs(self):
        result = run_experiment(ExperimentSpec(
            "pfabric", ScenarioSpec("all-to-all", {"num_hosts": 6}), **SMALL))
        assert result.stats.completion_fraction == 1.0

    def test_all_to_all_with_background_flow_runs(self):
        # Background flows draw single pairs from the incast pattern.
        result = run_experiment(ExperimentSpec(
            "dctcp", ScenarioSpec("all-to-all", {"num_hosts": 6,
                                                 "num_background_flows": 1}),
            **SMALL))
        assert result.stats.completion_fraction == 1.0

    def test_testbed_scenario(self):
        result = run_experiment(ExperimentSpec(
            "dctcp", ScenarioSpec("testbed", {"num_hosts": 5}),
            load=0.4, num_flows=20, seed=2))
        assert result.stats.completion_fraction == 1.0

    def test_deadline_metrics_present(self):
        result = run_experiment(ExperimentSpec(
            "d2tcp", ScenarioSpec("intra-rack-deadlines", {"num_hosts": 6}), **SMALL))
        assert 0.0 <= result.application_throughput <= 1.0

    def test_deterministic_given_seed(self):
        a = run_experiment(ExperimentSpec("dctcp", INTRA6, **SMALL))
        b = run_experiment(ExperimentSpec("dctcp", INTRA6, **SMALL))
        assert a.afct == b.afct
        assert a.events == b.events

    def test_seeds_change_results(self):
        a = run_experiment(ExperimentSpec("dctcp", INTRA6, load=0.5,
                           num_flows=30, seed=1))
        b = run_experiment(ExperimentSpec("dctcp", INTRA6, load=0.5,
                           num_flows=30, seed=9))
        assert a.afct != b.afct

    def test_horizon_caps_stuck_runs(self):
        result = run_experiment(ExperimentSpec("tcp", INTRA6,
                                load=0.5, num_flows=10, seed=2, horizon=0.05))
        assert result.sim_duration <= result.flows[-1].start_time + 0.05 + 1e-9


class TestSweep:
    def test_sweep_returns_per_load(self):
        results = sweep_loads("dctcp", INTRA6,
                              loads=[0.2, 0.5], num_flows=20, seed=2)
        assert set(results) == {0.2, 0.5}
        assert all(isinstance(r, ExperimentResult) for r in results.values())


class TestReport:
    def _results(self):
        return {
            "pase": {0.5: run_experiment(ExperimentSpec("pase", INTRA6, **SMALL))},
            "dctcp": {0.5: run_experiment(ExperimentSpec("dctcp", INTRA6, **SMALL))},
        }

    def test_series_extraction(self):
        series = series_from_results(self._results(), "afct", scale=1e3)
        assert set(series) == {"pase", "dctcp"}
        assert series["pase"][0.5] > 0

    def test_table_formatting(self):
        series = series_from_results(self._results(), "afct", scale=1e3)
        table = format_series_table("AFCT (ms)", [0.5], series, unit="ms")
        assert "AFCT (ms)" in table
        assert "50" in table
        assert "pase" in table and "dctcp" in table

    def test_cdf_formatting(self):
        results = self._results()
        cdfs = {name: by_load[0.5].stats.fct_cdf()
                for name, by_load in results.items()}
        text = format_cdf("FCT CDF at 50% load", cdfs)
        assert "0.50" in text and "1.00" in text
