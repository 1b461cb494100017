"""Tests for :class:`ExperimentSpec`, the one description of a run."""

import dataclasses

import pytest

from repro.core import PaseConfig
from repro.harness import ExperimentSpec, intra_rack, run_experiment
from repro.harness.scenarios import (SCENARIO_BUILDERS, build_scenario,
                                     scenario_cli_kwargs)
from repro.runner import ScenarioSpec
from tests.test_regression_golden import _fingerprint

SCN = intra_rack(num_hosts=5)


class TestSpecConstruction:
    def test_defaults_mirror_legacy_signature(self):
        spec = ExperimentSpec("dctcp", SCN, 0.4)
        assert spec.num_flows == 300
        assert spec.seed == 1
        assert spec.pase_config is None
        assert spec.horizon is None
        assert spec.binding is None

    def test_spec_is_frozen(self):
        spec = ExperimentSpec("dctcp", SCN, 0.4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.load = 0.9

    def test_replace_returns_modified_copy(self):
        spec = ExperimentSpec("dctcp", SCN, 0.4, seed=3)
        hot = dataclasses.replace(spec, load=0.9)
        assert hot.load == 0.9
        assert hot.seed == 3
        assert spec.load == 0.4  # original untouched

    def test_label(self):
        spec = ExperimentSpec("pase", SCN, 0.5, seed=7)
        assert spec.label == f"pase/{SCN.name}/load=0.5/seed=7"


class TestRunExperimentSpec:
    def test_spec_call_runs(self):
        result = run_experiment(ExperimentSpec(
            "dctcp", SCN, 0.4, num_flows=15, seed=2))
        assert result.stats.completion_fraction == 1.0
        assert result.protocol == "dctcp"

    def test_spec_call_rejects_extra_arguments(self):
        spec = ExperimentSpec("dctcp", SCN, 0.4, num_flows=15)
        with pytest.raises(TypeError):
            run_experiment(spec, 0.5)
        with pytest.raises(TypeError):
            run_experiment(spec, seed=3)

    def test_pase_config_flows_through(self):
        result = run_experiment(ExperimentSpec(
            "pase", SCN, 0.4, num_flows=15, seed=2,
            pase_config=PaseConfig(num_queues=4)))
        assert result.control_plane is not None


class TestRunnerIntegration:
    def test_scenario_spec_run_equals_built_scenario_run(self):
        spec = ExperimentSpec(
            "dctcp", ScenarioSpec("intra-rack", {"num_hosts": 5}), 0.4,
            num_flows=15, seed=2)
        via_spec = run_experiment(spec)
        via_built = run_experiment(
            dataclasses.replace(spec, scenario=spec.scenario.build()))
        assert via_spec.scenario == via_built.scenario
        assert via_spec.events == via_built.events
        assert [f.fct for f in via_spec.flows] == [f.fct for f in via_built.flows]


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_shared_scenario_runs_like_fresh_builds(name):
    """Specs may share one built Scenario: running it repeatedly must give
    the same events and per-flow timings as a fresh build per run."""
    kwargs = scenario_cli_kwargs(name, hosts=4, fanin=3)
    shared = build_scenario(name, **kwargs)

    def fingerprints(scenario_for_run):
        runs = [run_experiment(ExperimentSpec(
            "pase", scenario_for_run(), load, num_flows=12, seed=5))
            for load in (0.3, 0.6, 0.3)]
        return [(r.events, _fingerprint(r)) for r in runs]

    assert (fingerprints(lambda: shared) ==
            fingerprints(lambda: build_scenario(name, **kwargs)))
