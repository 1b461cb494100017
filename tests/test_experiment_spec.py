"""Tests for :class:`ExperimentSpec`, the one description of a run."""

import dataclasses

import pytest

from repro.core import PaseConfig
from repro.harness import ExperimentSpec, run_experiment
from repro.harness.scenarios import (SCENARIO_BUILDERS, intra_rack,
                                     scenario_cli_kwargs, scenario_defaults)
from repro.runner import ScenarioSpec
from tests.test_regression_golden import _fingerprint

SCN = ScenarioSpec("intra-rack", {"num_hosts": 5})


class TestSpecConstruction:
    def test_defaults_mirror_legacy_signature(self):
        spec = ExperimentSpec("dctcp", SCN, 0.4)
        assert spec.num_flows == 300
        assert spec.seed == 1
        assert spec.pase_config is None
        assert spec.horizon is None
        assert len(dataclasses.fields(ExperimentSpec)) == 7

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
        assert spec.label == "pase/intra-rack[num_hosts=5]/load=0.5/seed=7"


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
    def test_equal_hashes_run_identically(self):
        """Spelling a default out changes neither the hash nor the run."""
        short = ExperimentSpec("pase", SCN, 0.4, num_flows=15, seed=2)
        long = ExperimentSpec(
            "pase", ScenarioSpec("intra-rack", {"num_hosts": 5,
                                                "num_background_flows": 2}),
            0.4, num_flows=15, seed=2,
            pase_config=PaseConfig(arbitration_interval=300e-6))
        assert short.content_hash() == long.content_hash()
        a, b = run_experiment(short), run_experiment(long)
        assert a.events == b.events
        assert _fingerprint(a) == _fingerprint(b)


#: A value other than the default for every ``left-right`` kwarg and
#: every ``PaseConfig`` field.
OTHER_KWARGS = {"hosts_per_rack": 10, "num_racks": 8, "racks_per_agg": 4,
                "host_link_bps": 1e10, "core_rtt": 100e-6,
                "sizes": "web-search", "num_background_flows": 0}
OTHER_PASE = {"num_queues": 4, "queue_capacity_pkts": 100,
              "shared_queue_capacity": True, "mark_threshold_pkts": 20,
              "min_rto_low": 20e-3, "reference_rate": False,
              "probing_enabled": False, "criterion": "las",
              "early_termination": True, "arbitration_interval": 600e-6,
              "pruning_queues": 1, "delegation_enabled": False,
              "end_to_end_arbitration": False}


def _hash(protocol="pase", scenario="left-right", kwargs=None, **fields):
    return ExperimentSpec(protocol, ScenarioSpec(scenario, kwargs or {}),
                          0.5, **fields).content_hash()


class TestCanonicalKey:
    def test_default_kwargs_spelled_out_hash_equal(self):
        assert _hash() == _hash(kwargs=scenario_defaults("left-right"))

    def test_extended_scenario_drops_its_base_defaults(self):
        assert (_hash(scenario="intra-rack-arb-crash") ==
                _hash(scenario="intra-rack-arb-crash",
                      kwargs={"num_hosts": 20, "crash_at": 5e-3}))

    def test_default_pase_configs_hash_equal(self):
        none = _hash()
        assert _hash(pase_config=PaseConfig()) == none
        assert _hash(pase_config=PaseConfig(arbitration_interval=300e-6)) == none
        assert _hash(protocol="pase-dctcp") == _hash(
            protocol="pase-dctcp", pase_config=PaseConfig(reference_rate=False))

    def test_non_pase_protocol_drops_pase_config(self):
        assert (_hash(protocol="dctcp") ==
                _hash(protocol="dctcp", pase_config=PaseConfig(num_queues=4)))

    @pytest.mark.parametrize("name,value", sorted(OTHER_KWARGS.items()))
    def test_non_default_kwarg_moves_the_hash(self, name, value):
        assert set(OTHER_KWARGS) == set(scenario_defaults("left-right"))
        assert _hash(kwargs={name: value}) != _hash()

    @pytest.mark.parametrize("name,value", sorted(OTHER_PASE.items()))
    def test_non_default_pase_field_moves_the_hash(self, name, value):
        assert set(OTHER_PASE) == {f.name for f in dataclasses.fields(PaseConfig)}
        assert _hash(pase_config=PaseConfig(**{name: value})) != _hash()

    @pytest.mark.parametrize("fields", [{"horizon": 5.0}, {"seed": 2},
                                        {"num_flows": 301}])
    def test_non_default_run_field_moves_the_hash(self, fields):
        assert _hash(**fields) != _hash()

    def test_built_scenario_rejected_at_construction(self):
        with pytest.raises(TypeError, match="scenario"):
            ExperimentSpec("dctcp", intra_rack(num_hosts=5), 0.3)

    def test_explicit_buffer_on_testbed_moves_the_hash(self):
        def testbed(capacity):
            return _hash(scenario="testbed", pase_config=PaseConfig(
                queue_capacity_pkts=capacity))

        assert testbed(50) != _hash(scenario="testbed")
        assert testbed(500) == _hash(scenario="testbed")

    @pytest.mark.parametrize("name,kwargs", [
        ("left-right", {"num_hosts": 5}),
        ("intra-rack-deadlines", {"with_deadlines": False}),
    ])
    def test_rejected_kwarg_fails_at_construction(self, name, kwargs):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            ScenarioSpec(name, kwargs)

    def test_non_json_kwarg_rejected_at_construction(self):
        with pytest.raises(TypeError, match="'sizes'"):
            ExperimentSpec("dctcp", ScenarioSpec(
                "intra-rack", {"sizes": object()}), 0.3)


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_shared_scenario_runs_like_fresh_builds(name):
    """Specs may share one ScenarioSpec: each run builds its own scenario,
    so repeated runs give the same events and per-flow timings as a fresh
    spec per run."""
    kwargs = scenario_cli_kwargs(name, hosts=4, fanin=3)
    shared = ScenarioSpec(name, kwargs)

    def fingerprints(scenario_for_run):
        runs = [run_experiment(ExperimentSpec(
            "pase", scenario_for_run(), load, num_flows=12, seed=5))
            for load in (0.3, 0.6, 0.3)]
        return [(r.events, _fingerprint(r)) for r in runs]

    assert (fingerprints(lambda: shared) ==
            fingerprints(lambda: ScenarioSpec(name, dict(kwargs))))
