"""One description of a PASE run.

Every PASE variant is a row of ``PASE_PRESETS`` over the one
:class:`PaseBinding`, every sender reads its control plane's
:class:`PaseConfig`, and an unset arbitration interval means the
scenario's RTT while an explicit one is kept.
"""

import dataclasses
import inspect

import pytest

from repro.core import PaseConfig, PaseSender
from repro.harness import ExperimentSpec, run_experiment
from repro.harness.protocols import (
    PASE_PRESETS,
    PROTOCOLS,
    PaseBinding,
    ProtocolBinding,
    make_binding,
)
from repro.harness import scenarios
from repro.harness.scenarios import left_right
from repro.sim import Simulator
from repro.transports import Flow
from repro.utils.units import USEC
from tests.test_regression_golden import PIN_POINTS, PROTOCOL_PINS, _fingerprint


def test_pase_config_has_thirteen_fields():
    assert len(dataclasses.fields(PaseConfig)) == 13


def test_every_variant_is_a_preset_over_one_binding():
    assert {PROTOCOLS[name] for name in PASE_PRESETS} == {PaseBinding}
    assert not hasattr(ProtocolBinding, "make_receiver")


def test_sender_takes_no_config_and_reads_its_control_plane():
    params = list(inspect.signature(PaseSender).parameters)
    assert params == ["sim", "host", "flow", "control_plane", "on_done"]
    scenario = left_right(hosts_per_rack=2)
    binding = make_binding("pase-dctcp", scenario)
    sim = Simulator()
    topo = scenario.build_topology(sim, binding.queue_factory())
    binding.setup_network(sim, topo)
    sender = binding.make_sender(sim, topo.hosts[0], _flow(topo))
    assert sender.pase is binding.control_plane.config is binding.config
    assert not sender.pase.reference_rate


def _flow(topo):
    return Flow(flow_id=1, src=topo.hosts[0].node_id,
                dst=topo.hosts[-1].node_id, size_bytes=10_000, start_time=0.0)


def test_variant_preset_is_pinned_over_the_run_config():
    binding = make_binding("pase-noopt", left_right(),
                           PaseConfig(num_queues=4, pruning_queues=1))
    assert binding.config.num_queues == 4
    assert binding.config.pruning_queues == 0
    assert not binding.config.delegation_enabled


@pytest.mark.parametrize("name", sorted(PASE_PRESETS))
def test_pase_with_preset_reproduces_the_variant_pin(name):
    """``"pase"`` under ``PaseConfig(**preset)`` is the variant: same event
    count and per-flow fingerprint as its left-right pin."""
    (events, fingerprint), = [(e, f) for p, where, e, f in PROTOCOL_PINS
                              if p == name and where == "leftright"]
    scenario, load, num_flows = PIN_POINTS["leftright"]
    r = run_experiment(ExperimentSpec(
        "pase", scenario, load, num_flows=num_flows, seed=3,
        pase_config=PaseConfig(**PASE_PRESETS[name])))
    assert r.events == events
    assert _fingerprint(r) == fingerprint


class TestArbitrationInterval:
    def test_unset_interval_tracks_the_scenario_rtt(self):
        binding = make_binding("pase", scenarios.testbed())
        assert binding.config.arbitration_interval == 250 * USEC

    @pytest.mark.parametrize("interval", [300 * USEC, 301 * USEC])
    def test_explicit_interval_is_kept(self, interval):
        binding = make_binding("pase", scenarios.testbed(),
                               PaseConfig(arbitration_interval=interval))
        assert binding.config.arbitration_interval == interval

    def test_testbed_switch_sets_a_default_buffer(self):
        binding = make_binding("pase", scenarios.testbed())
        assert (binding.config.queue_capacity_pkts,
                binding.config.mark_threshold_pkts) == (100, 20)

    def test_explicit_buffer_is_kept_on_testbed(self):
        binding = make_binding("pase", scenarios.testbed(),
                               PaseConfig(queue_capacity_pkts=50))
        assert (binding.config.queue_capacity_pkts,
                binding.config.mark_threshold_pkts) == (50, 20)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError, match="arbitration_interval"):
            PaseConfig(arbitration_interval=0.0)
