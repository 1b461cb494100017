"""Experiment harness: scenarios, protocol bindings, runner, reporting."""

from repro.harness.experiment import (ExperimentResult, ExperimentSpec,
                                      run_experiment, sweep_loads)
from repro.harness.protocols import PROTOCOL_NAMES, ProtocolBinding, make_binding
from repro.harness.report import (
    format_cdf,
    format_series_table,
    improvement_row,
    series_from_results,
)
from repro.harness.scenarios import Scenario, ScenarioSpec

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "run_experiment",
    "sweep_loads",
    "PROTOCOL_NAMES",
    "ProtocolBinding",
    "make_binding",
    "format_cdf",
    "format_series_table",
    "improvement_row",
    "series_from_results",
    "Scenario",
    "ScenarioSpec",
]

from repro.harness.replication import (
    Replication,
    compare_protocols,
    replicate,
    significantly_better,
)

__all__ += [
    "Replication",
    "compare_protocols",
    "replicate",
    "significantly_better",
]
