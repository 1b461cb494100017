"""repro.runner — parallel sweep execution with caching and crash isolation.

Every figure reproduction is an embarrassingly-parallel grid of
(protocol, scenario, load, seed) points, each one an
:class:`~repro.harness.experiment.ExperimentSpec`.  :func:`run_sweep` is
the one way to run such a grid, and :class:`RunnerConfig` the one place
its policy lives: it serves repeat points from a content-addressed
on-disk cache salted by code version when ``cache_dir`` is set
(:mod:`repro.runner.cache`), runs the rest in order in-process
(``jobs=1``) or over per-run worker processes with timeouts, bounded
retries, and crash isolation (:mod:`repro.runner.executor`), streams a
JSONL ledger with wall-clock, peak-RSS, and cache/attempt accounting
(:mod:`repro.runner.sink`), and raises :class:`SweepFailure` once every
point has settled if any failed.  :class:`SweepSpec`
(:mod:`repro.runner.spec`) expands a declarative grid into specs.

Typical library use::

    from repro.runner import (RunnerConfig, ScenarioSpec, SweepSpec,
                              default_cache_dir, run_sweep)

    spec = SweepSpec(protocols=("pase", "dctcp"),
                     scenario=ScenarioSpec("left-right"),
                     loads=(0.1, 0.5, 0.9), seeds=(1, 2, 3))
    outcome = run_sweep(spec.expand(), RunnerConfig(
        jobs=4, timeout=1800, cache_dir=default_cache_dir()))
    print(outcome.summary_line())

or from the shell: ``python -m repro.runner --help``.
"""

from repro.runner.api import (
    RunnerConfig,
    SweepFailure,
    SweepOutcome,
    run_sweep,
)
from repro.runner.cache import ResultCache, code_version_salt, default_cache_dir
from repro.harness.scenarios import ScenarioSpec
from repro.runner.executor import execute_spec
from repro.runner.records import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunRecord,
    SweepStats,
)
from repro.runner.sink import (
    JsonlSink,
    metric_values_by_seed,
    results_by_protocol_load,
)
from repro.runner.spec import SweepSpec

__all__ = [
    "RunnerConfig",
    "SweepFailure",
    "SweepOutcome",
    "run_sweep",
    "ResultCache",
    "code_version_salt",
    "default_cache_dir",
    "execute_spec",
    "STATUS_CRASHED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "RunRecord",
    "SweepStats",
    "JsonlSink",
    "metric_values_by_seed",
    "results_by_protocol_load",
    "ScenarioSpec",
    "SweepSpec",
]
