"""Shared infrastructure for the figure-reproduction benchmarks.

Every ``test_figXX_*.py`` module reproduces one figure/table from the paper:
it sweeps the same loads, prints the same series the paper plots, writes the
table to ``benchmarks/results/``, and asserts the figure's *qualitative*
shape (who wins, where the crossover is) so a regression that silently
breaks a result fails the benchmark run.

Scale: ``PASE_BENCH_SCALE`` (default 1.0) multiplies per-point flow counts;
set it to 3-5 for tighter confidence at the cost of wall-clock time.

Parallelism: every figure's points go through :func:`run`, hence
``repro.runner.run_sweep`` — a (protocol x load) grid via :func:`sweep`.
``PASE_BENCH_JOBS`` (default 1, in-process) fans them out over worker
processes, with identical results; ``PASE_BENCH_TIMEOUT`` (which needs
``PASE_BENCH_JOBS`` > 1) and ``PASE_BENCH_RETRIES`` bound sick points.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.core import PaseConfig
from repro.harness import (
    ExperimentResult,
    ExperimentSpec,
    Scenario,
    ScenarioSpec,
    format_series_table,
    series_from_results,
)
from repro.runner import (RunnerConfig, RunRecord, SweepSpec,
                          results_by_protocol_load, run_sweep)

RESULTS_DIR = Path(__file__).parent / "results"

#: The paper sweeps 10%-90%; we default to five points across that range.
PAPER_LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)

SCALE = float(os.environ.get("PASE_BENCH_SCALE", "1.0"))
JOBS = int(os.environ.get("PASE_BENCH_JOBS", "1"))
TIMEOUT = (float(os.environ["PASE_BENCH_TIMEOUT"])
           if "PASE_BENCH_TIMEOUT" in os.environ else None)
RETRIES = int(os.environ.get("PASE_BENCH_RETRIES", "0"))


def flows(n: int) -> int:
    """Scale a per-point flow budget by PASE_BENCH_SCALE."""
    return max(20, int(n * SCALE))


def _records(specs: Sequence[ExperimentSpec]) -> List[RunRecord]:
    """Run the points uncached; a failed point raises ``SweepFailure``,
    which fails the figure."""
    return run_sweep(specs, RunnerConfig(
        jobs=JOBS, timeout=TIMEOUT, retries=RETRIES)).records


def run(specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
    """Run the points (uncached) and return their results in spec order."""
    return [record.result for record in _records(specs)]


def sweep(
    protocols: Sequence[str],
    scenario: Union[Scenario, ScenarioSpec],
    loads: Iterable[float] = PAPER_LOADS,
    num_flows: int = 200,
    seed: int = 42,
    pase_config: Optional[PaseConfig] = None,
    horizon: Optional[float] = None,
) -> Dict[str, Dict[float, ExperimentResult]]:
    """Run each protocol across the load sweep (``num_flows`` scaled by
    :func:`flows`), keyed protocol then load."""
    specs = SweepSpec(tuple(protocols), scenario, tuple(loads),
                      seeds=(seed,), num_flows=flows(num_flows),
                      pase_config=pase_config, horizon=horizon).expand()
    return results_by_protocol_load(_records(specs))


def emit(name: str, text: str) -> str:
    """Print a figure's table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print()
    print(text)
    return text


def afct_table(
    title: str,
    results: Mapping[str, Mapping[float, ExperimentResult]],
    loads: Sequence[float],
) -> str:
    series = series_from_results(results, "afct", scale=1e3)
    return format_series_table(title, loads, series, unit="ms")


def run_once(benchmark, fn):
    """Run a figure exactly once under pytest-benchmark (these sweeps are
    far too heavy for statistical repetition; the timing recorded is the
    whole-figure cost)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
