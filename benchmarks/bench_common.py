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

Deduplication: every point is an :class:`ExperimentSpec` over a
``ScenarioSpec``, so it has a content hash.  All figures share one result
store for the session, in a temporary directory, so a point several
figures plot runs once.  At exit the session prints ``figure suite:
computed N of M points`` and removes the store.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core import PaseConfig
from repro.harness import (
    ExperimentResult,
    ExperimentSpec,
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

class _Session:
    """The session's result store, keyed by content hash, and a tally of
    the points asked for and computed; it reports and removes itself when
    the process exits."""

    def __init__(self) -> None:
        self.store = tempfile.mkdtemp(prefix="pase-figures-")
        self.requested = self.computed = 0
        self.seconds = 0.0
        atexit.register(self.close)

    def records(self, specs: Sequence[ExperimentSpec]) -> List[RunRecord]:
        records = run_sweep(specs, RunnerConfig(
            jobs=JOBS, timeout=TIMEOUT, retries=RETRIES,
            cache_dir=self.store)).records
        fresh = [r for r in records if not r.cached]
        self.requested += len(records)
        self.computed += len(fresh)
        self.seconds += sum(r.wallclock for r in fresh)
        return records

    def close(self) -> None:
        print(f"figure suite: computed {self.computed} of {self.requested} "
              f"points ({self.seconds:.1f} worker-seconds)")
        shutil.rmtree(self.store, ignore_errors=True)


_session: Optional[_Session] = None


def flows(n: int) -> int:
    """Scale a per-point flow budget by PASE_BENCH_SCALE."""
    return max(20, int(n * SCALE))


def _records(specs: Sequence[ExperimentSpec]) -> List[RunRecord]:
    """Run the points through the session store (made on first use); a
    failed point raises ``SweepFailure``, which fails the figure."""
    global _session
    if _session is None:
        _session = _Session()
    return _session.records(specs)


def run(specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
    """Run the points and return their results in spec order."""
    return [record.result for record in _records(specs)]


def sweep(
    protocols: Sequence[str],
    scenario: ScenarioSpec,
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
