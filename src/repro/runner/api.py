"""The runner's front door: cache-aware sweep execution.

:func:`run_sweep` is the one call every client (``sweep_loads``, the
replication helpers, ``bench_common``, the CLI) goes through.  It
runs each distinct content hash once, consults the result cache,
executes only the missing points (in-process
when ``jobs == 1``, on forked workers otherwise; see
:mod:`repro.runner.executor`), stores fresh results back, streams records
to an optional JSONL sink, and returns the full ledger plus counters, or
raises :class:`SweepFailure` carrying them when any point failed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.experiment import ExperimentSpec
from repro.runner.cache import ResultCache
from repro.runner.executor import (WorkFn, execute_spec, run_parallel,
                                   run_serial)
from repro.runner.records import STATUS_OK, RunRecord, SweepStats
from repro.runner.sink import JsonlSink


@dataclass
class RunnerConfig:
    """Execution policy for one sweep."""

    #: Concurrent workers; 1 runs the points in order in this process.
    jobs: int = 1
    #: Per-run wall-clock budget (seconds); None disables.  Needs
    #: ``jobs > 1``: serial mode has no supervising process to kill a run.
    timeout: Optional[float] = None
    #: Result cache root; None runs every point and caches nothing.
    cache_dir: Optional[os.PathLike] = None
    jsonl_path: Optional[os.PathLike] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout is not None and self.jobs == 1:
            raise ValueError("a timeout needs jobs > 1: a serial run has no "
                             "second process to stop it")


@dataclass
class SweepOutcome:
    """Everything a sweep produced: per-point records plus counters."""

    records: List[RunRecord] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    def summary_line(self) -> str:
        return self.stats.summary_line()


class SweepFailure(RuntimeError):
    """Raised once a sweep has settled every point and any failed;
    ``outcome`` holds the whole ledger, ``failed`` its failing records."""

    def __init__(self, outcome: SweepOutcome) -> None:
        failed = [r for r in outcome.records if not r.ok]
        lines = [f"{r.spec.label}: {r.status}" for r in failed]
        super().__init__(
            f"{len(failed)} sweep point(s) failed:\n  " + "\n  ".join(lines)
            + (f"\nfirst error:\n{failed[0].error}" if failed[0].error else ""))
        self.outcome = outcome
        self.failed = failed


def run_sweep(
    specs: Sequence[ExperimentSpec],
    config: RunnerConfig,
    work_fn: WorkFn = execute_spec,
    on_record: Optional[Callable[[RunRecord], None]] = None,
) -> SweepOutcome:
    """Execute a sweep grid with caching and crash isolation.

    Records come back in spec order regardless of completion order.  Each
    distinct :meth:`~ExperimentSpec.content_hash` runs once: a repeated
    spec's record carries its first occurrence's result and counts as
    cached.  Cache hits never touch the executor; fresh ok results are
    stored back.  Every point settles and the ledger is written before a
    failed point raises :class:`SweepFailure`.
    """
    specs = list(specs)
    started = time.perf_counter()

    cache = (ResultCache(config.cache_dir)
             if config.cache_dir is not None else None)
    sink = JsonlSink(config.jsonl_path) if config.jsonl_path else None

    def emit(record: RunRecord) -> None:
        if sink is not None:
            sink.write_record(record)
        if on_record is not None:
            on_record(record)

    try:
        records: List[Optional[RunRecord]] = [None] * len(specs)
        runs: Dict[str, List[int]] = {}  # content hash -> spec indices
        for i, spec in enumerate(specs):
            runs.setdefault(spec.content_hash(), []).append(i)

        def settle(key: str, record: RunRecord) -> None:
            first, *repeats = runs[key]
            records[first] = record
            emit(record)
            for i in repeats:
                repeat = (RunRecord(spec=specs[i], status=STATUS_OK,
                                    result=record.result, cached=True)
                          if record.ok else replace(record, spec=specs[i]))
                records[i] = repeat
                emit(repeat)

        to_run: List[int] = []
        for key, (first, *_) in runs.items():
            cached = cache.get(key) if cache else None
            if cached is not None:
                settle(key, RunRecord(spec=specs[first], status=STATUS_OK,
                                      result=cached, cached=True))
            else:
                to_run.append(first)

        def settle_fresh(record: RunRecord) -> None:
            key = record.spec.content_hash()
            if cache is not None and record.ok and record.result is not None:
                cache.put(key, record.result)
            settle(key, record)

        fresh = [specs[i] for i in to_run]
        if config.jobs == 1:
            run_serial(fresh, work_fn, settle_fresh)
        else:
            run_parallel(fresh, config, work_fn, settle_fresh)
        final = [r for r in records if r is not None]
        stats = SweepStats.from_records(final, time.perf_counter() - started)
        if sink is not None:
            sink.write_summary(stats)
    finally:
        if sink is not None:
            sink.close()

    outcome = SweepOutcome(records=final, stats=stats)
    if stats.failed:
        raise SweepFailure(outcome)
    return outcome
