"""The runner's front door: cache-aware sweep execution.

:func:`run_sweep` is the one call every client (``sweep_loads``, the
replication helpers, ``bench_common``, the CLI) goes through.  It
consults the result cache, executes only the missing points through the
:class:`ProcessPoolRunner`, stores fresh results back, streams records to
an optional JSONL sink, and returns the full ledger plus counters.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.harness.experiment import ExperimentSpec
from repro.runner.cache import ResultCache
from repro.runner.executor import ProcessPoolRunner, WorkFn, execute_spec
from repro.runner.records import STATUS_OK, RunRecord, SweepStats
from repro.runner.sink import JsonlSink


@dataclass
class RunnerConfig:
    """Execution policy for one sweep."""

    jobs: int = 1
    #: Per-run wall-clock budget (seconds); None disables.  Enforced only
    #: when ``jobs > 1`` (serial mode has no supervising process).
    timeout: Optional[float] = None
    retries: int = 0
    backoff: float = 0.25
    use_cache: bool = True
    #: None -> ``PASE_CACHE_DIR`` or ``~/.cache/pase-repro``.
    cache_dir: Optional[os.PathLike] = None
    #: Override the code-version salt (tests use this to force invalidation).
    cache_salt: Optional[str] = None
    jsonl_path: Optional[os.PathLike] = None
    #: "record": failures become failed records (sweep completes).
    #: "raise": raise :class:`SweepFailure` after the sweep settles — what
    #: ``sweep_loads``/``replicate`` use.
    on_error: str = "record"

    def __post_init__(self) -> None:
        if self.on_error not in ("record", "raise"):
            raise ValueError(f"on_error must be 'record' or 'raise', "
                             f"got {self.on_error!r}")


class SweepFailure(RuntimeError):
    """Raised under ``on_error='raise'``; carries the failing records."""

    def __init__(self, failed: List[RunRecord]) -> None:
        lines = [f"{r.spec.label}: {r.status}" for r in failed]
        super().__init__(
            f"{len(failed)} sweep point(s) failed:\n  " + "\n  ".join(lines)
            + (f"\nfirst error:\n{failed[0].error}" if failed[0].error else ""))
        self.failed = failed


@dataclass
class SweepOutcome:
    """Everything a sweep produced: per-point records plus counters."""

    records: List[RunRecord] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    @property
    def ok(self) -> bool:
        return self.stats.failed == 0

    def summary_line(self) -> str:
        return self.stats.summary_line()


def run_sweep(
    specs: Sequence[ExperimentSpec],
    config: Optional[RunnerConfig] = None,
    work_fn: WorkFn = execute_spec,
    on_record: Optional[Callable[[RunRecord], None]] = None,
) -> SweepOutcome:
    """Execute a sweep grid with caching and crash isolation.

    Records come back in spec order regardless of completion order.
    Cache hits never touch the executor; fresh ok results are stored back
    (only for cacheable specs — a built scenario executes fine but has no
    stable identity to cache under).
    """
    config = config or RunnerConfig()
    specs = list(specs)
    started = time.perf_counter()

    cache = (ResultCache(config.cache_dir, salt=config.cache_salt)
             if config.use_cache else None)
    sink = JsonlSink(config.jsonl_path) if config.jsonl_path else None

    def emit(record: RunRecord) -> None:
        if sink is not None:
            sink.write_record(record)
        if on_record is not None:
            on_record(record)

    try:
        records: List[Optional[RunRecord]] = [None] * len(specs)
        to_run: List[int] = []
        for i, spec in enumerate(specs):
            cached = cache.get(spec.content_hash()) if cache else None
            if cached is not None:
                record = RunRecord(spec=spec, status=STATUS_OK,
                                   result=cached, cached=True)
                records[i] = record
                emit(record)
            else:
                to_run.append(i)

        if to_run:
            runner = ProcessPoolRunner(
                jobs=config.jobs, timeout=config.timeout,
                retries=config.retries, backoff=config.backoff,
                work_fn=work_fn,
            )

            def settle(record: RunRecord) -> None:
                if cache is not None and record.ok and record.result is not None:
                    cache.put(record.spec.content_hash(), record.result)
                emit(record)

            fresh = runner.run([specs[i] for i in to_run],
                               on_record=settle)
            for i, record in zip(to_run, fresh):
                records[i] = record

        final = [r for r in records if r is not None]
        stats = SweepStats.from_records(final, time.perf_counter() - started)
        if sink is not None:
            sink.write_summary(stats)
    finally:
        if sink is not None:
            sink.close()

    if config.on_error == "raise":
        failed = [r for r in final if not r.ok]
        if failed:
            raise SweepFailure(failed)
    return SweepOutcome(records=final, stats=stats)
