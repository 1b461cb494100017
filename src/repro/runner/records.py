"""Run records: the runner's unit of accounting.

Every spec the runner touches produces exactly one :class:`RunRecord`
— whether the run computed, came from cache, failed, timed out or
crashed — so a sweep always completes with a full ledger instead of
aborting on the first sick point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.harness.experiment import ExperimentResult, ExperimentSpec

#: Terminal statuses a record can carry.
STATUS_OK = "ok"
STATUS_FAILED = "failed"      # the work function raised
STATUS_TIMEOUT = "timeout"    # the per-run timeout fired
STATUS_CRASHED = "crashed"    # worker died without reporting (segfault, OOM kill)


def _finite(value: float) -> Optional[float]:
    """NaN/inf have no strict-JSON spelling; emit null instead."""
    return value if value == value and abs(value) != float("inf") else None


@dataclass
class RunRecord:
    """Outcome of one spec: result or structured failure."""

    spec: ExperimentSpec
    status: str
    result: Optional[ExperimentResult] = None
    #: True when the result was served from the on-disk cache.
    cached: bool = False
    #: Wall-clock seconds spent on this point (parent view).
    wallclock: float = 0.0
    #: Peak resident set size of the worker process, in KiB (best-effort;
    #: in serial in-process mode this is the parent's cumulative peak).
    peak_rss_kb: Optional[int] = None
    #: Error description (exception repr + traceback tail, exit code, or
    #: timeout note) for non-ok statuses.
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_json_dict(self) -> Dict[str, Any]:
        """Flatten to the JSONL schema (no flow list — summaries only)."""
        spec = self.spec
        row: Dict[str, Any] = {
            "hash": spec.content_hash(),
            "protocol": spec.protocol,
            "scenario": spec.scenario.label(),
            "load": spec.load,
            "seed": spec.seed,
            "num_flows": spec.num_flows,
            "status": self.status,
            "cached": self.cached,
            "wallclock_s": round(self.wallclock, 6),
            "peak_rss_kb": self.peak_rss_kb,
            "error": self.error,
        }
        if isinstance(self.result, ExperimentResult):
            stats = self.result.stats
            row["metrics"] = {
                "afct_s": _finite(stats.afct),
                "median_fct_s": _finite(stats.median_fct),
                "p99_fct_s": _finite(stats.p99_fct),
                "loss_rate": _finite(self.result.loss_rate),
                "application_throughput": _finite(stats.application_throughput),
                "completion_fraction": _finite(stats.completion_fraction),
                "sim_duration_s": self.result.sim_duration,
                "events": self.result.events,
            }
            if self.result.faults is not None:
                row["faults"] = self.result.faults.to_json_dict()
        return row


@dataclass
class SweepStats:
    """Sweep-level counters for the one-line summary."""

    total: int = 0
    computed: int = 0
    cached: int = 0
    failed: int = 0
    wall_time: float = 0.0
    failures: List[str] = field(default_factory=list)

    @classmethod
    def from_records(cls, records: List[RunRecord],
                     wall_time: float) -> "SweepStats":
        stats = cls(total=len(records), wall_time=wall_time)
        for rec in records:
            if rec.cached:
                stats.cached += 1
            elif rec.ok:
                stats.computed += 1
            if not rec.ok:
                stats.failed += 1
                stats.failures.append(f"{rec.spec.label}: {rec.status}")
        return stats

    def summary_line(self) -> str:
        return (f"sweep: {self.total} runs — {self.computed} computed, "
                f"{self.cached} cached, {self.failed} failed, "
                f"{self.wall_time:.1f} s wall")
