"""Result sinks and aggregation.

The runner's durable output is JSONL — one line per settled run (metrics
summary, wall-clock, peak RSS, cache accounting) plus a trailing
``sweep_summary`` line.  The aggregation helpers fold records back into
the nested ``{protocol: {load: ExperimentResult}}`` shape the existing
report/benchmark machinery consumes, so a figure built on the runner can
keep using :func:`~repro.harness.report.series_from_results` unchanged.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional

from repro.harness.experiment import ExperimentResult
from repro.runner.records import RunRecord, SweepStats

#: The key a ``--profile`` dump is sorted by, as its ledger row records it.
PROFILE_SORT = "cumulative"


class JsonlSink:
    """Append-mode JSONL writer, flushed per record so a killed sweep still
    leaves a usable partial ledger."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")

    def write_record(self, record: RunRecord) -> None:
        self._write({"type": "run", **record.to_json_dict()})

    def write_profile(self, profile_path: os.PathLike,
                      run_hash: Optional[str] = None) -> None:
        """Record where a cProfile dump for this ledger's run(s) landed, so
        a profile on disk is always discoverable from the ledger alone."""
        self._write({
            "type": "profile",
            "path": str(profile_path),
            "run": run_hash,
            "sort": PROFILE_SORT,
        })

    def write_summary(self, stats: SweepStats) -> None:
        self._write({
            "type": "sweep_summary",
            "total": stats.total,
            "computed": stats.computed,
            "cached": stats.cached,
            "failed": stats.failed,
            "wall_time_s": round(stats.wall_time, 6),
            "failures": stats.failures,
        })

    def _write(self, row: Dict) -> None:
        self._fh.write(json.dumps(row, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def results_by_protocol_load(
    records: List[RunRecord],
) -> Dict[str, Dict[float, ExperimentResult]]:
    """Fold ok records into the report-layer shape.  Multi-seed sweeps keep
    the first seed per (protocol, load) — use
    :func:`~repro.harness.replication.replicate` (or
    :func:`metric_values_by_seed`) when you want the spread."""
    out: Dict[str, Dict[float, ExperimentResult]] = {}
    for rec in records:
        if not rec.ok or rec.result is None:
            continue
        by_load = out.setdefault(rec.spec.protocol, {})
        by_load.setdefault(rec.spec.load, rec.result)
    return out


def metric_values_by_seed(records: List[RunRecord],
                          metric) -> List[float]:
    """Extract a scalar metric from ok records, ordered by seed — the
    input :class:`~repro.harness.replication.Replication` wants."""
    ordered = sorted((r for r in records if r.ok and r.result is not None),
                     key=lambda r: r.spec.seed)
    return [metric(r.result) for r in ordered]
