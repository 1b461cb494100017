"""Measurement: FCT statistics, deadline throughput, loss and control
overhead accounting."""

from repro.metrics.faults import FaultCounters
from repro.metrics.overhead import (
    ControlPlaneCounters,
    NetworkCounters,
    overhead_reduction,
)
from repro.metrics.slowdown import (
    BucketStats,
    bucket_stats,
    ideal_fct,
)
from repro.metrics.stats import FlowStats, percentile
from repro.metrics.timeseries import Series, TimeSeriesProbe

__all__ = [
    "FaultCounters",
    "ControlPlaneCounters",
    "NetworkCounters",
    "overhead_reduction",
    "FlowStats",
    "percentile",
    "BucketStats",
    "bucket_stats",
    "ideal_fct",
    "Series",
    "TimeSeriesProbe",
]
