"""Normalized FCT ("slowdown") and per-size-bucket statistics.

The transport literature (pFabric, PIAS, Homa) reports *slowdown* — a
flow's FCT divided by the FCT it would achieve alone on an idle path — so
short and long flows can share one scale, and breaks results into size
buckets (e.g. "(0, 100 KB]" vs "(1 MB, inf)").  The PASE paper reports raw
FCTs; these helpers support the deeper per-bucket analysis used in our
extended benchmarks and in debugging scheduling behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.metrics.stats import percentile
from repro.transports.flow import Flow
from repro.utils.units import bytes_to_bits


def ideal_fct(flow: Flow, bottleneck_bps: float, base_rtt: float) -> float:
    """FCT of ``flow`` alone on an idle path: one RTT of signalling plus
    serialization at the bottleneck."""
    if bottleneck_bps <= 0:
        raise ValueError(f"bottleneck_bps must be positive, got {bottleneck_bps}")
    return base_rtt + bytes_to_bits(flow.size_bytes) / bottleneck_bps


@dataclass
class BucketStats:
    """FCT statistics for one flow-size bucket."""

    low_bytes: float
    high_bytes: float
    count: int
    mean_fct: float
    p99_fct: float
    mean_slowdown: float

    @property
    def label(self) -> str:
        high = "inf" if math.isinf(self.high_bytes) else f"{self.high_bytes / 1000:.0f}KB"
        return f"({self.low_bytes / 1000:.0f}KB, {high}]"


def bucket_stats(
    flows: Iterable[Flow],
    edges_bytes: Sequence[float],
    bottleneck_bps: float,
    base_rtt: float,
) -> List[BucketStats]:
    """Bucket completed foreground flows by size at ``edges_bytes``
    boundaries (an implicit final bucket extends to infinity)."""
    if list(edges_bytes) != sorted(edges_bytes):
        raise ValueError("edges must be sorted ascending")
    bounds = [0.0] + list(edges_bytes) + [math.inf]
    buckets: List[List[Flow]] = [[] for _ in range(len(bounds) - 1)]
    for flow in flows:
        if flow.background or not flow.completed:
            continue
        for i in range(len(bounds) - 1):
            if bounds[i] < flow.size_bytes <= bounds[i + 1]:
                buckets[i].append(flow)
                break
    stats: List[BucketStats] = []
    for i, members in enumerate(buckets):
        if not members:
            stats.append(BucketStats(bounds[i], bounds[i + 1], 0,
                                     float("nan"), float("nan"), float("nan")))
            continue
        fcts = sorted(f.fct for f in members)
        slows = [f.fct / ideal_fct(f, bottleneck_bps, base_rtt)
                 for f in members]
        stats.append(BucketStats(
            low_bytes=bounds[i],
            high_bytes=bounds[i + 1],
            count=len(members),
            mean_fct=sum(fcts) / len(fcts),
            p99_fct=percentile(fcts, 99),
            mean_slowdown=sum(slows) / len(slows),
        ))
    return stats

