"""Multi-seed replication: mean, spread, and confidence intervals.

Single-seed sweeps are fine for shape-checking; claims about one protocol
beating another by X% deserve replication.  :func:`replicate` runs the same
experiment across seeds and aggregates any scalar metric;
:func:`compare_protocols` reports each protocol's mean ± half-width of a
normal-approximation confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import PaseConfig
from repro.harness.experiment import ExperimentResult
from repro.harness.scenarios import ScenarioSpec

#: Extracts a scalar from a result, e.g. ``lambda r: r.afct``.
Metric = Callable[[ExperimentResult], float]

#: z-values for common confidence levels (normal approximation).
_Z = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


@dataclass
class Replication:
    """Aggregated scalar metric over seed replicas."""

    values: List[float]
    confidence: float = 0.95

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / self.n

    @property
    def std(self) -> float:
        if self.n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / (self.n - 1))

    @property
    def ci_halfwidth(self) -> float:
        """Half-width of the normal-approximation confidence interval."""
        if self.n < 2:
            return 0.0
        z = _Z.get(self.confidence)
        if z is None:
            raise ValueError(f"unsupported confidence {self.confidence}; "
                             f"use one of {sorted(_Z)}")
        return z * self.std / math.sqrt(self.n)

    @property
    def low(self) -> float:
        return self.mean - self.ci_halfwidth

    @property
    def high(self) -> float:
        return self.mean + self.ci_halfwidth

    def overlaps(self, other: "Replication") -> bool:
        """True when the two confidence intervals overlap (a difference is
        only trustworthy when they do not)."""
        return self.low <= other.high and other.low <= self.high

    def __repr__(self) -> str:
        return (f"Replication(n={self.n}, mean={self.mean:.6g} "
                f"± {self.ci_halfwidth:.2g})")


def replicate(
    protocol: str,
    scenario: ScenarioSpec,
    load: float,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    metric: Metric = lambda r: r.afct,
    num_flows: int = 150,
    pase_config: Optional[PaseConfig] = None,
    confidence: float = 0.95,
    jobs: int = 1,
    cache_dir=None,
    horizon: Optional[float] = None,
) -> Replication:
    """Run one experiment once per seed and aggregate ``metric``.

    The replicas go through :func:`repro.runner.run_sweep` (``jobs > 1``
    fans them out over worker processes; seed order is preserved in the
    aggregate either way).  A failed replica raises
    :class:`repro.runner.SweepFailure`."""
    from repro.runner import (RunnerConfig, SweepSpec, metric_values_by_seed,
                              run_sweep)

    specs = SweepSpec((protocol,), scenario, (load,), seeds=tuple(seeds),
                      num_flows=num_flows, pase_config=pase_config,
                      horizon=horizon).expand()
    records = run_sweep(specs, RunnerConfig(jobs=jobs,
                                            cache_dir=cache_dir)).records
    return Replication(metric_values_by_seed(records, metric),
                       confidence=confidence)


def compare_protocols(
    protocols: Sequence[str],
    scenario: ScenarioSpec,
    load: float,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    metric: Metric = lambda r: r.afct,
    **kwargs,
) -> Dict[str, Replication]:
    """Replicate each protocol on identical workloads (same seed set)."""
    return {
        protocol: replicate(protocol, scenario, load, seeds=seeds,
                            metric=metric, **kwargs)
        for protocol in protocols
    }


def significantly_better(
    candidate: Replication,
    baseline: Replication,
) -> bool:
    """True when the candidate's CI lies entirely below the baseline's
    (smaller is better, as for FCT metrics)."""
    return candidate.high < baseline.low
