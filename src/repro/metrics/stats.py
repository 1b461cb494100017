"""Flow-completion-time statistics: the paper's headline metrics.

* **AFCT** — average FCT of completed foreground flows (Figs. 2, 9a, 10c,
  11a, 12, 13),
* **99th-percentile FCT** — tail latency (Fig. 10a),
* **FCT CDF** — distribution at a fixed load (Figs. 9b, 10b),
* **application throughput** — fraction of deadline flows finishing within
  their deadline (Figs. 1, 9c).

Incomplete foreground flows are a reproduction hazard: silently ignoring
them flatters a protocol that strands flows.  :class:`FlowStats` therefore
tracks the completion fraction explicitly and (optionally) penalizes
incomplete flows in deadline metrics, matching how the paper counts a flow
that misses its deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.transports.flow import Flow


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in [0, 100]) of sorted data."""
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if not 0 <= p <= 100:
        raise ValueError(f"p must be in [0, 100], got {p}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (p / 100) * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    frac = rank - low
    return sorted_values[low] * (1 - frac) + sorted_values[high] * frac


@dataclass
class FlowStats:
    """Summary statistics over one experiment's foreground flows."""

    num_flows: int
    num_completed: int
    fcts: List[float]  # sorted, completed foreground flows only
    num_deadline_flows: int
    num_deadlines_met: int

    @classmethod
    def from_flows(cls, flows: Iterable[Flow]) -> "FlowStats":
        foreground = [f for f in flows if not f.background]
        fcts = sorted(f.fct for f in foreground if f.completed)
        deadline_flows = [f for f in foreground if f.deadline is not None]
        met = sum(1 for f in deadline_flows if f.met_deadline)
        return cls(
            num_flows=len(foreground),
            num_completed=sum(1 for f in foreground if f.completed),
            fcts=fcts,
            num_deadline_flows=len(deadline_flows),
            num_deadlines_met=met,
        )

    # -- FCT ------------------------------------------------------------
    @property
    def afct(self) -> float:
        """Average FCT (seconds) over completed foreground flows."""
        if not self.fcts:
            return float("nan")
        return sum(self.fcts) / len(self.fcts)

    def fct_percentile(self, p: float) -> float:
        if not self.fcts:
            return float("nan")
        return percentile(self.fcts, p)

    @property
    def p99_fct(self) -> float:
        return self.fct_percentile(99)

    @property
    def median_fct(self) -> float:
        return self.fct_percentile(50)

    def fct_cdf(self, points: int = 100) -> List[Tuple[float, float]]:
        """``(fct_seconds, cumulative_fraction)`` pairs for CDF plots."""
        if not self.fcts:
            return []
        n = len(self.fcts)
        step = max(1, n // points)
        cdf = [(self.fcts[i], (i + 1) / n) for i in range(0, n, step)]
        if cdf[-1][1] != 1.0:
            cdf.append((self.fcts[-1], 1.0))
        return cdf

    # -- deadlines --------------------------------------------------------
    @property
    def application_throughput(self) -> float:
        """Fraction of deadline-carrying flows that met their deadline.
        Flows that never completed count as missed."""
        if self.num_deadline_flows == 0:
            return float("nan")
        return self.num_deadlines_met / self.num_deadline_flows

    # -- completeness ------------------------------------------------------
    @property
    def completion_fraction(self) -> float:
        if self.num_flows == 0:
            return float("nan")
        return self.num_completed / self.num_flows

