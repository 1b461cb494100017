"""Windowed time-series collection: queue depths, link busy state and any
other gauge, sampled on a fixed period.

The figure benchmarks only need end-of-run aggregates, but diagnosing *why*
a protocol behaves as it does (is the bottleneck idle during flow
switching? how deep does the top queue run?) needs the trajectory.  A
:class:`TimeSeriesProbe` schedules itself on the simulator and snapshots a
set of user-provided gauges every ``period`` seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.utils.validation import check_positive

#: A gauge reads one float from the live simulation.
Gauge = Callable[[], float]


@dataclass
class Series:
    """One sampled metric: parallel time/value arrays."""

    name: str
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, t: float, v: float) -> None:
        self.times.append(t)
        self.values.append(v)

    @property
    def mean(self) -> float:
        if not self.values:
            return float("nan")
        return sum(self.values) / len(self.values)

    @property
    def peak(self) -> float:
        if not self.values:
            return float("nan")
        return max(self.values)

    def over(self, threshold: float) -> float:
        """Fraction of samples strictly above ``threshold``."""
        if not self.values:
            return float("nan")
        return sum(1 for v in self.values if v > threshold) / len(self.values)


class TimeSeriesProbe:
    """Samples registered gauges every ``period`` simulated seconds."""

    def __init__(self, sim: Simulator, period: float = 100e-6) -> None:
        self.sim = sim
        self.period = check_positive("period", period)
        self.series: Dict[str, Series] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._running = False

    def add_gauge(self, name: str, gauge: Gauge) -> Series:
        if name in self._gauges:
            raise ValueError(f"gauge {name!r} already registered")
        self._gauges[name] = gauge
        series = Series(name)
        self.series[name] = series
        return series

    # -- convenience gauges ------------------------------------------------
    def watch_queue_depth(self, link: Link, name: Optional[str] = None) -> Series:
        """Sample the packet occupancy of a link's egress queue."""
        return self.add_gauge(name or f"qdepth:{link.name}",
                              lambda: float(len(link.queue)))

    def watch_busy(self, link: Link, name: Optional[str] = None) -> Series:
        """Sample whether the link is transmitting right now (0/1)."""
        return self.add_gauge(name or f"busy:{link.name}",
                              lambda: 1.0 if link.busy else 0.0)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.post(0.0, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        for name, gauge in self._gauges.items():
            self.series[name].append(now, gauge())
        self.sim.post(self.period, self._tick)
