"""Declarative sweep grids.

A :class:`SweepSpec` is a figure's (protocols × loads × seeds) grid over
one scenario; ``expand()`` turns it into the
:class:`~repro.harness.experiment.ExperimentSpec` list that
:func:`~repro.runner.api.run_sweep` executes.  The scenario is a
:class:`~repro.harness.scenarios.ScenarioSpec`, so every point has a
content hash.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core import PaseConfig
from repro.harness.experiment import ExperimentSpec
from repro.harness.scenarios import ScenarioSpec


@dataclass
class SweepSpec:
    """A declarative sweep grid; ``expand()`` yields the specs in
    protocol-major, then load, then seed order."""

    protocols: Sequence[str]
    scenario: ScenarioSpec
    loads: Sequence[float]
    seeds: Sequence[int] = (1,)
    num_flows: int = 200
    pase_config: Optional[PaseConfig] = None
    horizon: Optional[float] = None

    def expand(self) -> List[ExperimentSpec]:
        return [
            ExperimentSpec(
                protocol, self.scenario, load, num_flows=self.num_flows,
                seed=seed, pase_config=self.pase_config,
                horizon=self.horizon,
            )
            for protocol, load, seed in itertools.product(
                self.protocols, self.loads, self.seeds)
        ]
