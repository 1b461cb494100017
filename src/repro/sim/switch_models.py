"""Commodity top-of-rack switch profiles (the paper's Table 2).

PASE's deployability argument rests on what shipping hardware already has:
a handful of strict-priority queues per port and (usually) ECN.  Table 2
lists five representative ToR switches; this module encodes them so
experiments can ask "would PASE work on an EX3300?" directly.

Use :func:`pase_config_for` to derive a :class:`~repro.core.config.PaseConfig`
from a profile — the queue count carries over, and switches without ECN get
marking disabled (PASE then degrades gracefully: intermediate-queue flows
fall back to loss-based adjustment).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass(frozen=True)
class SwitchModel:
    """One commodity ToR switch's relevant capabilities (per interface)."""

    name: str
    vendor: str
    num_queues: int
    ecn: bool


#: Table 2 of the paper, verbatim.
TABLE2: Dict[str, SwitchModel] = {
    "BCM56820": SwitchModel("BCM56820", "Broadcom", num_queues=10, ecn=True),
    "G8264": SwitchModel("G8264", "IBM", num_queues=8, ecn=True),
    "7050S": SwitchModel("7050S", "Arista", num_queues=7, ecn=True),
    "EX3300": SwitchModel("EX3300", "Juniper", num_queues=5, ecn=False),
    "S4810": SwitchModel("S4810", "Dell", num_queues=3, ecn=True),
}


def pase_config_for(model: SwitchModel, base=None):
    """A :class:`PaseConfig` matched to ``model``'s capabilities.

    Switches without ECN keep their queues but lose marking: we emulate
    that by pushing the mark threshold to the queue capacity, so CE is
    never set and endpoints adjust on loss alone.
    """
    from repro.core.config import PaseConfig  # local import: avoid cycle

    cfg = base or PaseConfig()
    overrides = {"num_queues": model.num_queues}
    if not model.ecn:
        overrides["mark_threshold_pkts"] = cfg.queue_capacity_pkts
    return replace(cfg, **overrides)
