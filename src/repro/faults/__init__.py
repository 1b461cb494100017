"""Fault injection: deterministic, seeded failures for robustness studies.

The paper's fault-tolerance argument (§3.1) is that arbitration is *soft
state*: arbitrators may crash, control messages may vanish, and endpoints
keep making progress because they remain self-adjusting and the state is
rebuilt by periodic per-RTT arbitration requests.  This package makes that
claim testable:

* :mod:`~repro.faults.schedule` — declarative :class:`FaultSchedule`
  (link down/up, arbitrator crash/recover, control-channel degradation,
  parameterized data-plane loss), plain data a scenario builder attaches,
* :mod:`~repro.faults.injector` — the :class:`FaultInjector` that executes
  a schedule on the event engine,
* :mod:`~repro.faults.models` — Bernoulli and Gilbert–Elliott loss models,
  which a loss window attaches to :attr:`repro.sim.link.Link.loss`.

Quick sketch::

    schedule = FaultSchedule(events=(
        ArbitratorCrash(at=0.01, duration=0.05),      # whole control plane
        LinkDown(at=0.02, links=("h0->sw0",), duration=0.005),
        ControlDegrade(at=0.08, duration=0.04, loss_rate=0.3),
    ), seed=7)
    FaultInjector(sim, topology.network, schedule, control_plane=cp)
    sim.run()

With no schedule attached nothing in this package runs and the simulation
is byte-identical to a clean build.
"""

from repro.faults.injector import FaultInjector
from repro.faults.models import (
    BernoulliLoss,
    GilbertElliottLoss,
    LossModel,
    make_loss_model,
)
from repro.faults.schedule import (
    ArbitratorCrash,
    ControlDegrade,
    DataLoss,
    FaultEvent,
    FaultSchedule,
    LinkDown,
)

__all__ = [
    "FaultInjector",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "LossModel",
    "make_loss_model",
    "ArbitratorCrash",
    "ControlDegrade",
    "DataLoss",
    "FaultEvent",
    "FaultSchedule",
    "LinkDown",
]
