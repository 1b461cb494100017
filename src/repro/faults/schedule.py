"""Declarative fault schedules.

A :class:`FaultSchedule` is plain data — a seed plus a tuple of fault
events — so it can ride inside a :class:`~repro.harness.scenarios.Scenario`
and cross process boundaries; a sweep point names it through a registered
scenario's kwargs.  The :class:`~repro.faults.injector.FaultInjector` is
the executable half: it walks the schedule and arms the corresponding
simulator events.

Event kinds:

* :class:`LinkDown` — take links down at ``at`` (optionally back up after
  ``duration``).  ``flush=True`` drops queued packets immediately; with
  ``flush=False`` queued packets survive the outage and resume when the
  link comes back (a paused port).  Either way the packet being serialized
  when the link dies is corrupted, and everything offered while down is
  dropped — senders ride the outage out via RTO.
* :class:`ArbitratorCrash` — crash arbitrators at ``at`` (``links=None``
  means the whole control plane), recovering after ``duration`` if given.
  A crash wipes the arbitrator's soft state; recovery starts empty and the
  table is rebuilt by the endpoints' periodic arbitration requests.
* :class:`ControlDegrade` — a lossy/slow control channel for a window:
  each explicit arbitration message is lost with ``loss_rate`` and delayed
  by ``extra_delay``.
* :class:`DataLoss` — wrap links' queues with a
  :class:`~repro.faults.queues.LossyQueue` for a window, using a named
  loss model (``bernoulli`` or ``gilbert-elliott``); a bad model name or
  parameter fails when the event is built.

Link selectors are names from :class:`~repro.sim.link.Link` (e.g.
``"h0->sw0"``) and support ``fnmatch`` wildcards (``"h0->*"``); ``None``
means every link.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple, Union

from repro.faults.models import make_loss_model
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class LinkDown:
    """Take matching links down at ``at`` (back up after ``duration``)."""

    at: float
    links: Optional[Tuple[str, ...]] = None
    duration: Optional[float] = None
    flush: bool = True


@dataclass(frozen=True)
class ArbitratorCrash:
    """Crash arbitrators (``links=None`` = the whole control plane)."""

    at: float
    links: Optional[Tuple[str, ...]] = None
    duration: Optional[float] = None


@dataclass(frozen=True)
class ControlDegrade:
    """Lossy / slow control channel for a window starting at ``at``."""

    at: float
    duration: Optional[float] = None
    loss_rate: float = 0.0
    extra_delay: float = 0.0


@dataclass(frozen=True)
class DataLoss:
    """Attach a loss model to matching links for a window."""

    at: float
    links: Optional[Tuple[str, ...]] = None
    duration: Optional[float] = None
    model: str = "bernoulli"
    params: Tuple[Tuple[str, float], ...] = (("p", 0.01),)

    def __post_init__(self) -> None:
        make_loss_model(self.model, self.params_dict())

    def params_dict(self) -> Dict[str, float]:
        return dict(self.params)


FaultEvent = Union[LinkDown, ArbitratorCrash, ControlDegrade, DataLoss]


def _normalize(event: FaultEvent) -> FaultEvent:
    """Coerce list-valued fields to tuples so schedules stay hashable."""
    updates: Dict[str, Any] = {}
    links = getattr(event, "links", None)
    if isinstance(links, list):
        updates["links"] = tuple(links)
    params = getattr(event, "params", None)
    if params is not None and not isinstance(params, tuple):
        updates["params"] = tuple(sorted(dict(params).items()))
    if updates:
        event = replace(event, **updates)
    check_non_negative("at", event.at)
    if event.duration is not None:
        check_non_negative("duration", event.duration)
    return event


@dataclass(frozen=True)
class FaultSchedule:
    """A seed plus an ordered tuple of fault events."""

    events: Tuple[FaultEvent, ...] = ()
    #: Seeds every RNG the schedule spawns (control-message loss, data-plane
    #: loss models); the same schedule + seed replays identically.
    seed: int = 0

    def __post_init__(self) -> None:
        normalized = tuple(_normalize(e) for e in self.events)
        object.__setattr__(self, "events", normalized)

    def __bool__(self) -> bool:
        return bool(self.events)

    def touches_control_plane(self) -> bool:
        return any(isinstance(e, (ArbitratorCrash, ControlDegrade))
                   for e in self.events)
