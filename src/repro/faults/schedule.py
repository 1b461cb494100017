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
  dropped — senders ride the outage out via RTO.  Windows may overlap: a
  link is down while any window on it is open, and a window opening on a
  link already down changes nothing (no second flush).
* :class:`ArbitratorCrash` — crash arbitrators at ``at`` (``links=None``
  means the whole control plane), recovering after ``duration`` if given.
  A crash wipes the arbitrator's soft state; recovery starts empty and the
  table is rebuilt by the endpoints' periodic arbitration requests.
  Windows may overlap: an arbitrator (or the whole plane) is down while
  any window on it is open and recovers as the last closes; a window
  opening on one already down only counts another crash (its table is
  already empty).  A whole-plane window that ends leaves the arbitrators
  of still-open named windows down.
* :class:`ControlDegrade` — a lossy/slow control channel for a window:
  each explicit arbitration message is lost with ``loss_rate`` and delayed
  by ``extra_delay``.  Each window sets the channel and clears it as it
  ends, so windows may neither overlap nor touch (construction raises).
* :class:`DataLoss` — attach a named loss model (``bernoulli`` or
  ``gilbert-elliott``) to links for a window: every DATA packet offered to
  an up link draws from it (ACKs and probes pass, so control loops limp
  along).  A bad model name or parameter fails when the event is built.
  Windows may overlap: each draws with its own seeded model, the newest
  first, and the first drop wins.

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
        degrades = sorted((e for e in normalized
                           if isinstance(e, ControlDegrade)),
                          key=lambda e: e.at)
        for earlier, later in zip(degrades, degrades[1:]):
            if earlier.duration is None or \
                    later.at <= earlier.at + earlier.duration:
                raise ValueError(
                    f"ControlDegrade windows {earlier!r} and {later!r} "
                    "overlap or touch: the first to end would clear the "
                    "channel under the other")

    def __bool__(self) -> bool:
        return bool(self.events)

    def touches_control_plane(self) -> bool:
        return any(isinstance(e, (ArbitratorCrash, ControlDegrade))
                   for e in self.events)
