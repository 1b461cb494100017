"""Declarative fault schedules.

A :class:`FaultSchedule` is plain data — a seed plus a tuple of fault
events — so it can ride inside a :class:`~repro.harness.scenarios.Scenario`,
cross process boundaries, serialize into the runner's JSONL ledger, and be
rebuilt from JSON for cache-stable sweep points.  The
:class:`~repro.faults.injector.FaultInjector` is the executable half: it
walks the schedule and arms the corresponding simulator events.

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
  loss model (``bernoulli`` or ``gilbert-elliott``).

Link selectors are names from :class:`~repro.sim.link.Link` (e.g.
``"h0->sw0"``) and support ``fnmatch`` wildcards (``"h0->*"``); ``None``
means every link.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class LinkDown:
    """Take matching links down at ``at`` (back up after ``duration``)."""

    at: float
    links: Optional[Tuple[str, ...]] = None
    duration: Optional[float] = None
    flush: bool = True

    kind = "link-down"


@dataclass(frozen=True)
class ArbitratorCrash:
    """Crash arbitrators (``links=None`` = the whole control plane)."""

    at: float
    links: Optional[Tuple[str, ...]] = None
    duration: Optional[float] = None

    kind = "arbitrator-crash"


@dataclass(frozen=True)
class ControlDegrade:
    """Lossy / slow control channel for a window starting at ``at``."""

    at: float
    duration: Optional[float] = None
    loss_rate: float = 0.0
    extra_delay: float = 0.0

    kind = "control-degrade"


@dataclass(frozen=True)
class DataLoss:
    """Attach a loss model to matching links for a window."""

    at: float
    links: Optional[Tuple[str, ...]] = None
    duration: Optional[float] = None
    model: str = "bernoulli"
    params: Tuple[Tuple[str, float], ...] = (("p", 0.01),)

    kind = "data-loss"

    def params_dict(self) -> Dict[str, float]:
        return dict(self.params)


FaultEvent = Union[LinkDown, ArbitratorCrash, ControlDegrade, DataLoss]

_EVENT_KINDS = {cls.kind: cls for cls in
                (LinkDown, ArbitratorCrash, ControlDegrade, DataLoss)}


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

    # -- JSON round-trip ---------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        rows: List[Dict[str, Any]] = []
        for event in self.events:
            row = {"kind": event.kind, **asdict(event)}
            if "links" in row and row["links"] is not None:
                row["links"] = list(row["links"])
            if "params" in row:
                row["params"] = dict(row["params"])
            rows.append(row)
        return {"seed": self.seed, "events": rows}

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "FaultSchedule":
        events: List[FaultEvent] = []
        for row in data.get("events", ()):
            row = dict(row)
            kind = row.pop("kind")
            try:
                event_cls = _EVENT_KINDS[kind]
            except KeyError:
                raise ValueError(
                    f"unknown fault kind {kind!r}; known: {sorted(_EVENT_KINDS)}"
                ) from None
            if "links" in row and row["links"] is not None:
                row["links"] = tuple(row["links"])
            if "params" in row:
                row["params"] = tuple(sorted(dict(row["params"]).items()))
            events.append(event_cls(**row))
        return cls(events=tuple(events), seed=int(data.get("seed", 0)))
