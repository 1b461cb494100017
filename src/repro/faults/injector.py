"""The fault injector: executes a declarative schedule on the event engine.

One :class:`FaultInjector` per run.  At construction it resolves every
event's link selectors against the network and arms the corresponding
simulator events (clean runs, with no schedule attached, build no
injector).  PASE senders need no arming: any arbitration request can fail,
and their timeout/retry/fallback machinery simply never fires while the
control plane answers in time.

Everything the injector does is observable: per-kind injection counts in
:attr:`injected`, trace events in the ``"fault"`` category, and the
post-run roll-up in :class:`repro.metrics.faults.FaultCounters`.
"""

from __future__ import annotations

import random
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.faults.models import LossModel, make_loss_model
from repro.faults.schedule import (
    ArbitratorCrash,
    ControlDegrade,
    DataLoss,
    FaultSchedule,
    LinkDown,
)
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.network import Network
from repro.sim.trace import CAT_FAULT

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.control_plane import PaseControlPlane

#: Multiplier deriving per-model RNG sub-streams from the schedule seed
#: (plain integer arithmetic: ``hash()`` is salted per-process and would
#: break cross-process replay).
_SEED_STRIDE = 1_000_003


class FaultInjector:
    """Arms a :class:`FaultSchedule` against one simulation."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        schedule: FaultSchedule,
        control_plane: Optional["PaseControlPlane"] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.schedule = schedule
        self.control_plane = control_plane
        #: Fault activations by event kind (a down+up flap counts once).
        self.injected: Dict[str, int] = {}
        #: Open ``LinkDown`` windows per link name: the link goes down as
        #: the first opens and comes back up as the last closes.
        self._open_downs: Dict[str, int] = {}
        #: Open ``ArbitratorCrash`` windows per target, an arbitrator name
        #: or ``None`` for the whole control plane: a target recovers only
        #: as its last window closes.
        self._open_crashes: Dict[Optional[str], int] = {}
        self._links_by_name = {link.name: link
                               for link in network.links.values()}
        self._next_model_seed = schedule.seed * _SEED_STRIDE + 1

        if (control_plane is None and schedule.touches_control_plane()):
            raise ValueError(
                "schedule contains control-plane faults but no control "
                "plane was supplied (protocol without arbitration?)")

        for event in schedule.events:
            self._arm(event)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _arm(self, event) -> None:
        if isinstance(event, LinkDown):
            links = self._resolve_links(event.links)
            self.sim.post_at(event.at, self._link_down, links, event.flush)
            if event.duration is not None:
                self.sim.post_at(event.at + event.duration,
                                 self._link_up, links)
        elif isinstance(event, ArbitratorCrash):
            self.sim.post_at(event.at, self._arb_crash, event.links)
            if event.duration is not None:
                self.sim.post_at(event.at + event.duration,
                                 self._arb_recover, event.links)
        elif isinstance(event, ControlDegrade):
            self.sim.post_at(event.at, self._control_degrade,
                             event.loss_rate, event.extra_delay)
            if event.duration is not None:
                self.sim.post_at(event.at + event.duration,
                                 self._control_degrade, 0.0, 0.0)
        elif isinstance(event, DataLoss):
            links = self._resolve_links(event.links)
            # This window's (link, model) pairs: the window removes its own
            # models, whichever others overlap it.
            installed: List[Tuple[Link, LossModel]] = []
            self.sim.post_at(event.at, self._loss_on, links,
                             event.model, event.params_dict(), installed)
            if event.duration is not None:
                self.sim.post_at(event.at + event.duration,
                                 self._loss_off, installed)
        else:  # pragma: no cover - schedule validation catches this
            raise TypeError(f"unknown fault event {event!r}")

    def _resolve_links(self, selectors) -> List[Link]:
        """Match selectors (exact names or fnmatch patterns; None = all)
        against the network, in deterministic name order."""
        names = sorted(self._links_by_name)
        if selectors is None:
            matched = names
        else:
            matched = [n for n in names
                       if any(fnmatchcase(n, sel) for sel in selectors)]
            if not matched:
                raise ValueError(
                    f"fault link selectors {selectors!r} match no link; "
                    f"known links: {names}")
        return [self._links_by_name[n] for n in matched]

    # ------------------------------------------------------------------
    # Executors
    # ------------------------------------------------------------------
    def _record(self, kind: str, subject, **details) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if self.sim.tracer is not None:
            self.sim.tracer.record(self.sim.now, CAT_FAULT, subject,
                                   kind=kind, **details)

    def _link_down(self, links: List[Link], flush: bool) -> None:
        # A link already down stays as it is: set_down() is idempotent.
        for link in links:
            self._open_downs[link.name] = self._open_downs.get(link.name, 0) + 1
            link.set_down(flush=flush)
            self._record("link-down", link.name, flush=flush)

    def _link_up(self, links: List[Link]) -> None:
        for link in links:
            self._open_downs[link.name] -= 1
            if not self._open_downs[link.name]:
                link.set_up()
            self._record("link-up", link.name)

    def _arb_crash(self, names) -> None:
        opened = self._open_crashes
        for target in (None,) if names is None else names:
            opened[target] = opened.get(target, 0) + 1
        self.control_plane.crash(names)
        self._record("arbitrator-crash",
                     "control-plane" if names is None else ",".join(names))

    def _arb_recover(self, names) -> None:
        opened = self._open_crashes
        closed = []
        for target in (None,) if names is None else names:
            opened[target] -= 1
            if not opened[target]:
                closed.append(target)
        if names is not None:
            self.control_plane.recover(closed)
        elif closed:
            self.control_plane.recover(None)
        self._record("arbitrator-recover",
                     "control-plane" if names is None else ",".join(names))

    def _control_degrade(self, loss_rate: float, extra_delay: float) -> None:
        cp = self.control_plane
        cp.control_loss_rate = loss_rate
        cp.control_extra_delay = extra_delay
        if loss_rate > 0.0 and cp.control_rng is None:
            cp.control_rng = random.Random(
                self.schedule.seed * _SEED_STRIDE)
        self._record("control-degrade", "control-plane",
                     loss_rate=loss_rate, extra_delay=extra_delay)

    def _loss_on(self, links: List[Link], model: str, params: Dict,
                 installed: List[Tuple[Link, LossModel]]) -> None:
        for link in links:
            loss = make_loss_model(model, params, seed=self._next_model_seed)
            self._next_model_seed += 1
            link.loss.append(loss)
            installed.append((link, loss))
            self._record("data-loss-on", link.name, model=model)

    def _loss_off(self, installed: List[Tuple[Link, LossModel]]) -> None:
        for link, loss in installed:
            link.loss.remove(loss)
            self._record("data-loss-off", link.name)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def injected_loss_drops(self) -> int:
        """Data packets dropped by loss windows across the whole network."""
        return sum(link.loss_drops for link in self.network.links.values())

    @property
    def link_down_drops(self) -> int:
        """Packets lost to link outages (flushed, corrupted, or offered
        while down) across the whole network."""
        return sum(link.down_drops for link in self.network.links.values())
