"""Algorithm 1: per-link arbitration.

Each network link has one :class:`LinkArbitrator`.  It maintains the set of
flows currently crossing the link sorted by the scheduling criterion
(remaining size for shortest-flow-first, absolute deadline for EDF) and, for
a given flow, computes:

* ``PrioQue`` — the priority class, from the aggregate demand of flows with
  higher priority (ADH): a flow sits in queue ``floor(ADH / C)`` (0-based;
  queue 0 is the top), clamped to the lowest data queue.  Each intermediate
  queue therefore holds one link's worth (C) of aggregate demand, and the
  bottom queue holds everything else — exactly the paper's Algorithm 1.
* ``Rref`` — the reference rate: spare top-queue capacity ``C - ADH``
  (capped by the flow's demand) when the flow makes the top queue, otherwise
  the base rate (one packet per RTT) so low-priority flows can still probe.

Fast-path design
----------------
The table is kept **sorted** by ``(criterion_value, flow_id)`` in two
parallel lists (keys, demands) plus a prefix sum of the demands, maintained
by ``bisect`` on insert/update/remove.  ADH for the flow at sorted position
``i`` is then just ``prefix[i]``, so one decide is an O(log F) lookup instead
of an O(F) scan, and a full ``arbitrate()`` (update + decide) costs one
memmove plus at most a C-speed ``itertools.accumulate`` over the invalidated
prefix suffix.

Prefix invalidation is *positional*: a mutation at sorted position ``p``
only discards ``prefix[p+1:]`` (the watermark ``_valid``), so interleaved
update/decide traffic — the control plane's actual access pattern — re-sums
only the slice between the lowest dirty position and the queried index.
The summation order is always left-to-right over the sorted order, so
repeated partial extensions are bit-identical to one full rebuild.  A
decide whose index is within the watermark reads the prefix directly;
only a short watermark costs the extending call.
:meth:`aggregate_demand` reads the same prefix sums.  Besides the prefix,
only the capacity is cached, in the ``_cap`` slot: the link's capacity,
or for a virtual link the parent's capacity times its share, refreshed by
:meth:`VirtualLinkArbitrator.set_share`.  Every decision is computed from
the table when it is asked for.

:class:`VirtualLinkArbitrator` is the same machine over a mutable capacity —
the delegated slice of a parent (aggregation–core) link (§3.1.2).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Dict, List, Optional, Tuple

from repro.utils.validation import check_non_negative, check_positive


@dataclass(slots=True)
class ArbitratedFlow:
    """A flow's entry in one link arbitrator's table."""

    flow_id: int
    #: Scheduling key: remaining bytes (SJF) or absolute deadline (EDF).
    criterion_value: float
    #: Maximum rate (bits/s) the source can currently use.
    demand: float
    last_update: float


@dataclass(slots=True)
class ArbitrationResult:
    """The (PrioQue, Rref) pair returned to a source."""

    queue: int
    reference_rate: float

    def merge(self, other: "ArbitrationResult") -> "ArbitrationResult":
        """Combine decisions from two links on a path: a flow obeys the most
        restrictive — the lowest of the priority queues and the smallest of
        the reference rates (§3.1.2: "a flow always uses the lowest of the
        priority queues assigned by all the arbitrators")."""
        return ArbitrationResult(
            queue=max(self.queue, other.queue),
            reference_rate=min(self.reference_rate, other.reference_rate),
        )


class LinkArbitrator:
    """Algorithm 1 over one link.

    ``num_queues`` is the number of *data* queues (the background class is
    outside arbitration).  ``base_rate`` is the Rref handed to flows that do
    not make the top queue.
    """

    __slots__ = (
        "name",
        "capacity_bps",
        "num_queues",
        "base_rate_bps",
        "flows",
        "_keys",
        "_demands",
        "_prefix",
        "_valid",
        "_cap",
    )

    def __init__(
        self,
        name: str,
        capacity_bps: float,
        num_queues: int,
        base_rate_bps: float,
    ) -> None:
        self.name = name
        self.capacity_bps = check_positive("capacity_bps", capacity_bps)
        self.num_queues = int(check_positive("num_queues", num_queues))
        self.base_rate_bps = check_positive("base_rate_bps", base_rate_bps)
        self.flows: Dict[int, ArbitratedFlow] = {}
        # -- sorted-table fast path ------------------------------------
        #: Sort keys ``(criterion_value, flow_id)``, ascending.
        self._keys: List[Tuple[float, int]] = []
        #: Demands in the same sorted order (C-speed accumulate fodder).
        self._demands: List[float] = []
        #: ``_prefix[i]`` = demand of the first ``i`` sorted flows (ADH of
        #: position ``i``); only ``_prefix[: _valid + 1]`` is trustworthy.
        self._prefix: List[float] = [0.0]
        self._valid = 0
        #: Capacity Algorithm 1 divides (:attr:`capacity`), kept in a slot
        #: so a decision reads it without a property call.
        self._cap: float = self.capacity_bps

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> float:
        """Capacity used for queue/rate computation: the link's, or a
        virtual link's current share of its parent's."""
        return self._cap

    # ------------------------------------------------------------------
    # Sorted-table maintenance
    # ------------------------------------------------------------------
    def _insert_entry(self, key: Tuple[float, int], demand: float) -> None:
        i = bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self._demands.insert(i, demand)
        if i < self._valid:
            del self._prefix[i + 1:]
            self._valid = i

    def _remove_entry(self, key: Tuple[float, int]) -> None:
        i = bisect_left(self._keys, key)
        del self._keys[i]
        del self._demands[i]
        # i < len(old keys), so a watermark at or below i is still in range.
        if i < self._valid:
            del self._prefix[i + 1:]
            self._valid = i

    def _adh_before(self, index: int) -> float:
        """Aggregate demand of the first ``index`` sorted flows, extending
        the cached prefix (left-to-right, so partial extensions are
        bit-identical to a full rebuild) when the watermark is short."""
        if index > self._valid:
            prefix = self._prefix
            it = accumulate(islice(self._demands, self._valid, index),
                            initial=prefix[-1])
            next(it)  # the initial element is already the last cached value
            prefix.extend(it)
            self._valid = index
        return self._prefix[index]

    # ------------------------------------------------------------------
    def arbitrate(
        self,
        flow_id: int,
        criterion_value: float,
        demand: float,
        now: float,
    ) -> ArbitrationResult:
        """Register/update a flow and compute its (PrioQue, Rref)."""
        if criterion_value < 0 or demand < 0:
            check_non_negative("criterion_value", criterion_value)
            check_non_negative("demand", demand)
        entry = self.flows.get(flow_id)
        if entry is None:
            self.flows[flow_id] = ArbitratedFlow(
                flow_id, criterion_value, demand, now)
            self._insert_entry((criterion_value, flow_id), demand)
        else:
            if (entry.criterion_value != criterion_value
                    or entry.demand != demand):
                self._remove_entry((entry.criterion_value, flow_id))
                entry.criterion_value = criterion_value
                entry.demand = demand
                self._insert_entry((criterion_value, flow_id), demand)
            entry.last_update = now
        return self._decide(flow_id)

    def _decide(self, flow_id: int) -> ArbitrationResult:
        """Step 2 of Algorithm 1: ADH -> (PrioQue, Rref), an O(log F)
        bisect into the sorted table plus a prefix read."""
        me = self.flows[flow_id]
        idx = bisect_left(self._keys, (me.criterion_value, flow_id))
        if idx <= self._valid:
            adh = self._prefix[idx]
        else:
            adh = self._adh_before(idx)
        capacity = self._cap
        if adh < capacity:
            rate = min(me.demand, capacity - adh)
            queue = 0
        else:
            rate = self.base_rate_bps
            queue = min(int(adh // capacity), self.num_queues - 1)
        return ArbitrationResult(queue=queue, reference_rate=rate)

    # ------------------------------------------------------------------
    def remove(self, flow_id: int) -> None:
        """Explicit removal when the source reports completion."""
        entry = self.flows.pop(flow_id, None)
        if entry is not None:
            self._remove_entry((entry.criterion_value, flow_id))

    def clear(self) -> None:
        """Drop every entry (an arbitrator crash wipes its soft state)."""
        self.flows.clear()
        self._keys.clear()
        self._demands.clear()
        self._prefix = [0.0]
        self._valid = 0

    def expire(self, now: float, timeout: float) -> List[int]:
        """Drop entries not refreshed within ``timeout``; returns the
        removed flow ids so the control plane can count them.

        The safety net for sources that died without a completion message.
        """
        stale = [fid for fid, entry in self.flows.items()
                 if now - entry.last_update > timeout]
        for fid in stale:
            entry = self.flows.pop(fid)
            self._remove_entry((entry.criterion_value, fid))
        return stale

    @property
    def active_flows(self) -> int:
        return len(self.flows)

    def aggregate_demand(self, top_queues: Optional[int] = None) -> float:
        """Total demand registered at this link; with ``top_queues`` given,
        only flows currently mapping within those classes count.  Used by
        delegation's child demand reports.  Both forms read the cached
        prefix sums; ties on the criterion resolve by flow id (the table's
        total order), so the answer is deterministic."""
        n = len(self._keys)
        total = self._adh_before(n)
        if top_queues is None:
            return total
        limit = top_queues * self.capacity
        # First sorted position whose ADH reaches the class boundary: all
        # demand before it maps within the top classes (plus the crossing
        # flow itself, matching the historical cumulative scan).
        i = bisect_left(self._prefix, limit)
        if i > n:
            i = n
        return self._prefix[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinkArbitrator({self.name}, {self.active_flows} flows)"


class VirtualLinkArbitrator(LinkArbitrator):
    """A delegated slice of a parent link (§3.1.2 "Delegation").

    The owning child arbitrator runs ordinary Algorithm 1 over the slice;
    :meth:`set_share` is called by the delegation manager on each rebalance;
    it also refreshes the cached :attr:`capacity`, ``capacity_bps`` times
    the share.  ``capacity_bps`` is the physical parent link's capacity.
    """

    __slots__ = ("_share",)

    def __init__(
        self,
        name: str,
        capacity_bps: float,
        num_queues: int,
        base_rate_bps: float,
        initial_share: float,
    ) -> None:
        super().__init__(name, capacity_bps, num_queues, base_rate_bps)
        self._share = initial_share
        self._cap = self.capacity_bps * initial_share

    @property
    def share(self) -> float:
        return self._share

    def set_share(self, share: float) -> None:
        if not 0 < share <= 1:
            raise ValueError(f"share must be in (0, 1], got {share!r}")
        self._share = share
        self._cap = self.capacity_bps * share
