"""Traffic patterns: who talks to whom, and what "offered load" divides by.

Each pattern yields ``(src, dst)`` host-id pairs and exposes
``capacity_basis_bps`` — the aggregate capacity against which the offered
load is normalized, so ``arrival_rate = load * basis / mean_flow_bits``:

* :class:`IntraRackRandom` — uniform random distinct pairs within one rack;
  the basis is the sum of access-link capacities, making ``load`` the
  average utilization of each access link (the convention in DCTCP/D2TCP
  style intra-rack experiments).
* :class:`IncastAllToAll` — the worker/aggregator fan-in of §2.1/§4.2.2:
  aggregators are picked round-robin, ``fanin`` workers uniformly among the
  rest answer each one at once.
* :class:`LeftRight` — all sources in the left subtree of the core, all
  destinations in the right (§4.2.1); the basis is the capacity of the
  aggregation-core uplink those flows squeeze through.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.utils.validation import check_positive


class TrafficPattern:
    """Interface for source/destination selection.

    A pattern may be *bursty*: one workload arrival event can spawn several
    synchronized flows (partition-aggregate incast).  ``burst`` returns the
    pairs for one event; the default is a single pair.  ``flows_per_arrival``
    feeds the load computation so "offered load" stays the average link
    utilization regardless of burstiness.
    """

    def pair(self, rng: random.Random) -> Tuple[int, int]:
        raise NotImplementedError

    def burst(self, rng: random.Random) -> List[Tuple[int, int]]:
        return [self.pair(rng)]

    @property
    def flows_per_arrival(self) -> int:
        return 1

    @property
    def capacity_basis_bps(self) -> float:
        raise NotImplementedError


class IntraRackRandom(TrafficPattern):
    """Uniform random (src, dst) with src != dst within one host set."""

    def __init__(self, host_ids: Sequence[int], link_bps: float) -> None:
        if len(host_ids) < 2:
            raise ValueError("need at least two hosts")
        check_positive("link_bps", link_bps)
        self.host_ids = list(host_ids)
        self.link_bps = link_bps

    def pair(self, rng: random.Random) -> Tuple[int, int]:
        src, dst = rng.sample(self.host_ids, 2)
        return src, dst

    @property
    def capacity_basis_bps(self) -> float:
        return self.link_bps * len(self.host_ids)


class IncastAllToAll(TrafficPattern):
    """Partition-aggregate incast: each query picks the next aggregator
    round-robin and ``fanin`` random workers answer it *simultaneously* —
    the search-application interaction of §2.1 (Fig. 4) and §4.2.2
    (Fig. 10c).  The synchronized responses are what overflow shallow
    buffers in protocols that start every flow at line rate."""

    def __init__(
        self,
        host_ids: Sequence[int],
        link_bps: float,
        fanin: int = 0,
    ) -> None:
        if len(host_ids) < 2:
            raise ValueError("need at least two hosts")
        check_positive("link_bps", link_bps)
        self.host_ids = list(host_ids)
        self.link_bps = link_bps
        max_fanin = len(host_ids) - 1
        self.fanin = max_fanin if fanin <= 0 else min(fanin, max_fanin)
        self._next_aggregator = 0

    def _next_workers(self) -> Tuple[List[int], int]:
        """The next round-robin aggregator and the hosts that can answer it."""
        aggregator = self.host_ids[self._next_aggregator]
        self._next_aggregator = (self._next_aggregator + 1) % len(self.host_ids)
        return [h for h in self.host_ids if h != aggregator], aggregator

    def pair(self, rng: random.Random) -> Tuple[int, int]:
        """One worker for the next aggregator (background flows)."""
        workers, aggregator = self._next_workers()
        return rng.choice(workers), aggregator

    def burst(self, rng: random.Random) -> List[Tuple[int, int]]:
        workers, aggregator = self._next_workers()
        return [(worker, aggregator)
                for worker in rng.sample(workers, self.fanin)]

    @property
    def flows_per_arrival(self) -> int:
        return self.fanin

    @property
    def capacity_basis_bps(self) -> float:
        return self.link_bps * len(self.host_ids)


class ManyToOne(TrafficPattern):
    """All senders target one receiver (the simulated-testbed shape: nine
    clients, one server, §4.4)."""

    def __init__(self, sender_ids: Sequence[int], receiver_id: int, link_bps: float) -> None:
        if not sender_ids:
            raise ValueError("need at least one sender")
        if receiver_id in sender_ids:
            raise ValueError("receiver cannot also be a sender")
        check_positive("link_bps", link_bps)
        self.sender_ids = list(sender_ids)
        self.receiver_id = receiver_id
        self.link_bps = link_bps

    def pair(self, rng: random.Random) -> Tuple[int, int]:
        return rng.choice(self.sender_ids), self.receiver_id

    @property
    def capacity_basis_bps(self) -> float:
        # Everything funnels into the receiver's single access link.
        return self.link_bps


class LeftRight(TrafficPattern):
    """Left-subtree sources to right-subtree destinations."""

    def __init__(
        self,
        left_ids: Sequence[int],
        right_ids: Sequence[int],
        bottleneck_bps: float,
    ) -> None:
        if not left_ids or not right_ids:
            raise ValueError("need non-empty left and right host sets")
        check_positive("bottleneck_bps", bottleneck_bps)
        self.left_ids = list(left_ids)
        self.right_ids = list(right_ids)
        self.bottleneck_bps = bottleneck_bps

    def pair(self, rng: random.Random) -> Tuple[int, int]:
        return rng.choice(self.left_ids), rng.choice(self.right_ids)

    @property
    def capacity_basis_bps(self) -> float:
        return self.bottleneck_bps
