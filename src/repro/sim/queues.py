"""Switch-port queue disciplines.

Four disciplines cover every protocol in the paper:

* :class:`DropTailQueue` — plain FIFO with a byte/packet cap (baseline TCP).
* :class:`REDQueue` — FIFO with DCTCP-style ECN marking: mark on
  *instantaneous* queue length exceeding threshold K (the paper, following
  DCTCP, sets RED's low == high == K and disables averaging).
* :class:`PriorityQueueBank` — N strict-priority classes, each an ECN-marking
  FIFO.  This models the commodity PRIO/CBQ configuration PASE relies on
  (Table 2: 3–10 queues per port on existing ToR switches).
* :class:`PFabricQueue` — pFabric's shallow buffer with priority dropping and
  priority scheduling keyed on the packet's ``priority`` field (remaining
  flow size).

All disciplines share one small interface (:class:`QueueDiscipline`) so a
switch port is agnostic to which is installed.  Each keeps its packet
count in the ``_len`` slot, updated by every enqueue, dequeue and
eviction: ``len(queue)`` returns it, and the owning link reads the slot
directly on its per-frame path instead of calling ``__len__``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.sim.packet import Packet
from repro.utils.validation import check_positive

#: Signature of the per-drop callback a :class:`~repro.sim.link.Link`
#: installs on its queue: ``hook(pkt, reason)`` with ``reason=None`` for a
#: plain tail/priority rejection.
DropHook = Callable[[Packet, Optional[str]], None]


class QueueDiscipline:
    """Interface for egress queueing disciplines.

    Subclasses implement :meth:`enqueue` (returning ``False`` when the packet
    is dropped) and :meth:`dequeue`, and keep ``_len`` equal to the number
    of packets queued.  Drop and mark counters are maintained here so
    metrics collection is uniform.

    ``drop_hook`` is the cold-path instrumentation seam: the owning link
    installs a callback that emits the :data:`~repro.sim.trace.CAT_DROP`
    trace record.  The hot accept path never checks the tracer — only an
    actual drop pays the ``hook is not None`` test, and eviction-style
    disciplines (pFabric) can tag the *victim* packet too, which the old
    link-level instrumentation could not see.
    """

    __slots__ = ("drops", "drop_bytes", "marks", "enqueued_total",
                 "drop_hook", "_len")

    def __init__(self) -> None:
        #: Packets queued now; every discipline keeps it current.
        self._len: int = 0
        self.drops: int = 0
        self.drop_bytes: int = 0
        self.marks: int = 0
        self.enqueued_total: int = 0
        self.drop_hook: Optional[DropHook] = None

    def enqueue(self, pkt: Packet) -> bool:
        raise NotImplementedError

    def dequeue(self) -> Optional[Packet]:
        raise NotImplementedError

    def __len__(self) -> int:
        return self._len

    @property
    def byte_depth(self) -> int:
        raise NotImplementedError

    def _record_drop(self, pkt: Packet, reason: Optional[str] = None) -> bool:
        self.drops += 1
        self.drop_bytes += pkt.size
        hook = self.drop_hook
        if hook is not None:
            hook(pkt, reason)
        return False


class DropTailQueue(QueueDiscipline):
    """FIFO with a capacity in packets; arrivals beyond capacity are dropped."""

    __slots__ = ("capacity_pkts", "_q", "_bytes")

    def __init__(self, capacity_pkts: int = 100) -> None:
        super().__init__()
        self.capacity_pkts = int(check_positive("capacity_pkts", capacity_pkts))
        self._q: Deque[Packet] = deque()
        self._bytes = 0

    def enqueue(self, pkt: Packet) -> bool:
        if self._len >= self.capacity_pkts:
            return self._record_drop(pkt)
        self._q.append(pkt)
        self._len += 1
        self._bytes += pkt.size
        self.enqueued_total += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._q:
            return None
        pkt = self._q.popleft()
        self._len -= 1
        self._bytes -= pkt.size
        return pkt

    @property
    def byte_depth(self) -> int:
        return self._bytes


class REDQueue(DropTailQueue):
    """DCTCP-style marking queue.

    Marks the CE bit on enqueue when the instantaneous queue length is at or
    above ``mark_threshold_pkts`` (K).  Per the DCTCP paper (and §3.3 of the
    PASE paper) marking uses the instantaneous rather than averaged queue
    length, with RED's min and max thresholds both set to K.
    """

    __slots__ = ("mark_threshold_pkts",)

    def __init__(self, capacity_pkts: int = 225, mark_threshold_pkts: int = 65) -> None:
        super().__init__(capacity_pkts=capacity_pkts)
        self.mark_threshold_pkts = int(check_positive("mark_threshold_pkts", mark_threshold_pkts))

    def enqueue(self, pkt: Packet) -> bool:
        if self._len >= self.capacity_pkts:
            return self._record_drop(pkt)
        if pkt.ecn_capable and self._len >= self.mark_threshold_pkts:
            pkt.ecn_marked = True
            self.marks += 1
        self._q.append(pkt)
        self._len += 1
        self._bytes += pkt.size
        self.enqueued_total += 1
        return True


class PriorityQueueBank(QueueDiscipline):
    """A bank of N strict-priority ECN-marking FIFOs (commodity PRIO+RED).

    ``pkt.queue_index`` selects the class (0 = highest priority; indices
    beyond the bank are clamped to the lowest class, mirroring how a ToS
    field with more codepoints than queues maps onto hardware).  Dequeue
    serves the highest-priority non-empty class.  Each class has its own
    capacity and marking threshold, as in the Linux PRIO-over-RED stack the
    paper's testbed used.
    """

    __slots__ = ("num_queues", "capacity_pkts", "mark_threshold_pkts",
                 "per_queue_capacity", "_queues", "_bytes")

    def __init__(
        self,
        num_queues: int = 8,
        capacity_pkts: int = 500,
        mark_threshold_pkts: int = 65,
        per_queue_capacity: bool = False,
    ) -> None:
        super().__init__()
        self.num_queues = int(check_positive("num_queues", num_queues))
        self.capacity_pkts = int(check_positive("capacity_pkts", capacity_pkts))
        self.mark_threshold_pkts = int(check_positive("mark_threshold_pkts", mark_threshold_pkts))
        #: When True the capacity applies per class; when False (default) the
        #: capacity is a shared cap on total occupancy, matching a shared
        #: packet buffer carved into queues.
        self.per_queue_capacity = per_queue_capacity
        self._queues: List[Deque[Packet]] = [deque() for _ in range(self.num_queues)]
        self._bytes = 0

    def enqueue(self, pkt: Packet) -> bool:
        # Out-of-range classes clamp to the nearest queue.
        idx = pkt.queue_index
        if idx < 0:
            idx = 0
        elif idx >= self.num_queues:
            idx = self.num_queues - 1
        q = self._queues[idx]
        occupancy = len(q) if self.per_queue_capacity else self._len
        if occupancy >= self.capacity_pkts:
            return self._record_drop(pkt)
        if pkt.ecn_capable and len(q) >= self.mark_threshold_pkts:
            pkt.ecn_marked = True
            self.marks += 1
        q.append(pkt)
        self._len += 1
        self._bytes += pkt.size
        self.enqueued_total += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        if self._len == 0:
            return None
        for q in self._queues:
            if q:
                pkt = q.popleft()
                self._len -= 1
                self._bytes -= pkt.size
                return pkt
        return None  # pragma: no cover - unreachable if _len is consistent

    def class_depth(self, index: int) -> int:
        """Occupancy (packets) of one priority class."""
        return len(self._queues[index])

    @property
    def byte_depth(self) -> int:
        return self._bytes


class PFabricQueue(QueueDiscipline):
    """pFabric's priority-drop / priority-schedule shallow buffer.

    * **Scheduling:** dequeue the packet with the numerically smallest
      ``priority`` (remaining flow size); FIFO among equals.  Following the
      pFabric paper's starvation-avoidance rule, among packets of the
      winning flow the *earliest* is sent to limit reordering.
    * **Dropping:** when full, drop the packet with the numerically largest
      priority — possibly the arriving packet itself.

    The buffer is intentionally shallow (2×BDP in the paper's setup).
    """

    __slots__ = ("capacity_pkts", "_q", "_bytes")

    def __init__(self, capacity_pkts: int = 76) -> None:
        super().__init__()
        self.capacity_pkts = int(check_positive("capacity_pkts", capacity_pkts))
        self._q: List[Packet] = []
        self._bytes = 0

    def enqueue(self, pkt: Packet) -> bool:
        if self._len >= self.capacity_pkts:
            victim_idx = self._worst_index()
            victim = self._q[victim_idx] if victim_idx >= 0 else None
            if victim is None or pkt.priority >= victim.priority:
                # The arrival is the lowest-priority packet: drop it.
                return self._record_drop(pkt)
            del self._q[victim_idx]
            self._len -= 1
            self._bytes -= victim.size
            self._record_drop(victim, reason="evicted")
        self._q.append(pkt)
        self._len += 1
        self._bytes += pkt.size
        self.enqueued_total += 1
        return True

    def _worst_index(self) -> int:
        """Index of the stored packet with the largest priority value
        (latest arrival among ties, so older packets of a flow survive)."""
        worst = -1
        worst_prio = float("-inf")
        for i, p in enumerate(self._q):
            if p.priority >= worst_prio:
                worst_prio = p.priority
                worst = i
        return worst

    def dequeue(self) -> Optional[Packet]:
        if not self._q:
            return None
        # Find the highest-priority (smallest value) packet, then send the
        # earliest queued packet of that packet's flow.
        best = min(self._q, key=lambda p: p.priority)
        flow = best.flow_id
        for i, p in enumerate(self._q):
            if p.flow_id == flow:
                del self._q[i]
                self._len -= 1
                self._bytes -= p.size
                return p
        return None  # pragma: no cover - unreachable

    @property
    def byte_depth(self) -> int:
        return self._bytes
