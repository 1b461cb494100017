"""Unidirectional link with an egress queue and a store-and-forward model.

A :class:`Link` owns the egress queue discipline of the upstream node's port.
Packets are serialized at the link capacity (transmission delay) and then
delivered to the downstream node after the propagation delay.  A duplex cable
is simply two ``Link`` objects.

An optional per-link *allocator* sees every DATA and PROBE packet offered
to the link (ACKs skip it) — this is how the explicit-rate switches of PDQ
and D3 (:class:`~repro.transports.pdq.RateAllocator`) observe and stamp
rate headers without the core simulator knowing anything about them.
Data-plane loss is a seam too: :attr:`Link.loss` holds the loss models of
the fault windows open on the link (see :mod:`repro.faults`), which only
DATA packets offered to an up link consult.

Hot-path notes
--------------
A hop costs one engine event when nothing waits behind it.  When a frame
starts serializing, its delivery is posted at once for ``end + prop``
(``end`` is :attr:`Link.busy_until`, when the last bit leaves), and the
link claims the engine's next tie-break slot for the wake-up at ``end``
(``sim.seq += 1``, inline; see :mod:`repro.sim.engine`).  Only when a
packet waits behind the frame is the wake-up pushed into that slot, by a
``post_at`` with the engine's counter set back to the slot; a frame that
starts with a packet already waiting posts its wake-up at once, which
takes the same slot.  The wake-up fires exactly where a wake-up posted
after every frame would have fired, so runs are bit-identical to that
eager model, with far fewer events.

* The frame is on the wire until the engine passes its slot: while
  ``now < end``, or at ``now == end`` while
  :attr:`~repro.sim.engine.Simulator.fired_seq` is below the slot.  An
  arrival then is queued behind the frame; :attr:`Link.busy`,
  ``pkts_sent``/``bytes_sent`` (tallied when a frame starts, the frame on
  the wire subtracted on read) and :meth:`Link.set_down` all use this test.
* **Handoff.**  An arrival at exactly ``now == end`` starts its frame at
  once, with no wake-up, when all four hold:

  1. the link's source is a :class:`~repro.sim.node.Switch`, whose
     ``receive`` ends with this ``send``: nothing else runs in the event,
     so no sequence number is drawn between here and the wake-up;
  2. the frame's wake-up slot is neither posted nor passed (a posted
     wake-up would also fail 4, but this test is cheaper);
  3. the queue is a cut-through discipline (next bullet), and empty, as
     every queue is while its link's wake-up is unposted;
  4. :meth:`~repro.sim.engine.Simulator.is_next` confirms no heap entry,
     live or dead, orders before ``(end, slot)``.

  The eager model's very next event is then that wake-up, which would
  dequeue this same packet and draw the same two sequence numbers (the
  next slot, then the delivery), so FCTs stay bit-identical and only the
  event count drops.  Equal-rate store-and-forward paths hit this on every
  packet of a back-to-back train.  When an entry orders first (say,
  another delivery at the same instant that may bring a higher-priority
  packet), the arrival waits for a wake-up as before.
* An arrival on a free line skips ``enqueue``/``dequeue`` when the
  discipline is a built-in one with positive capacity and marking
  threshold: those always accept a packet into an empty queue, unmarked.
  ``enqueued_total`` still counts it.  Other disciplines take the full
  queue path.
* A link with no open loss window pays one attribute test per DATA
  packet for the loss seam, and no Python call.
* :meth:`Link._wakeup` reads the queue's ``_len`` slot (see
  :mod:`repro.sim.queues`) to see whether another packet waits, rather
  than calling ``len(queue)``, which is a Python ``__len__``.
* Link-down is the cold path.  A frame is corrupted if and only if the
  link is down when its serialization ends.  :meth:`Link.set_down` during a
  frame cancels the posted delivery through its handle and pushes the
  wake-up, which delivers or corrupts the frame at ``end``.

Drop tracing hangs off the queue's ``drop_hook`` so the accept path never
touches the tracer — the ``tracer is None`` check runs only when a packet
actually drops (and is evaluated once, inside the hook).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, List, Optional

from repro.sim.node import Switch
from repro.sim.packet import Packet
from repro.sim.queues import (DropTailQueue, PFabricQueue, PriorityQueueBank,
                              QueueDiscipline, REDQueue)
from repro.sim.trace import CAT_DROP
from repro.utils.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.models import LossModel
    from repro.sim.engine import Handle, Simulator
    from repro.sim.node import Node
    from repro.transports.pdq import RateAllocator

#: Disciplines whose ``enqueue`` accepts, unmarked, any packet offered to an
#: empty queue once capacity and marking threshold are positive.  Matched
#: by exact type: a subclass may override ``enqueue``.
_CUT_THROUGH_TYPES = (DropTailQueue, REDQueue, PriorityQueueBank, PFabricQueue)

#: ``Link._wake`` once the wake-up is in the engine's heap: above every
#: sequence number, so the frame reads as on the wire until it fires.
_POSTED = sys.maxsize


def _accepts_into_empty(queue: QueueDiscipline) -> bool:
    return (type(queue) in _CUT_THROUGH_TYPES
            and queue.capacity_pkts >= 1
            and getattr(queue, "mark_threshold_pkts", 1) >= 1)


class Link:
    """One direction of a cable between two nodes."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        src: "Node",
        dst: "Node",
        capacity_bps: float,
        prop_delay: float,
        queue: QueueDiscipline,
    ) -> None:
        self.sim = sim
        self.name = name
        self.src = src
        self.dst = dst
        self.capacity_bps = check_positive("capacity_bps", capacity_bps)
        self.prop_delay = check_non_negative("prop_delay", prop_delay)
        self.queue = queue
        queue.drop_hook = self._on_queue_drop
        self._cut_through = _accepts_into_empty(queue)
        #: Conditions 1 and 3 of the handoff (module docstring).  The
        #: source's exact type, as for the disciplines: a subclass may
        #: override ``receive`` and run more after ``send``.
        self._handoff = self._cut_through and type(src) is Switch
        #: False while the link is administratively/fault down.  Packets
        #: offered to a down link are lost (counted in ``down_drops``);
        #: the packet being serialized when the link dies is corrupted.
        self.up = True
        #: Explicit-rate allocator (PDQ, D3): its ``process(pkt, link)``
        #: runs for every DATA and PROBE packet offered to the link.
        self.allocator: Optional["RateAllocator"] = None
        #: Loss models of the open fault windows, oldest first.  A DATA
        #: packet offered to an up link draws from each, newest first, and
        #: is lost at the first drop (booked as a queue drop, reason
        #: ``"injected-loss"``, and counted in ``loss_drops``).
        self.loss: List["LossModel"] = []
        #: When the last started frame's final bit leaves the line (it is
        #: on the wire until then; see :attr:`busy` for the exact instant).
        self.busy_until: float = float("-inf")
        #: The last started frame, and the handle of its posted delivery.
        self._in_flight: Optional[Packet] = None
        self._delivery: Optional["Handle"] = None
        #: The wake-up at ``busy_until``: the engine sequence number
        #: claimed for it, ``_POSTED`` once it is in the heap, 0 once it
        #: has fired.
        self._wake: int = 0
        #: A frame whose delivery :meth:`set_down` cancelled; the wake-up
        #: delivers or corrupts it.
        self._held: Optional[Packet] = None
        # Bound-method caches: one attribute load per packet instead of two.
        self._post_at = sim.post_at
        self._deliver = dst.receive
        # Counters for utilization / loss accounting.  Frames are tallied
        # when they start; see pkts_sent/bytes_sent.
        self._pkts_started: int = 0
        self._bytes_started: int = 0
        self.data_pkts_offered: int = 0
        #: Data packets lost here, whatever the cause: queue drops, pFabric
        #: evictions, injected loss and link-down losses all pass through
        #: :meth:`_on_queue_drop`.
        self.data_drops: int = 0
        self.busy_time: float = 0.0
        self.down_drops: int = 0
        self.down_transitions: int = 0
        self.loss_drops: int = 0

    @property
    def busy(self) -> bool:
        """True while a frame is on the wire: until the engine passes the
        wake-up slot at the end of its serialization."""
        sim = self.sim
        end = self.busy_until
        return sim.now < end or (sim.now == end and sim.fired_seq < self._wake)

    @property
    def pkts_sent(self) -> int:
        """Frames whose serialization has ended (corrupted ones excluded)."""
        return self._pkts_started - self.busy

    @property
    def bytes_sent(self) -> int:
        """Bytes of the frames counted by :attr:`pkts_sent`."""
        if self.busy:
            return self._bytes_started - self._in_flight.size
        return self._bytes_started

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Offer a packet to this link's egress queue.

        Returns ``False`` if the packet was lost: to a down link, to an
        open loss window, or to the queue discipline.  Transmission starts
        immediately when the line is idle.
        """
        if self.allocator is not None and pkt.kind != 1:  # not an ACK
            self.allocator.process(pkt, self)
        if pkt.kind == 0:  # PacketKind.DATA — avoid enum lookup in hot path
            self.data_pkts_offered += 1
            if self.loss and self.up:
                for model in reversed(self.loss):
                    if model.drop():
                        self.loss_drops += 1
                        return self.queue._record_drop(pkt, "injected-loss")
        if not self.up:
            self._drop_down(pkt)
            return False
        sim = self.sim
        now = sim.now
        end = self.busy_until
        queue = self.queue
        wake = self._wake
        if now < end or (now == end and sim.fired_seq < wake):
            if (now == end and self._handoff and wake != _POSTED
                    and sim.is_next(end, wake)):
                # Handoff: the wake-up would fire next and start this
                # packet; start it now instead.
                queue.enqueued_total += 1
            else:
                # Busy: wait behind the frame, and make sure it wakes the
                # link.
                if not queue.enqueue(pkt):
                    return False
                if wake != _POSTED:
                    # Push the wake-up into its claimed slot.
                    seq = sim.seq
                    sim.seq = wake - 1
                    self._post_at(end, self._wakeup)
                    sim.seq = seq
                    self._wake = _POSTED
                return True
        elif self._cut_through:
            queue.enqueued_total += 1
        elif queue.enqueue(pkt):
            pkt = queue.dequeue()
        else:
            return False
        # Frame start, as in _wakeup: claim the slot of the wake-up at the
        # frame's end, then post the delivery.
        size = pkt.size
        tx_delay = size * 8 / self.capacity_bps
        self.busy_time += tx_delay
        self._pkts_started += 1
        self._bytes_started += size
        self.busy_until = end = now + tx_delay
        self._in_flight = pkt
        self._wake = sim.seq = sim.seq + 1
        self._delivery = self._post_at(end + self.prop_delay, self._deliver,
                                       pkt, self)
        return True

    def _wakeup(self) -> None:
        """End of a frame with a packet waiting behind it (or with the link
        gone down during it), or the link back up on an idle line: settle
        the frame :meth:`set_down` held back, then start the next one."""
        self._wake = 0
        sim = self.sim
        pkt = self._held
        if pkt is not None:
            self._held = None
            if not self.up:
                # The link is down as the last bit leaves: corrupted.
                self._pkts_started -= 1
                self._bytes_started -= pkt.size
                self._drop_down(pkt)
                return
            self._post_at(sim.now + self.prop_delay, self._deliver,
                          pkt, self)
        if not self.up:
            return
        queue = self.queue
        pkt = queue.dequeue()
        if pkt is None:
            return
        # Frame start; send() inlines the same steps for the idle-line hop
        # and the handoff.
        size = pkt.size
        tx_delay = size * 8 / self.capacity_bps
        self.busy_time += tx_delay
        self._pkts_started += 1
        self._bytes_started += size
        self.busy_until = end = sim.now + tx_delay
        self._in_flight = pkt
        if queue._len:
            # Another packet already waits behind this frame: post the
            # wake-up at once, in the slot a claim would take.
            self._post_at(end, self._wakeup)
            self._wake = _POSTED
        else:
            self._wake = sim.seq = sim.seq + 1
        self._delivery = self._post_at(end + self.prop_delay, self._deliver,
                                       pkt, self)

    # ------------------------------------------------------------------
    # Drop instrumentation (cold paths)
    # ------------------------------------------------------------------
    def _on_queue_drop(self, pkt: Packet, reason: Optional[str] = None) -> None:
        if pkt.kind == 0:  # PacketKind.DATA
            self.data_drops += 1
        tracer = self.sim.tracer
        if tracer is not None:
            if reason is None:
                tracer.record(self.sim.now, CAT_DROP, self.name,
                              flow=pkt.flow_id, seq=pkt.seq,
                              kind=int(pkt.kind))
            else:
                tracer.record(self.sim.now, CAT_DROP, self.name,
                              flow=pkt.flow_id, seq=pkt.seq,
                              kind=int(pkt.kind), reason=reason)

    def _drop_down(self, pkt: Packet) -> None:
        self.down_drops += 1
        self._on_queue_drop(pkt, reason="link-down")

    # ------------------------------------------------------------------
    # Fault transitions
    # ------------------------------------------------------------------
    def set_down(self, flush: bool = True) -> None:
        """Take the link down.  ``flush`` drops queued packets now; without
        it they wait out the outage and resume on :meth:`set_up` (a paused
        port).  Idempotent."""
        if not self.up:
            return
        self.up = False
        self.down_transitions += 1
        if flush:
            while True:
                pkt = self.queue.dequeue()
                if pkt is None:
                    break
                self._drop_down(pkt)
        if self.busy and self._held is None:
            # Mid-frame: whether the frame arrives depends on the link
            # being up when it ends, so recall the delivery and let the
            # wake-up decide.
            self._held = self._in_flight
            sim = self.sim
            sim.cancel(self._delivery)
            if self._wake != _POSTED:
                # Push the wake-up into its claimed slot, as in send().
                seq = sim.seq
                sim.seq = self._wake - 1
                self._post_at(self.busy_until, self._wakeup)
                sim.seq = seq
                self._wake = _POSTED

    def set_up(self) -> None:
        """Bring the link back; held-back queued packets resume immediately."""
        if self.up:
            return
        self.up = True
        if not self.busy:
            self._wakeup()

    # ------------------------------------------------------------------
    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of ``elapsed`` (default: sim.now) the line was busy."""
        horizon = self.sim.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    @property
    def loss_rate(self) -> float:
        """Fraction of offered data packets dropped at this egress (queue
        overflows, evictions, injected and link-outage losses)."""
        if self.data_pkts_offered == 0:
            return 0.0
        return self.data_drops / self.data_pkts_offered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, {self.capacity_bps/1e9:.1f} Gbps)"
