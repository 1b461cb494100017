"""PASE's end-host transport (§3.2, Algorithm 2).

A :class:`~repro.transports.dctcp.DctcpSender` (estimator, once-per-window
decrease, slow start then 1/cwnd growth) that is aware of the two
arbitration outputs:

* **Reference rate** — a top-queue flow pins its window to ``Rref * RTT``
  instead of slow-starting; a marked ACK still applies the DCTCP decrease,
  so endpoints remain self-adjusting when the arbitrator's estimate is off.
  ``PaseConfig.reference_rate=False`` (Fig. 13a's PASE-DCTCP) runs DCTCP
  laws in the top queue too.
* **Priority queue** — intermediate-queue and background flows run DCTCP's
  increase law from a cold window; bottom-queue flows stay at one packet
  per RTT.

Two further mechanisms from the paper:

* **Probe-based loss recovery** — a timeout in a non-top queue sends a
  header-only probe rather than retransmitting data: if the probe's ACK
  reports the packet missing, it was genuinely lost and is retransmitted;
  if the probe itself goes unanswered the flow is merely parked behind
  higher-priority traffic and keeps waiting (with backoff).
* **Promotion reordering guard** — on moving to a *higher* priority queue,
  the sender drains in-flight packets before sending at the new priority,
  avoiding reordering-induced backoff (§3.2).

Hot path
--------
Every ACK of every PASE flow runs this sender, so its per-ACK methods keep
their Python frames few, bit-identically to the method-per-step form (see
:mod:`repro.transports.base` for the chassis):

* the lowest data queue is stored once (``_lowest_queue``) rather than
  read from the config's property on every ACK and decision;
* the RTO floor is the chassis's ``_rto_floor`` attribute, set wherever
  the queue is set, so PASE does not override ``rto_value``;
* a top-queue flow's per-ACK window, ``_reference_window()`` clamped to
  ``[1, MAX_CWND]``, is cached and recomputed only when Rref or the
  minimum RTT sample changes;
* :meth:`PaseSender.send_window` finishes a drained promotion inline, and
  :meth:`PaseSender._on_arbitration` merges the two path halves with
  ``max``/``min`` in :meth:`~repro.core.arbitration.ArbitrationResult.merge`'s
  operand order.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.arbitration import ArbitrationResult
from repro.core.config import PaseConfig
from repro.core.control_plane import PaseControlPlane
from repro.sim.engine import Handle
from repro.sim.packet import Packet
from repro.sim.trace import CAT_FALLBACK, CAT_QUEUE_CHANGE
from repro.transports.base import MAX_CWND, ReceiverAgent, TransportConfig
from repro.transports.dctcp import DctcpSender
from repro.utils.units import MSEC, bytes_to_bits

#: PASE receivers are plain receivers: probe replies are part of the shared
#: chassis (the PASE paper introduced them; see ReceiverAgent._ack_probe).
PaseReceiver = ReceiverAgent

#: RTO floor of a top-queue flow (Table 3); lower queues use
#: ``PaseConfig.min_rto_low``.
MIN_RTO_TOP = 10 * MSEC
#: Consecutive unanswered or refused arbitration requests tolerated before
#: the sender falls back to pure DCTCP (§3.1's soft-state argument; a clean
#: run never misses a reply, so it never triggers).
ARBITRATION_MAX_RETRIES = 3
#: Cap on the exponential backoff multiplier applied to the re-request
#: interval while requests keep failing (also the fallback re-probe cadence,
#: so recovery is detected within cap x interval).
ARBITRATION_BACKOFF_CAP = 8.0
#: Smallest exponent whose power of two reaches the cap.  Capping the
#: exponent as well keeps ``2.0 ** failures`` finite however long requests
#: keep failing (it overflows past about 1,024).
_BACKOFF_MAX_EXPONENT = math.ceil(math.log2(ARBITRATION_BACKOFF_CAP))


class PaseSender(DctcpSender):
    """Algorithm 2 rate control driven by (PrioQue, Rref) from arbitration."""

    def __init__(self, sim, host, flow, control_plane: PaseControlPlane,
                 on_done=None) -> None:
        #: The run's config: every sender shares its control plane's.
        self.pase: PaseConfig = control_plane.config
        transport = TransportConfig(init_cwnd=1.0, min_rto=MIN_RTO_TOP)
        super().__init__(sim, host, flow, transport, on_done)
        self.control_plane = control_plane
        self.nic_rate_bps = control_plane.topology.host_uplink(host).capacity_bps

        #: The lowest data queue, read on every ACK and every decision.
        self._lowest_queue: int = self.pase.num_data_queues - 1
        #: The priority queue the flow's packets ride.  Set it through
        #: ``_set_queue`` (or with ``_rto_floor`` beside it, as
        #: ``_enter_fallback`` does): the RTO floor follows the queue.
        self.queue_index: int = self._lowest_queue
        self._rto_floor = self._queue_rto_floor(self.queue_index)
        self.reference_rate: float = 0.0
        #: ``_reference_window()`` clamped to [1, MAX_CWND], cached for the
        #: top queue's per-ACK update, and the ``(reference_rate,
        #: _rtt_min_sample)`` it was computed from; either changing
        #: recomputes it.
        self._ref_cwnd: float = 1.0
        self._ref_key: tuple = ()
        self._is_intermediate = False
        self._pending_queue: Optional[int] = None
        #: Seq of the outstanding loss-recovery probe, if any.
        self._probe_seq: Optional[int] = None
        self._arb_event: Optional[Handle] = None
        #: Latest known result per path half ("src"/"dst"); the flow obeys
        #: the merge of the two (lowest queue, smallest reference rate).
        self._half_results: dict = {}
        #: No data leaves before the first arbitration response (§3.1.2);
        #: background flows are exempt (they never arbitrate).
        self._arbitrated = False
        # -- retry / fallback machinery (§3.1: arbitration is soft state) --
        #: True between issuing a request and any arbitration response; if
        #: still set at the next periodic tick the request timed out.  In a
        #: clean run every reply lands before the next tick (pinned by
        #: ``test_clean_replies_beat_the_next_tick``).
        self._request_pending = False
        self._arb_failures = 0
        #: True while running pure DCTCP because arbitrators are unreachable.
        self._in_fallback = False
        self._fallback_since = 0.0

        if flow.background:
            # Background traffic lives in the reserved bottom class and runs
            # plain DCTCP laws; it never contacts arbitrators (§3.3).
            self.queue_index = self.pase.background_queue
            self._rto_floor = self._queue_rto_floor(self.queue_index)
            self._is_intermediate = True
            self.cwnd = 2.0

    # ------------------------------------------------------------------
    # Lifecycle / arbitration driver
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.started:
            return
        self.started = True
        self.host.attach_sender(self.flow.flow_id, self)
        if not self.flow.background:
            self._arbitrate()
        self.send_window()

    def _arbitrate(self) -> None:
        self._arb_event = None
        if self.finished:
            return
        if self.pase.early_termination and self._deadline_unreachable():
            self.terminate()
            return
        # The flow starts sending when the source half's *deepest child
        # arbitrator* has answered (§3.1.2: "a flow starts as soon as it
        # receives arbitration information from the child arbitrator") —
        # synchronously for intra-rack, after the ToR round trip otherwise.
        # Starting on host-local information alone would blast line-rate
        # top-queue bursts into fabric links the host knows nothing about.
        #
        # Any request can fail.  A request that never answered by this
        # tick has timed out (no extra timeout events needed — the periodic
        # cadence is the timer); an outright refusal fails immediately.
        # Enough consecutive failures and the flow falls back to pure DCTCP,
        # still re-requesting (with backoff) so it rejoins arbitration the
        # moment the control plane answers again.
        if self._request_pending:
            self._arb_failures += 1
        self._request_pending = True
        local = self.control_plane.request(
            self.flow, self._criterion_value(), self._demand(),
            self._on_arbitration)
        if local is None:
            self._request_pending = False
            self._arb_failures += 1
        if self._arb_failures > ARBITRATION_MAX_RETRIES:
            self._enter_fallback()
        interval = self.pase.arbitration_interval
        if self._arb_failures:
            interval *= min(2.0 ** min(self._arb_failures,
                                       _BACKOFF_MAX_EXPONENT),
                            ARBITRATION_BACKOFF_CAP)
        self._arb_event = self.sim.post(interval, self._arbitrate)

    def _criterion_value(self) -> float:
        criterion = self.pase.criterion
        if criterion == "deadline":
            deadline = self.flow.absolute_deadline
            if deadline is None:
                return float("1e12")
            if deadline <= self.sim.now:
                # The deadline is already blown: stop competing with flows
                # that can still make theirs (EDF would otherwise hand the
                # top queue to provably useless work).
                return float("1e9") + deadline
            return deadline
        if criterion == "las":
            # Size-unaware: least attained service first.  Fresh flows win;
            # flows pay for what they have already received.
            return float(self.pkts_acked * self.mtu)
        if criterion == "task":
            # Tasks in arrival order (task ids are assigned monotonically),
            # shortest-remaining within a task; task-less flows sort last.
            task = self.flow.task_id
            if task is None:
                return 1e15 + float(self.remaining_bytes)
            return task * 1e10 + min(float(self.remaining_bytes), 1e10 - 1)
        return float(self.remaining_bytes)

    def _demand(self) -> float:
        """Max useful rate: NIC line rate, or less for sub-BDP flows."""
        rtt = max(self.base_rtt, 1e-9)
        return min(self.nic_rate_bps, bytes_to_bits(self.remaining_bytes) / rtt)

    def _deadline_unreachable(self) -> bool:
        """True when even NIC line rate cannot finish before the deadline."""
        deadline = self.flow.absolute_deadline
        if deadline is None:
            return False
        time_left = deadline - self.sim.now
        best_case = bytes_to_bits(self.remaining_bytes) / self.nic_rate_bps
        return best_case > time_left

    def terminate(self) -> None:
        """Give up on the flow (Early Termination): stop all timers, clear
        arbitration state, and mark the flow as abandoned.  Capacity the
        flow would have wasted goes to flows that can still make their
        deadlines."""
        if self.finished:
            return
        self.flow.terminated = True
        self._finish()

    def _finish(self) -> None:
        if self.finished:
            return
        self._close_fallback_episode()
        if self._arb_event is not None:
            self.sim.cancel(self._arb_event)
            self._arb_event = None
        if not self.flow.background:
            self.control_plane.notify_complete(self.flow)
        super()._finish()

    # ------------------------------------------------------------------
    # Applying arbitration decisions
    # ------------------------------------------------------------------
    def _on_arbitration(self, half: str, new_result: ArbitrationResult) -> None:
        if self.finished:
            return
        self._request_pending = False
        if self._arb_failures:
            self._arb_failures = 0
        if self._in_fallback:
            self._exit_fallback()
        self._arbitrated = True
        halves = self._half_results
        halves[half] = new_result
        # ArbitrationResult.merge, inline: the lowest queue and the
        # smallest reference rate, in the same operand order.
        queue = new_result.queue
        rate = new_result.reference_rate
        for other_half, other in halves.items():
            if other_half != half:
                queue = max(queue, other.queue)
                rate = min(rate, other.reference_rate)
        self.reference_rate = rate
        new_queue = min(queue, self._lowest_queue)
        if new_queue < self.queue_index and self._inflight:
            # Promotion: drain old-priority packets first (reordering guard).
            self._pending_queue = new_queue
        else:
            self._pending_queue = None
            self._set_queue(new_queue)
        self.send_window()

    def _set_queue(self, queue: int) -> None:
        if queue != self.queue_index and self.sim.tracer is not None:
            self.sim.tracer.record(self.sim.now, CAT_QUEUE_CHANGE,
                                   self.flow.flow_id,
                                   old=self.queue_index, new=queue)
        self.queue_index = queue
        # _queue_rto_floor(queue), inline: this runs on every response.
        self._rto_floor = MIN_RTO_TOP if queue == 0 else self.pase.min_rto_low
        if queue == 0:
            if not self.pase.reference_rate:
                # PASE-DCTCP ablation: DCTCP laws even in the top queue.
                if not self._is_intermediate:
                    self._is_intermediate = True
                    self.cwnd = 2.0
                return
            self._is_intermediate = False
            self.cwnd = max(1.0, self._reference_window())
        elif queue < self._lowest_queue:
            if not self._is_intermediate:
                self._is_intermediate = True
                self.cwnd = 1.0
                # DCTCP increase law from a cold window includes slow start:
                # the flow probes for spare (work-conservation) capacity and
                # is tamed by ECN marks inside its priority class.  Without
                # this, intermediate flows crawl at +1 MSS/RTT and the gaps
                # left by completing top-queue flows go unused.
                self.ssthresh = MAX_CWND
        else:
            self._is_intermediate = False
            self.cwnd = 1.0

    def _queue_rto_floor(self, queue: int) -> float:
        """RTO floor of a flow in ``queue``: Table 3's top-queue value, or
        ``min_rto_low`` below it."""
        return MIN_RTO_TOP if queue == 0 else self.pase.min_rto_low

    def _reference_window(self) -> float:
        """Rref expressed as a window: Rref x RTT, in packets.  Uses the
        propagation RTT — a queueing-inflated estimate would compound (more
        window -> more queueing -> more window)."""
        return self.reference_rate * max(self.base_rtt, 1e-9) / bytes_to_bits(self.mtu)

    # ------------------------------------------------------------------
    # DCTCP fallback (§3.1's fault-tolerance argument, made concrete)
    # ------------------------------------------------------------------
    def _enter_fallback(self) -> None:
        """Arbitrators unreachable: run pure self-adjusting DCTCP in the
        fallback queue until a response arrives again."""
        if self._in_fallback:
            return
        self._in_fallback = True
        self._fallback_since = self.sim.now
        self.flow.fallback_episodes += 1
        # Pre-crash arbitration state is stale; drop it wholesale.
        self._half_results.clear()
        self._pending_queue = None
        self.reference_rate = 0.0
        # The lowest data class: degraded flows cannot starve arbitrated
        # top-queue traffic.
        self.queue_index = self._lowest_queue
        self._rto_floor = self._queue_rto_floor(self.queue_index)
        self._is_intermediate = True  # DCTCP control laws
        self.cwnd = max(self.cwnd, 2.0)
        self.ssthresh = MAX_CWND
        self._arbitrated = True  # sending no longer gated on arbitration
        if self.sim.tracer is not None:
            self.sim.tracer.record(self.sim.now, CAT_FALLBACK,
                                   self.flow.flow_id, phase="enter",
                                   queue=self.queue_index)
        self.send_window()

    def _exit_fallback(self) -> None:
        """An arbitration response arrived: soft state is rebuilding."""
        self._in_fallback = False
        duration = self.sim.now - self._fallback_since
        self.flow.fallback_time += duration
        self.flow.recovery_latencies.append(duration)
        if self.sim.tracer is not None:
            self.sim.tracer.record(self.sim.now, CAT_FALLBACK,
                                   self.flow.flow_id, phase="exit",
                                   duration=duration)

    def _close_fallback_episode(self) -> None:
        """Flow ended while still in fallback: book the time, no recovery."""
        if self._in_fallback:
            self._in_fallback = False
            self.flow.fallback_time += self.sim.now - self._fallback_since

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_window(self) -> None:
        if not self._arbitrated and not self.flow.background:
            return  # wait for the child arbitrator's first answer
        pending = self._pending_queue
        if pending is not None:
            if self._inflight:
                return  # hold fire until the old-priority packets drain
            # The old-priority packets have drained: finish the promotion.
            self._pending_queue = None
            self._set_queue(pending)
        super().send_window()

    def decorate_packet(self, pkt: Packet) -> None:
        pkt.queue_index = self.queue_index
        pkt.priority = float(self.queue_index)

    # ------------------------------------------------------------------
    # Algorithm 2: window increase per unmarked ACK
    # ------------------------------------------------------------------
    def _increase_window(self) -> None:
        if self.flow.background or self._is_intermediate:
            super()._increase_window()
        elif self.queue_index == 0 and self.pase.reference_rate:
            key = (self.reference_rate, self._rtt_min_sample)
            if key != self._ref_key:
                self._ref_key = key
                self._ref_cwnd = min(max(1.0, self._reference_window()),
                                     MAX_CWND)
            self.cwnd = self._ref_cwnd
        else:
            self.cwnd = 1.0

    # ------------------------------------------------------------------
    # Loss recovery: queue-dependent RTO (``_rto_floor``) + probing
    # ------------------------------------------------------------------
    def handle_timeout(self) -> None:
        if self.queue_index == 0 or not self.pase.probing_enabled:
            super().handle_timeout()
            return
        # Low-priority timeout: probe instead of retransmitting data (§3.2).
        self._probe_seq = self._send_probe().seq
        self._rearm_rto()

    def handle_special_ack(self, ack: Packet) -> bool:
        sack = ack.ack_sacks
        if sack == self._probe_seq:
            # Probe answered "received".  The reply's cumulative ack also
            # covers packets whose own ACKs were lost (a link flap can eat
            # a whole window of them); without it each later probe would
            # free one packet.  The chassis books the probed seq itself.
            self._probe_seq = None
            sacked = self._sacked
            for seq in range(self.cum_ack, ack.ack_seq):
                if seq != sack and seq not in sacked:
                    sacked.add(seq)
                    self.pkts_acked += 1
                    self._inflight.discard(seq)
            return False
        if sack == -1:
            # Probe answered but the probed packet never arrived.  The probe
            # travelled the same FIFO class as the data, so everything sent
            # before it either arrived (and was SACKed) or was dropped:
            # declare the whole in-flight set lost so the window can
            # actually re-send (a stale in-flight set would otherwise pin
            # the one-packet window shut forever).
            self._probe_seq = None
            seq = ack.seq
            self._presume_inflight_lost()
            if seq not in self._retx_queue and not self.is_acked(seq):
                self._retx_queue.insert(0, seq)
            self._rto_backoff = 0
            self._rearm_rto()
            self.send_window()
            return True
        return False
