"""Reliable window-based transport base.

Every protocol in the paper (DCTCP, D2TCP, L2DCT, pFabric, PASE's end-host
transport) is a window-based, per-packet-ACKed transport differing only in
how the window reacts to ACKs, ECN marks, losses, and timeouts.  This module
implements the shared machinery once:

* selective per-packet ACKs with a cumulative ack number,
* reliability state in O(window): each end keeps its cumulative ack and
  the set of seqs acked (or received) above it, never a per-packet list,
  so a 1,000 MB background flow costs no more than a short one,
* fast retransmit after ``DUPACK_THRESHOLD`` duplicate cumulative ACKs
  (one recovery episode per window, NewReno-style),
* a single retransmission timer with exponential backoff,
* EWMA RTT estimation from non-retransmitted packets,
* header-only probes (PASE, pFabric, PDQ), stamped like data,
* completion detection on both ends.

Subclasses override the small hook surface at the bottom of
:class:`SenderAgent` (``decorate_packet``, ``on_ack_window_update``,
``increase_gain``, ``on_fast_retransmit``, ``on_timeout_window_update``).
PDQ replaces the window engine with pacing but reuses the receiver and
reliability state.

Hot-path notes
--------------
Every protocol's packets arrive through this chassis, so a host arrival
is the costliest event in most runs, and the per-packet methods keep
their Python frames few.  :meth:`SenderAgent.on_packet` takes the RTT
sample inline; :meth:`SenderAgent.send_window` computes the usable window
inline and takes new data directly when no retransmission is queued;
:meth:`SenderAgent._transmit` sizes the packet and stamps its remaining
bytes inline and posts a timer only when none is armed.  The results are
bit-identical to the method-per-step form.  :meth:`SenderAgent._rearm_rto`,
run on every ACK that advances the cumulative ack, computes
:meth:`SenderAgent.rto_value` inline from the ``_rto_floor`` attribute (the
configured ``min_rto``, or PASE's per-queue floor, set wherever PASE sets
its queue), so no subclass overrides ``rto_value``.
:meth:`~repro.transports.dctcp.DctcpSender.on_ack_window_update` runs the
alpha estimator's per-ACK update inline, on the estimator's own state.
Three seams stay, whatever they cost:

* Every RTO re-arm goes through :meth:`SenderAgent._rearm_rto`.
  ``tests/test_rearm_oracle.py`` swaps it for a cancel-and-post oracle
  and checks that runs agree bit for bit.
* The benchmark census (``sweepbench/census.py``) times spans by method
  name: ``Host.send``/``receive``, ``Link.send`` and each agent class's
  own ``on_packet``.  Folding one of them into its caller moves its time
  to another layer.
* Every schedule goes through ``Simulator.post``/``post_at``/``repost``,
  which the census wraps to attribute each event to its layer.  A
  callback pushed any other way counts as unattributed.

The subclass hooks, ``_packet_size`` and ``_next_seq_to_send`` (PDQ's
pacer uses both) stay as methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Set

from repro.sim.engine import Handle, Simulator
from repro.sim.packet import HEADER_SIZE, Packet, PacketKind, make_ack_packet
from repro.sim.trace import CAT_RETRANSMIT, CAT_TIMEOUT
from repro.transports.flow import Flow
from repro.utils.units import MSEC, USEC
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.node import Host

_DATA = PacketKind.DATA
_PROBE = PacketKind.PROBE

#: Callback fired by the receiver when the final data packet lands.
CompletionCallback = Callable[[Flow], None]


#: Window ceiling, packets (also the initial slow-start threshold).
MAX_CWND = 1_000.0
#: Duplicate cumulative ACKs that trigger a fast retransmit.
DUPACK_THRESHOLD = 3


@dataclass
class TransportConfig:
    """The four values a protocol binding sets per sender.  Every other
    Table 3 parameter is a constant in the module that reads it."""

    init_cwnd: float = 2.0
    min_rto: float = 10 * MSEC
    max_rto: float = 2.0
    #: Initial smoothed-RTT guess before any sample arrives; PDQ and D3
    #: also take it as their base RTT.
    initial_rtt: float = 300 * USEC

    def __post_init__(self) -> None:
        check_positive("init_cwnd", self.init_cwnd)
        check_positive("min_rto", self.min_rto)
        check_positive("initial_rtt", self.initial_rtt)


class ReceiverAgent:
    """Receives DATA/PROBE packets, sends ACKs, detects completion."""

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        flow: Flow,
        on_complete: Optional[CompletionCallback] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow = flow
        self.on_complete = on_complete
        self.total_pkts = flow.total_pkts
        #: Every seq below ``_cum_ack`` has arrived; ``_beyond`` holds the
        #: arrived seqs above it, so the state is O(window), not O(flow).
        self._cum_ack = 0
        self._beyond: Set[int] = set()
        host.attach_receiver(flow.flow_id, self)

    @property
    def cum_ack(self) -> int:
        return self._cum_ack

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == _PROBE:
            self._ack_probe(pkt)
            return
        seq = pkt.seq
        cum_ack = self._cum_ack
        if seq == cum_ack and seq < self.total_pkts:
            # In order: advance, then drain what arrived ahead of it.
            cum_ack += 1
            beyond = self._beyond
            while cum_ack in beyond:
                beyond.remove(cum_ack)
                cum_ack += 1
            self._cum_ack = cum_ack
            if cum_ack == self.total_pkts and not self.flow.completed:
                self.flow.completion_time = self.sim.now
                if self.on_complete is not None:
                    self.on_complete(self.flow)
        elif cum_ack < seq < self.total_pkts:
            self._beyond.add(seq)
        ack = make_ack_packet(pkt, cum_ack, queue_index=pkt.queue_index)
        self.host.send(ack)

    def _ack_probe(self, probe: Packet) -> None:
        """Answer a PASE-style probe: echo whether ``probe.seq`` has arrived.

        ``ack_sacks`` carries the probed seq when the data was received and
        -1 when it was not, letting the sender distinguish "lost" from
        "still queued behind higher priorities" (paper §3.2).
        """
        ack = make_ack_packet(probe, self._cum_ack, queue_index=probe.queue_index)
        got_it = 0 <= probe.seq < self._cum_ack or probe.seq in self._beyond
        ack.ack_sacks = probe.seq if got_it else -1
        self.host.send(ack)


class SenderAgent:
    """Window-based reliable sender with protocol hooks."""

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        flow: Flow,
        config: Optional[TransportConfig] = None,
        on_done: Optional[CompletionCallback] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow = flow
        self.config = config or TransportConfig()
        self.on_done = on_done
        self.total_pkts = flow.total_pkts
        self.mtu = flow.mtu
        #: Stamped on every data packet and probe; a flow's deadline and
        #: start time are fixed before its sender exists.
        self.absolute_deadline = flow.absolute_deadline

        # -- window state ------------------------------------------------
        self.cwnd: float = self.config.init_cwnd
        self.ssthresh: float = MAX_CWND
        self.next_new: int = 0
        self.pkts_acked: int = 0
        #: Every seq below ``cum_ack`` is acked; ``_sacked`` holds the
        #: acked seqs above it (see :meth:`is_acked`).
        self.cum_ack: int = 0
        self._sacked: Set[int] = set()
        self._inflight: set = set()
        self._retx_queue: List[int] = []
        self._dupacks: int = 0
        self._recovery_until: int = -1

        # -- RTT / RTO ---------------------------------------------------
        self.srtt: float = self.config.initial_rtt
        self.rttvar: float = self.config.initial_rtt / 2
        #: Minimum RTT sample seen — approximates the propagation RTT
        #: (queueing-free), which rate-to-window conversions should use.
        self._rtt_min_sample: Optional[float] = None
        #: Lower bound of the RTO before backoff.  PASE moves it with the
        #: flow's priority queue; every other sender keeps ``min_rto``.
        self._rto_floor: float = self.config.min_rto
        self._rto_backoff: int = 0
        self._rto_event: Optional[Handle] = None

        self.started = False
        self.finished = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Register with the host and open the window."""
        if self.started:
            return
        self.started = True
        self.host.attach_sender(self.flow.flow_id, self)
        self.send_window()

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        self._cancel_rto()
        self.host.detach_flow(self.flow.flow_id)
        if self.on_done is not None:
            self.on_done(self.flow)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    @property
    def remaining_bytes(self) -> int:
        """Bytes not yet cumulatively acknowledged."""
        return max(0, self.flow.size_bytes - self.cum_ack * self.mtu)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def usable_window(self) -> int:
        return max(0, int(self.cwnd) - self.inflight)

    def send_window(self) -> None:
        """Transmit as many packets as the window allows (retransmissions
        take precedence over new data)."""
        if self.finished:
            return
        budget = int(self.cwnd) - len(self._inflight)
        while budget > 0:
            if self._retx_queue:
                item = self._next_seq_to_send()
                if item is None:
                    break
                self._transmit(*item)
            else:
                # No retransmission pending: the next seq is new data.
                seq = self.next_new
                if seq >= self.total_pkts:
                    break
                self.next_new = seq + 1
                self._transmit(seq, False)
            budget -= 1

    def _next_seq_to_send(self) -> Optional[tuple]:
        while self._retx_queue:
            seq = self._retx_queue.pop(0)
            if self.is_acked(seq) or seq in self._inflight:
                continue
            return seq, True
        if self.next_new < self.total_pkts:
            seq = self.next_new
            self.next_new += 1
            return seq, False
        return None

    def is_acked(self, seq: int) -> bool:
        """Whether packet ``seq`` (``0 <= seq < total_pkts``) is acked."""
        return seq < self.cum_ack or seq in self._sacked

    def _packet_size(self, seq: int) -> int:
        """Last packet carries the flow's tail bytes; others are full MTU."""
        if seq == self.total_pkts - 1:
            tail = self.flow.size_bytes - seq * self.mtu
            return max(HEADER_SIZE, tail)
        return self.mtu

    def _transmit(self, seq: int, retransmit: bool = False) -> None:
        flow = self.flow
        mtu = self.mtu
        size_bytes = flow.size_bytes
        # _packet_size and remaining_bytes, inline.
        size = mtu
        if seq == self.total_pkts - 1:
            size = max(HEADER_SIZE, size_bytes - seq * mtu)
        remaining = size_bytes - self.cum_ack * mtu
        sim = self.sim
        pkt = Packet(_DATA, self.host.node_id, flow.dst, flow.flow_id, seq,
                     size)
        pkt.sent_time = sim.now
        pkt.is_retransmit = retransmit
        pkt.deadline = self.absolute_deadline
        pkt.remaining_bytes = remaining if remaining > 0 else 0
        self.decorate_packet(pkt)
        self._inflight.add(seq)
        flow.pkts_sent += 1
        if retransmit:
            flow.retransmissions += 1
            if sim.tracer is not None:
                sim.tracer.record(sim.now, CAT_RETRANSMIT, flow.flow_id,
                                  seq=seq)
        self.host.send(pkt)
        if self._rto_event is None:
            self._arm_rto()

    def _send_probe(self) -> Packet:
        """Send a header-only probe for the first unacked packet, stamped
        like data so it rides the same queue and carries the same
        scheduling headers.  Returns the probe."""
        probe = Packet(
            PacketKind.PROBE, self.host.node_id, self.flow.dst,
            self.flow.flow_id, seq=min(self.cum_ack, self.total_pkts - 1),
            size=HEADER_SIZE,
        )
        probe.sent_time = self.sim.now
        probe.deadline = self.absolute_deadline
        probe.remaining_bytes = self.remaining_bytes
        self.decorate_packet(probe)
        self.flow.probes_sent += 1
        self.host.send(probe)
        return probe

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_packet(self, ack: Packet) -> None:
        if self.finished:
            return
        if self.handle_special_ack(ack):
            return
        sack = ack.ack_sacks
        sacked = self._sacked
        old_cum = cum_ack = self.cum_ack
        newly_acked = False
        if cum_ack <= sack < self.total_pkts and sack not in sacked:
            if sack == cum_ack:
                cum_ack += 1
            else:
                sacked.add(sack)
            self.pkts_acked += 1
            newly_acked = True
            if not ack.is_retransmit:
                # RTT sample (Karn's rule: never from a retransmission).
                sample = self.sim.now - ack.sent_time
                if sample > 0:
                    low = self._rtt_min_sample
                    if low is None or sample < low:
                        self._rtt_min_sample = sample
                    delta = sample - self.srtt
                    self.srtt += 0.125 * delta
                    self.rttvar += 0.25 * (abs(delta) - self.rttvar)
        self._inflight.discard(sack)

        while cum_ack in sacked:
            sacked.remove(cum_ack)
            cum_ack += 1
        self.cum_ack = cum_ack

        if cum_ack > old_cum:
            self._dupacks = 0
            self._rto_backoff = 0
            self._rearm_rto()
        elif newly_acked and sack > self.cum_ack:
            self._maybe_fast_retransmit()

        self.on_ack_window_update(ack, newly_acked)

        if self.cum_ack >= self.total_pkts:
            self._finish()
            return
        self.send_window()

    def _maybe_fast_retransmit(self) -> None:
        self._dupacks += 1
        if self._dupacks < DUPACK_THRESHOLD:
            return
        if self.cum_ack <= self._recovery_until:
            return  # already in recovery for this hole
        self._dupacks = 0
        self._recovery_until = self.next_new - 1
        seq = self.cum_ack
        self._inflight.discard(seq)
        if seq not in self._retx_queue:
            self._retx_queue.insert(0, seq)
        self.on_fast_retransmit()
        self.send_window()

    @property
    def base_rtt(self) -> float:
        """Best propagation-RTT estimate: the minimum sample, or the
        configured initial guess before any sample exists."""
        if self._rtt_min_sample is None:
            return self.config.initial_rtt
        return min(self._rtt_min_sample, self.config.initial_rtt * 10)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def rto_value(self) -> float:
        base = max(self._rto_floor, self.srtt + 4 * self.rttvar)
        return min(self.config.max_rto, base * (2 ** self._rto_backoff))

    def _arm_rto(self) -> None:
        if self._rto_event is None:
            self._rto_event = self.sim.post(self.rto_value(), self._on_rto)

    def _rearm_rto(self) -> None:
        if not (self._inflight or self._retx_queue
                or self.next_new < self.total_pkts):
            self._cancel_rto()
        elif self._rto_event is None:
            self._arm_rto()
        else:
            # In place: one heap entry per timer.  _on_rto clears
            # _rto_event before anything re-arms, so a kept handle is
            # still pending, as repost requires.  rto_value(), inline.
            rto = self.srtt + 4 * self.rttvar
            floor = self._rto_floor
            if floor >= rto:
                rto = floor
            rto = rto * (2 ** self._rto_backoff)
            max_rto = self.config.max_rto
            if max_rto <= rto:
                rto = max_rto
            self._rto_event = self.sim.repost(self._rto_event, rto)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self.sim.cancel(self._rto_event)
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.finished:
            return
        self.flow.timeouts += 1
        self._rto_backoff = min(self._rto_backoff + 1, 6)
        if self.sim.tracer is not None:
            self.sim.tracer.record(self.sim.now, CAT_TIMEOUT, self.flow.flow_id,
                                   cum_ack=self.cum_ack,
                                   inflight=len(self._inflight))
        self.handle_timeout()

    def handle_timeout(self) -> None:
        """Default timeout reaction: everything in flight is presumed lost,
        the window collapses (hook), and retransmission restarts from the
        first hole.  PASE overrides this for low-priority queues (probing)."""
        self._presume_inflight_lost()
        self._dupacks = 0
        self._recovery_until = -1
        self.on_timeout_window_update()
        self._rearm_rto()
        self.send_window()

    def _presume_inflight_lost(self) -> None:
        """Queue every in-flight packet for retransmission, in seq order.
        No in-flight seq is acked: an ACK removes its seq from the set."""
        for seq in sorted(self._inflight):
            if seq not in self._retx_queue:
                self._retx_queue.append(seq)
        self._inflight.clear()

    # ------------------------------------------------------------------
    # Protocol hooks (override in subclasses)
    # ------------------------------------------------------------------
    def decorate_packet(self, pkt: Packet) -> None:
        """Stamp protocol headers (priority, queue index) on an outgoing
        data packet.  Default: best-effort queue 0, priority 0."""

    def on_ack_window_update(self, ack: Packet, newly_acked: bool) -> None:
        """Adjust ``cwnd`` on an ACK.  Default: TCP Reno growth, halving
        handled by loss hooks."""
        if newly_acked:
            self._increase_window()

    def _increase_window(self) -> None:
        """Slow start below ``ssthresh``, then ``increase_gain()`` MSS per
        RTT (``gain / cwnd`` per ACK)."""
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd + 1, MAX_CWND)
        else:
            self.cwnd = min(self.cwnd + self.increase_gain() / max(self.cwnd, 1.0),
                            MAX_CWND)

    def increase_gain(self) -> float:
        """Additive-increase numerator: Reno and DCTCP grow 1 MSS per RTT."""
        return 1.0

    def on_fast_retransmit(self) -> None:
        """Window reaction to a dup-ACK-detected loss.  Default: Reno halving."""
        self.ssthresh = max(self.cwnd / 2, 2.0)
        self.cwnd = self.ssthresh

    def on_timeout_window_update(self) -> None:
        """Window reaction to an RTO.  Default: collapse to one packet."""
        self.ssthresh = max(self.cwnd / 2, 2.0)
        self.cwnd = 1.0

    def handle_special_ack(self, ack: Packet) -> bool:
        """Intercept protocol-specific ACKs (e.g. PASE probe replies).
        Return True when the ACK was fully consumed."""
        return False
