"""PDQ (Hong et al., SIGCOMM 2012): distributed explicit-rate arbitration,
and the explicit-rate chassis it shares with D3 (:mod:`repro.transports.d3`).

The arbitration-only baseline.  Every link runs a :class:`PdqLinkScheduler`
(the link's :attr:`~repro.sim.link.Link.allocator`) that keeps a table of
active flows and allocates the link preemptively to the highest-priority
flows — earliest deadline first, then shortest remaining size.  Data and
probe packets carry a rate header; each hop stamps ``min(header, my_grant)``
and the receiver echoes the result in the ACK.  Senders pace at the granted
rate; paused flows (grant = 0) keep a probe circulating once per RTT so they
learn promptly when the bottleneck frees up.

The paper's Table 1 puts PDQ and D3 in one strategy — arbitration by
explicit rates, carried in-band — and they differ only in the allocation
rule.  So they share one sender (:class:`PdqSender`), one per-link flow
table with its expiry and installer (:class:`RateAllocator`), and one link
seam (the link hands its allocator DATA and PROBE packets; ACKs skip it).

The paper's critique — 1–2 RTTs of *flow switching overhead* every time the
bottleneck hands over from one flow to the next — emerges naturally: the
grant travels in-band, so a newly unpaused flow cannot send data until a
probe has sampled the new allocation and its ACK has returned.

Two optimizations from the PDQ paper are included: *Early Start* (grant
the next flow in line when the current one is within ``EARLY_START_RTTS``
of finishing) and *Suppressed Probing* (a paused flow probes less often the
further it sits from the head of the line).  PDQ's Early Termination is
not modelled here; PASE's own version lives in :mod:`repro.core.endhost`.

Every timescale derives from one base RTT, ``config.initial_rtt``: paused
flows probe once per base RTT, and a table entry not refreshed within
``ENTRY_TIMEOUT_RTTS`` base RTTs is presumed dead.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Optional, Tuple

from repro.sim.engine import Handle
from repro.sim.link import Link
from repro.sim.packet import HEADER_SIZE, Packet, PacketKind
from repro.transports.base import SenderAgent, TransportConfig
from repro.utils.units import bytes_to_bits

#: Table entries not refreshed within this many base RTTs are presumed dead
#: (PDQ and D3 alike).
ENTRY_TIMEOUT_RTTS = 10
#: Early Start: also grant the flow behind the head when the head will
#: finish within this many base RTTs.  PDQ proposes ~K RTTs of overlap; too
#: large a value hides the flow-switching overhead entirely.
EARLY_START_RTTS = 0.5
#: Suppressed probing: a paused flow at rank ``r`` in the scheduler's
#: priority order probes every ``min(r, cap)`` base RTTs — far flows probe
#: rarely, trading unpause latency for probe overhead (this is the
#: flow-switching cost §2.1 dwells on).
PROBE_RANK_CAP = 8

_INF = float("inf")


@dataclass
class _FlowEntry:
    flow_id: int
    remaining_bytes: int
    last_seen: float
    #: Scheduling order, replaced whenever a packet refreshes the entry:
    #: EDF first (None deadlines sort last), then SJF, then flow id, so
    #: the order is total.
    key: Tuple[float, int, int]
    granted: float = 0.0


_BY_KEY = attrgetter("key")


class RateAllocator:
    """Per-link flow table of an explicit-rate switch (PDQ, D3).

    The link calls :meth:`process` for every DATA and PROBE packet offered
    to it; a subclass applies its allocation rule there and stamps the
    packet's rate header.  Entries are keyed by flow id and carry a
    ``last_seen`` time; :meth:`_expire` drops those silent for
    ``ENTRY_TIMEOUT_RTTS`` base RTTs.  Where a subclass expires relative to
    its update decides the table's order, so each keeps its own.
    """

    def __init__(self, link: Link, config: Optional[TransportConfig] = None) -> None:
        self.link = link
        self.config = config or TransportConfig()
        self.flows: Dict[int, Any] = {}
        #: Lower bound on every entry's ``last_seen``: no entry can have
        #: timed out while ``now - _oldest`` is within the timeout.
        #: Subclasses lower it when they insert an entry.
        self._oldest = _INF

    @classmethod
    def install(cls, network, config: Optional[TransportConfig] = None) -> None:
        """Make one allocator the :attr:`~repro.sim.link.Link.allocator` of
        every link in ``network``."""
        for link in network.links.values():
            link.allocator = cls(link, config)

    def process(self, pkt: Packet, link: Link) -> None:
        raise NotImplementedError

    def _expire(self, now: float) -> None:
        timeout = ENTRY_TIMEOUT_RTTS * self.config.initial_rtt
        if now - self._oldest <= timeout:
            return
        dead = [fid for fid, e in self.flows.items() if now - e.last_seen > timeout]
        for fid in dead:
            del self.flows[fid]
        self._oldest = min((e.last_seen for e in self.flows.values()),
                           default=_INF)


class PdqLinkScheduler(RateAllocator):
    """Preemptive rate allocator (switch side): EDF, then SJF."""

    flows: Dict[int, _FlowEntry]

    def process(self, pkt: Packet, link: Link) -> None:
        now = link.sim.now
        if pkt.remaining_bytes <= 0:
            # FIN: the sender has nothing left; free the slot immediately.
            self.flows.pop(pkt.flow_id, None)
            pkt.pdq_rate = min(pkt.pdq_rate, link.capacity_bps)
            return
        flow_id = pkt.flow_id
        remaining = pkt.remaining_bytes
        deadline = pkt.deadline
        key = (_INF if deadline is None else deadline, remaining, flow_id)
        entry = self.flows.get(flow_id)
        if entry is None:
            entry = _FlowEntry(flow_id, remaining, now, key)
            self.flows[flow_id] = entry
            if now < self._oldest:
                self._oldest = now
        else:
            entry.remaining_bytes = remaining
            entry.key = key
            entry.last_seen = now
        self._expire(now)
        rank = self._allocate(entry)
        grant = entry.granted
        if grant <= 0:
            pkt.pdq_pause = True
            pkt.pdq_rate = 0.0
        else:
            pkt.pdq_rate = min(pkt.pdq_rate, grant)
        if rank > pkt.pdq_rank:
            pkt.pdq_rank = rank

    # -- internals ---------------------------------------------------------
    def _allocate(self, current: _FlowEntry) -> int:
        """Preemptive allocation: capacity goes to flows in priority order;
        Early Start lets the runner-up stream while the head drains.
        Returns ``current``'s position in that order (0 = head)."""
        residual = self.link.capacity_bps
        early_window = EARLY_START_RTTS * self.config.initial_rtt
        ordered = sorted(self.flows.values(), key=_BY_KEY)
        rank = len(ordered)
        for i, entry in enumerate(ordered):
            if entry is current:
                rank = i
            if residual <= 0:
                entry.granted = 0.0
                continue
            grant = residual
            entry.granted = grant
            drain_time = bytes_to_bits(entry.remaining_bytes) / grant
            if drain_time <= early_window:
                # Early Start: head will vacate shortly — let the next flow
                # begin now rather than paying a pause/unpause round trip.
                continue
            residual -= grant
        return rank


class PdqSender(SenderAgent):
    """Rate-paced sender driven by in-band grants (PDQ's and D3's)."""

    def __init__(self, sim, host, flow,
                 config: Optional[TransportConfig] = None, on_done=None):
        super().__init__(sim, host, flow, config, on_done)
        self.rate_bps: float = 0.0
        self.paused: bool = True
        self.rank: int = 0
        self._pace_event: Optional[Handle] = None
        self._probe_event: Optional[Handle] = None
        self.cwnd = 1.0  # unused by pacing; kept sane for introspection

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.started:
            return
        self.started = True
        self.host.attach_sender(self.flow.flow_id, self)
        # Kick off with a probe: it seeds every scheduler's flow table and
        # returns the initial grant one RTT later.
        self._send_probe()

    def send_window(self) -> None:
        """Pacing replaces windowed transmission; opportunistically restart
        the pacing loop (e.g. after a timeout queued retransmissions)."""
        self._ensure_pacing()

    # -- pacing ------------------------------------------------------------
    def _ensure_pacing(self) -> None:
        if self.finished or self.paused or self.rate_bps <= 0:
            return
        if self._pace_event is None:
            self._pace_event = self.sim.post(0.0, self._pace_tick)

    def _pace_tick(self) -> None:
        self._pace_event = None
        if self.finished or self.paused or self.rate_bps <= 0:
            return
        item = self._next_seq_to_send()
        if item is None:
            return
        seq, is_retx = item
        self._transmit(seq, retransmit=is_retx)
        gap = bytes_to_bits(self._packet_size(seq)) / self.rate_bps
        self._pace_event = self.sim.post(gap, self._pace_tick)

    def _cancel_pacing(self) -> None:
        if self._pace_event is not None:
            self.sim.cancel(self._pace_event)
            self._pace_event = None

    # -- probing -------------------------------------------------------------
    def _send_probe(self) -> Packet:
        probe = super()._send_probe()
        self._schedule_probe()
        return probe

    def _schedule_probe(self) -> None:
        # Suppressed probing: back off with priority rank when paused.
        multiplier = 1
        if self.paused:
            multiplier = max(1, min(self.rank, PROBE_RANK_CAP))
        delay = self.config.initial_rtt * multiplier
        if self._probe_event is None:
            self._probe_event = self.sim.post(delay, self._maybe_probe)
        else:
            self._probe_event = self.sim.repost(self._probe_event, delay)

    def _maybe_probe(self) -> None:
        self._probe_event = None
        if self.finished:
            return
        if self.paused or self.rate_bps <= 0:
            self._send_probe()
        else:
            # While streaming, data packets refresh the schedulers; just
            # keep the probe timer parked for the next pause.
            self._schedule_probe()

    # -- grant handling --------------------------------------------------
    def handle_special_ack(self, ack: Packet) -> bool:
        self.rank = ack.pdq_rank
        self._apply_grant(ack.pdq_rate, ack.pdq_pause)
        if ack.kind == PacketKind.ACK and ack.ack_sacks == -1:
            # Probe reply for un-received data: treat purely as a grant
            # refresh (no reliability state to update).
            return True
        return False

    def _apply_grant(self, rate: float, paused_flag: bool) -> None:
        if rate == float("inf"):
            return  # ACK did not traverse a scheduler (e.g. generated FIN ack)
        was_paused = self.paused
        self.paused = paused_flag or rate <= 0
        self.rate_bps = 0.0 if self.paused else rate
        if self.paused:
            self._cancel_pacing()
            if was_paused is False:
                self._schedule_probe()
        else:
            self._ensure_pacing()

    # -- overrides ---------------------------------------------------------
    def handle_timeout(self) -> None:
        self._presume_inflight_lost()
        self._rearm_rto()
        if self.paused or self.rate_bps <= 0:
            self._send_probe()
        else:
            self._ensure_pacing()

    def on_ack_window_update(self, ack: Packet, newly_acked: bool) -> None:
        pass  # rate is dictated by grants, not by ACK clocking

    def _finish(self) -> None:
        if self.finished:
            return
        self._cancel_pacing()
        if self._probe_event is not None:
            self.sim.cancel(self._probe_event)
            self._probe_event = None
        # FIN probe: remaining == 0 clears our entry from every scheduler on
        # the path so the next flow is unpaused at once.
        fin = Packet(
            PacketKind.PROBE, self.host.node_id, self.flow.dst,
            self.flow.flow_id, seq=self.total_pkts - 1, size=HEADER_SIZE,
        )
        fin.remaining_bytes = 0
        self.host.send(fin)
        super()._finish()
