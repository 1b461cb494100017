"""pFabric (Alizadeh et al., SIGCOMM 2013): in-network prioritization alone.

Packets carry the flow's *remaining size* as their priority; switches run
:class:`repro.sim.queues.PFabricQueue` (priority scheduling + priority
dropping over a shallow ~2×BDP buffer).  Rate control is minimal, per the
pFabric paper:

* flows start at line rate (``init_cwnd`` = BDP, Table 3: 38 packets),
* no ECN, no per-ACK window adjustments,
* loss recovery by small fixed RTO (Table 3: 1 ms ~ 3.3 RTT); the window is
  halved only under *persistent* loss (consecutive timeouts) and restored
  additively — transient drops are expected and absorbed by prioritization.

This module also provides :func:`pfabric_queue_factory` so topologies can be
built with pFabric switches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.packet import Packet
from repro.sim.queues import PFabricQueue
from repro.transports.base import SenderAgent, TransportConfig
from repro.utils.units import MSEC

#: Consecutive timeouts before the window is considered under persistent
#: loss and halved.
PERSISTENCE_THRESHOLD = 2
#: Consecutive timeouts before the flow enters *probe mode* (pFabric §4.3):
#: it stops retransmitting data and sends one header-only probe per RTO
#: until a response arrives, avoiding retransmission storms from
#: chronically starved low-priority flows.
PROBE_MODE_THRESHOLD = 5


@dataclass
class PfabricConfig(TransportConfig):
    """Table 3 defaults: qSize = 76 pkts (2 BDP), initCwnd = 38 pkts (BDP),
    minRTO = 1 ms."""

    init_cwnd: float = 38.0
    min_rto: float = 1 * MSEC
    max_rto: float = 0.1


def pfabric_queue_factory(capacity_pkts: int = 76):
    """Queue factory for building pFabric fabrics (2×BDP shallow buffers)."""
    def factory() -> PFabricQueue:
        return PFabricQueue(capacity_pkts=capacity_pkts)
    return factory


class PfabricSender(SenderAgent):
    """Line-rate sender; priority = remaining flow size."""

    def __init__(self, sim, host, flow,
                 config: Optional[TransportConfig] = None, on_done=None):
        super().__init__(sim, host, flow, config or PfabricConfig(), on_done)
        # Never open the window beyond what the flow actually needs.
        self.cwnd = min(self.config.init_cwnd, float(self.total_pkts))
        self._line_rate_cwnd = self.cwnd
        self._consecutive_timeouts = 0
        self.probe_mode = False

    # -- hooks -----------------------------------------------------------
    def decorate_packet(self, pkt: Packet) -> None:
        # Remaining size in bytes: smaller value = higher priority.  ACKs
        # copy this priority so they also win the reverse path.
        pkt.priority = float(self.remaining_bytes)
        pkt.ecn_capable = False

    def on_ack_window_update(self, ack: Packet, newly_acked: bool) -> None:
        if newly_acked:
            self._consecutive_timeouts = 0
            self.probe_mode = False
            if self.cwnd < self._line_rate_cwnd:
                # Additive restoration toward line rate after a loss episode.
                self.cwnd = min(self._line_rate_cwnd,
                                self.cwnd + 1.0 / max(self.cwnd, 1.0))

    def on_fast_retransmit(self) -> None:
        # Drops of low-priority packets are business as usual in pFabric;
        # retransmit without touching the window.
        pass

    def on_timeout_window_update(self) -> None:
        self._consecutive_timeouts += 1
        if self._consecutive_timeouts >= PROBE_MODE_THRESHOLD:
            self.probe_mode = True
        if self._consecutive_timeouts >= PERSISTENCE_THRESHOLD:
            # Persistent loss: this flow is being starved by higher-priority
            # traffic; fall back to probing with a tiny window.
            self.cwnd = max(1.0, self.cwnd / 2)

    def handle_timeout(self) -> None:
        if not self.probe_mode:
            super().handle_timeout()
            return
        # Probe mode (pFabric §4.3): a chronically starved flow stops
        # retransmitting data and sends one header-only probe per RTO;
        # the first probe reply (or any ACK) drops it back to normal
        # operation.  The window hook runs here, as the base path runs it.
        self.on_timeout_window_update()
        self._send_probe()
        self._rearm_rto()

    def handle_special_ack(self, ack: Packet) -> bool:
        if ack.ack_sacks == -1:
            # Probe reply for un-received data: leave probe mode and let the
            # normal timeout path retransmit.
            self.probe_mode = False
            self._consecutive_timeouts = 0
            self._presume_inflight_lost()
            self._rearm_rto()
            self.send_window()
            return True
        return False
