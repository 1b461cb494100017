"""DCTCP (Alizadeh et al., SIGCOMM 2010).

The self-adjusting-endpoints baseline in the paper.  Senders estimate the
fraction of ECN-marked packets per window, smooth it into ``alpha``, and on
observing marks scale the window by ``(1 - alpha/2)`` once per window.
Switches mark when the instantaneous queue exceeds K
(:class:`repro.sim.queues.REDQueue`).

The alpha estimator lives in its own class (:class:`DctcpAlphaEstimator`)
because D2TCP, L2DCT, and PASE's end-host transport all reuse it.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.packet import Packet
from repro.transports.base import SenderAgent, TransportConfig

#: EWMA gain for the marked fraction (Table 3: g = 1/16).  PASE's end-host
#: transport uses it too.
DCTCP_G = 1 / 16


class DctcpAlphaEstimator:
    """Per-flow EWMA of the fraction of marked ACKs, updated once per window.

    ``observe(marked)`` is called per ACK; the estimate rolls over when a full
    window's worth of ACKs (``window_pkts`` at rollover time) has been seen.
    :meth:`DctcpSender.on_ack_window_update` runs the same update inline;
    ``tests/test_dctcp_family.py`` checks that the two agree step for step.
    """

    def __init__(self, g: float = DCTCP_G) -> None:
        self.g = g
        self.alpha = 0.0
        self._acked = 0
        self._marked = 0
        self._window_target = 1

    def begin_window(self, cwnd: float) -> None:
        self._window_target = max(1, int(cwnd))

    def observe(self, marked: bool, cwnd: float) -> bool:
        """Record one ACK.  Returns True when a window boundary was crossed
        and ``alpha`` was refreshed."""
        self._acked += 1
        if marked:
            self._marked += 1
        if self._acked < self._window_target:
            return False
        fraction = self._marked / self._acked
        self.alpha = (1 - self.g) * self.alpha + self.g * fraction
        self._acked = 0
        self._marked = 0
        self.begin_window(cwnd)
        return True


class DctcpSender(SenderAgent):
    """DCTCP congestion control on the shared reliable-sender chassis."""

    def __init__(self, sim, host, flow,
                 config: Optional[TransportConfig] = None, on_done=None):
        super().__init__(sim, host, flow, config, on_done)
        self.estimator = DctcpAlphaEstimator()
        self.estimator.begin_window(self.cwnd)
        #: Window may shrink at most once per RTT (per window of data).
        self._last_reduction_seq = -1

    @property
    def alpha(self) -> float:
        return self.estimator.alpha

    # -- hooks -----------------------------------------------------------
    def on_ack_window_update(self, ack: Packet, newly_acked: bool) -> None:
        if not newly_acked:
            return
        marked = ack.ecn_echo
        # self.estimator.observe(marked, self.cwnd), inline: this runs on
        # every newly acking ACK of the DCTCP family and PASE.
        est = self.estimator
        est._acked += 1
        if marked:
            est._marked += 1
        if est._acked >= est._window_target:
            fraction = est._marked / est._acked
            est.alpha = (1 - est.g) * est.alpha + est.g * fraction
            est._acked = 0
            est._marked = 0
            est._window_target = max(1, int(self.cwnd))
        # One multiplicative decrease per window of data.
        if marked and self.cum_ack > self._last_reduction_seq:
            self._last_reduction_seq = self.next_new
            self._apply_mark_reduction()
        else:
            self._increase_window()

    def _apply_mark_reduction(self) -> None:
        self.cwnd = max(1.0, self.cwnd * (1 - self.backoff_factor() / 2))
        self.ssthresh = max(self.cwnd, 2.0)

    # -- subclass surface (D2TCP / L2DCT override this and increase_gain) --
    def backoff_factor(self) -> float:
        """Multiplied by 1/2 on a marked window: DCTCP uses plain alpha."""
        return self.estimator.alpha
