"""D2TCP (Vamanan et al., SIGCOMM 2012): deadline-aware DCTCP.

D2TCP modulates DCTCP's backoff by a *deadline imminence factor* ``d``:
the penalty applied on congestion is ``p = alpha ** d`` so that far-deadline
flows (``d < 1``) back off more than alpha would dictate and near-deadline
flows (``d > 1``) back off less.  ``d = Tc / D`` where ``Tc`` is the time the
flow needs to finish at its current rate and ``D`` is the time left until its
deadline, clamped to [``D_MIN``, ``D_MAX``] = [0.5, 2.0] per the D2TCP paper.  Deadline-less flows use
``d = 1`` and degenerate to DCTCP exactly.
"""

from __future__ import annotations

from repro.transports.dctcp import DctcpSender

#: Clamp on the deadline imminence factor ``d``.
D_MIN = 0.5
D_MAX = 2.0


class D2tcpSender(DctcpSender):
    """DCTCP with gamma-corrected (deadline-aware) backoff."""

    def deadline_imminence(self) -> float:
        """``d = Tc / D`` clamped to [D_MIN, D_MAX]; 1.0 without a deadline."""
        deadline_at = self.flow.absolute_deadline
        if deadline_at is None:
            return 1.0
        time_left = deadline_at - self.sim.now
        if time_left <= 0:
            return D_MAX  # deadline missed or imminent: most aggressive
        remaining_pkts = self.total_pkts - self.cum_ack
        rate_pkts = max(self.cwnd, 1.0) / max(self.srtt, 1e-9)
        time_needed = remaining_pkts / rate_pkts
        d = time_needed / time_left
        return min(D_MAX, max(D_MIN, d))

    def backoff_factor(self) -> float:
        """p = alpha ** d.  alpha in [0,1] so d > 1 shrinks the penalty."""
        alpha = self.estimator.alpha
        if alpha <= 0.0:
            return 0.0
        return alpha ** self.deadline_imminence()
