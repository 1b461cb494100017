"""L2DCT (Munir et al., INFOCOM 2013): size-aware DCTCP.

L2DCT approximates least-attained-service scheduling with endpoint control
laws alone: a flow's additive-increase gain shrinks and its multiplicative
backoff grows as the flow sends more data, so short flows ramp fast and long
flows yield.  Following the L2DCT paper, the weight ``w_c`` decays from
``W_MAX`` to ``W_MIN`` as attained service grows from ``RAMP_LOW_BYTES`` to
``RAMP_HIGH_BYTES`` (we interpolate in log-space over that band, matching the
bucketed weights in the original):

* increase: ``cwnd += w_c / cwnd`` per ACK (i.e. ``w_c`` MSS per RTT),
* decrease: ``cwnd *= 1 - (alpha/2) * (W_MAX / (w_c + W_MAX))`` — long flows
  (small ``w_c``) back off by up to ``alpha/2 * 1``, short flows by roughly
  half that, preserving L2DCT's size-differentiated penalty ordering.
"""

from __future__ import annotations

import math

from repro.transports.dctcp import DctcpSender
from repro.utils.units import KB, MB

#: Weight band, per the L2DCT paper (Table 3's minRTO = 10 ms is the
#: shared default).
W_MAX = 2.5
W_MIN = 0.125
#: Attained service over which the weight decays from W_MAX to W_MIN.
RAMP_LOW_BYTES = 10 * KB
RAMP_HIGH_BYTES = 1 * MB


class L2dctSender(DctcpSender):
    """DCTCP with attained-service-dependent gains."""

    @property
    def attained_bytes(self) -> int:
        """Bytes successfully delivered so far (the LAS scheduling key)."""
        return self.pkts_acked * self.mtu

    def weight(self) -> float:
        """Current flow weight ``w_c`` (log-interpolated between buckets)."""
        sent = self.attained_bytes
        if sent <= RAMP_LOW_BYTES:
            return W_MAX
        if sent >= RAMP_HIGH_BYTES:
            return W_MIN
        span = math.log(RAMP_HIGH_BYTES / RAMP_LOW_BYTES)
        progress = math.log(sent / RAMP_LOW_BYTES) / span
        return W_MAX - progress * (W_MAX - W_MIN)

    def increase_gain(self) -> float:
        return self.weight()

    def backoff_factor(self) -> float:
        alpha = self.estimator.alpha
        # size_penalty spans [0.5, ~0.95]: short flows (w_c = W_MAX) halve
        # the DCTCP penalty, long flows (w_c = W_MIN) take nearly all of it.
        size_penalty = W_MAX / (self.weight() + W_MAX)
        return alpha * size_penalty
