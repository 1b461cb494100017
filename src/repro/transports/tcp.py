"""Plain TCP (Reno-style) sender.

Not evaluated in the paper's figures but included as the simplest
self-adjusting endpoint: slow start, AIMD, fast retransmit, RTO.  The base
:class:`~repro.transports.base.SenderAgent` already implements exactly these
defaults, so this is a named alias that switches ECN off.
It doubles as the reference protocol in the simulator's own tests.
"""

from __future__ import annotations

from repro.transports.base import SenderAgent


class TcpSender(SenderAgent):
    """Reno semantics straight from the base class."""

    def decorate_packet(self, pkt) -> None:
        pkt.ecn_capable = False  # classic TCP ignores ECN
