"""Lossy queue wrapper: inject modeled loss in front of any discipline.

The :class:`~repro.faults.injector.FaultInjector` wraps a link's queue in
one for a :class:`~repro.faults.schedule.DataLoss` window.  Data packets
are dropped per the attached :class:`~repro.faults.models.LossModel`;
ACKs and probes pass through so control loops limp along — the harder
case for loss recovery.

Counters delegate to the wrapped queue, so a link whose queue is wrapped
mid-run (and later unwrapped) presents one continuous set of drop/mark
counters to :class:`~repro.sim.network.Network` accounting.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.models import LossModel
from repro.sim.packet import Packet
from repro.sim.queues import QueueDiscipline


class LossyQueue(QueueDiscipline):
    """Wraps another discipline and drops data packets per a loss model."""

    def __init__(self, inner: QueueDiscipline, model: LossModel) -> None:
        # No super().__init__(): drop/mark counters are properties that
        # delegate to ``inner`` so wrapping is invisible to accounting.
        self.inner = inner
        self.model = model
        #: Drops injected by the loss model (also counted in ``drops``).
        self.injected_drops = 0

    def enqueue(self, pkt: Packet) -> bool:
        if pkt.kind == 0 and self.model.drop():  # PacketKind.DATA
            self.injected_drops += 1
            self.inner.drops += 1
            self.inner.drop_bytes += pkt.size
            hook = self.inner.drop_hook
            if hook is not None:
                hook(pkt, "injected-loss")
            return False
        return self.inner.enqueue(pkt)

    def dequeue(self) -> Optional[Packet]:
        return self.inner.dequeue()

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def byte_depth(self) -> int:
        return self.inner.byte_depth

    # -- counter delegation (one merged view with the wrapped queue) -------
    @property
    def drop_hook(self):
        return self.inner.drop_hook

    @drop_hook.setter
    def drop_hook(self, hook) -> None:
        # A link constructed directly on a LossyQueue installs its trace
        # hook through the wrapper onto the inner queue, so wrap/unwrap
        # mid-run never loses instrumentation.
        self.inner.drop_hook = hook

    @property
    def drops(self) -> int:
        return self.inner.drops

    @property
    def drop_bytes(self) -> int:
        return self.inner.drop_bytes

    @property
    def marks(self) -> int:
        return self.inner.marks

    @property
    def enqueued_total(self) -> int:
        return self.inner.enqueued_total

