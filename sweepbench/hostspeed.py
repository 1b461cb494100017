"""Host-speed reference for scaling host times.

On a shared host the same sweep runs at very different speeds over time:
CPU time tracks wall time, so the process is not waiting, the host is
running slower, and slow phases last minutes.  A fixed pure-Python loop
run between timed sections slows down with them.  Each timed section is
therefore scaled by ``REFERENCE_S / t_ref``, where ``t_ref`` is the mean
time of the reference loops run just before and just after it.  Scaled
times read as host seconds at the speed where the loop takes
``REFERENCE_S``.

The loop is an event loop in miniature (a heap of timestamped entries,
objects with slots, bound-method calls, tuple compares), so it exercises
the interpreter the way the simulator does, and it uses no code of the
program under test: a change to the program moves scaled times, a slow
host does not.
"""

from __future__ import annotations

import heapq
import itertools
import time

#: Host seconds the reference loop takes at the nominal host speed.  It
#: sets the scale of every scaled time, so it never changes.
REFERENCE_S = 0.125
_ROUNDS = 100_000


class _Hop:
    __slots__ = ("peers", "hits")

    def __init__(self) -> None:
        self.peers: list = []
        self.hits = 0

    def receive(self, when: int, seq: int, heap: list, counter) -> None:
        self.hits += 1
        if seq % 3 == 0:
            heapq.heappush(heap, (when + 1, next(counter),
                                  self.peers[(seq >> 2) % 3]))


def reference_s() -> float:
    """Host seconds of one run of the fixed reference loop."""
    hops = [_Hop() for _ in range(32)]
    for i, hop in enumerate(hops):
        hop.peers = [hops[(5 * i + k) % 32] for k in range(3)]
    counter = itertools.count()
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    start = time.perf_counter()
    for i in range(_ROUNDS):
        push(heap, (i % 97, next(counter), hops[i % 32]))
        while len(heap) > 256:  # bounded, so the loop adds no memory
            when, seq, hop = pop(heap)
            hop.receive(when, seq, heap, counter)
    return time.perf_counter() - start


class HostSpeed:
    """Scale factors for consecutive timed sections.

    Construct it right before the first section and call :meth:`scale`
    right after each one; it runs the reference loop each time.
    """

    def __init__(self) -> None:
        self._before = reference_s()

    def scale(self) -> float:
        """Factor for the section that just ended."""
        after = reference_s()
        factor = REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return factor
