"""Discrete-event simulation engine.

A minimal, fast event loop.  Heap entries are plain lists
``[time, seq, fn, args]`` so ``heapq`` orders them with C-level
``(time, seq)`` tuple comparisons — no Python ``__lt__`` call per sift step.
The sequence number breaks ties deterministically so runs with the same
seed replay identically, which the test suite relies on.  Every call
pushes a fresh entry; the loop never reuses one.

:meth:`Simulator.post` / :meth:`Simulator.post_at` schedule a callback and
return an opaque handle.  Most callers drop it (packet deliveries, link
wake-ups); timer owners keep it (retransmission timers, arbitration ticks)
and pass it to :meth:`Simulator.cancel`.  Cancellation is lazy: it nulls
the entry's callback and the loop skips the entry when popped, keeping
heap operations O(log n) with no re-heapify.  Because entries are never
reused, a cancel after the callback fired touches only that spent entry,
so it is a no-op.

A component that may or may not need a callback at a known future time
can claim its tie-break slot now and decide later:
:meth:`Simulator.reserve_seq` takes the next sequence number without
scheduling anything, and :meth:`Simulator.post_at_reserved` pushes a
callback in that slot.  The callback then fires exactly where it would
have fired had it been posted at reservation time.  Links use this to
skip serialization wake-ups that would find their queue empty.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")


#: What :meth:`Simulator.post` returns: pass it to :meth:`Simulator.cancel`.
#: Only this module looks inside.
Handle = list


class Simulator:
    """The event loop.

    Usage::

        sim = Simulator()
        sim.post(0.001, my_callback, arg1, arg2)
        sim.run(until=1.0)

    All model components hold a reference to the one ``Simulator`` instance
    and read the current virtual time from :attr:`now`.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[list] = []
        self._seq: int = 0
        #: Sequence number of the callback firing now (or fired last).
        #: Together with :attr:`now` it is the loop's position: a slot from
        #: :meth:`reserve_seq` at time ``now`` has been passed once this
        #: exceeds it.  Set past every claimed number when the loop runs
        #: out of events or reaches its horizon.
        self.fired_seq: int = 0
        self._events_processed: int = 0
        self._running: bool = False
        self._stopped: bool = False
        #: Optional :class:`repro.sim.trace.Tracer`; instrumented components
        #: record drops/timeouts/queue-changes here when one is attached.
        self.tracer = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> Handle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback after
        all events already scheduled for the current instant (FIFO within a
        timestamp).  Returns a handle for :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        self._seq = seq = self._seq + 1
        entry = [self.now + delay, seq, fn, args]
        _heappush(self._heap, entry)
        return entry

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Handle:
        """Schedule ``fn(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time!r}, current time is {self.now!r}"
            )
        self._seq = seq = self._seq + 1
        entry = [time, seq, fn, args]
        _heappush(self._heap, entry)
        return entry

    # The older names, bound to the same function objects: the benchmark's
    # census (sweepbench/census.py) reads all four from Simulator.__dict__.
    schedule = post
    schedule_at = post_at

    @staticmethod
    def cancel(handle: Handle) -> None:
        """Discard the callback behind ``handle`` instead of firing it.
        Safe to call more than once, and after the callback has fired."""
        handle[2] = None
        handle[3] = ()

    # ------------------------------------------------------------------
    # Reserved slots (decide now, post later)
    # ------------------------------------------------------------------
    def reserve_seq(self) -> int:
        """Claim the next tie-break sequence number without scheduling
        anything.  Pass it to :meth:`post_at_reserved` later, or drop it:
        an unused number leaves a harmless gap in the sequence."""
        self._seq = seq = self._seq + 1
        return seq

    def post_at_reserved(self, seq: int, time: float,
                         fn: Callable[..., Any], *args: Any) -> None:
        """:meth:`post_at` in a slot claimed earlier by :meth:`reserve_seq`.

        Among callbacks at ``time`` it fires after those posted before the
        reservation and before those posted after it.  The push goes
        through the public :meth:`post_at`, so anything wrapping the
        scheduling methods sees it like any other post."""
        saved = self._seq
        self._seq = seq - 1
        try:
            self.post_at(time, fn, *args)
        finally:
            self._seq = saved

    def discard_pending(self) -> None:
        """Drop every pending callback.  Call it when a run is over:
        callbacks still queued past the horizon (background flows, timers)
        otherwise keep their packets and agents alive for as long as the
        simulator is referenced."""
        self._heap.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the heap drains, ``until`` is reached, or ``max_events``
        events have fired.  Returns the number of events processed by this
        call."""
        processed = 0
        self._running = True
        self._stopped = False
        heap = self._heap
        heappop = _heappop
        # Sentinel bounds keep the hot loop to two C-level compares instead
        # of ``is not None`` tests on every iteration.
        bound = _INF if until is None else until
        budget = -1 if max_events is None else max_events
        try:
            while heap:
                if self._stopped:
                    break
                entry = heap[0]
                if entry[0] > bound:
                    # Advance the clock to the horizon so repeated run() calls
                    # observe monotonic time.
                    self.now = until
                    self.fired_seq = self._seq
                    break
                heappop(heap)
                fn = entry[2]
                if fn is None:
                    continue
                self.now = entry[0]
                self.fired_seq = entry[1]
                fn(*entry[3])
                processed += 1
                if processed == budget:
                    break
            else:
                self.fired_seq = self._seq
        finally:
            self._running = False
            self._events_processed += processed
        return processed

    def stop(self) -> None:
        """Request the current :meth:`run` call to return after the event in
        flight completes."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones that
        have not yet been popped)."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Total events fired over the simulator's lifetime."""
        return self._events_processed

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if the heap is
        empty.  Skips over cancelled events without firing anything."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
