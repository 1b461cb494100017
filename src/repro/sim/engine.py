"""Discrete-event simulation engine.

A minimal, fast event loop.  Heap entries are plain lists
``[time, seq, fn, args]`` so ``heapq`` orders them with C-level
``(time, seq)`` tuple comparisons — no Python ``__lt__`` call per sift step.
The sequence number breaks ties deterministically so runs with the same
seed replay identically, which the test suite relies on.  Every call
pushes a fresh entry; the loop never reuses one.

Two scheduling APIs share one sequence counter (so mixing them never
perturbs tie-break order):

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`Event` handle the caller can cancel later (retransmission
  timers, arbitration ticks).  Cancellation is lazy: cancelling nulls the
  entry's callback and the loop skips it when popped, keeping heap
  operations O(log n) with no re-heapify.  A ``cancel()`` after the event
  fired only touches that spent entry, so it is a no-op.
* :meth:`Simulator.post` / :meth:`Simulator.post_at` return nothing.  Use
  them for the torrent of fire-and-forget events (link serialization
  wake-ups, packet deliveries), where a handle per event is wasted work.

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


class Event:
    """Handle for a scheduled callback.  Returned by
    :meth:`Simulator.schedule` so the caller can cancel it later (e.g. a
    retransmission timer)."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def seq(self) -> int:
        return self._entry[1]

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    def cancel(self) -> None:
        """Mark the event so the loop discards it instead of firing it.
        Safe to call more than once, and after the event has fired."""
        entry = self._entry
        entry[2] = None
        entry[3] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fn = self._entry[2]
        state = "cancelled" if fn is None else "pending"
        return (f"Event(t={self._entry[0]:.9f}, "
                f"fn={getattr(fn, '__name__', fn)}, {state})")


_new_event = Event.__new__


class Simulator:
    """The event loop.

    Usage::

        sim = Simulator()
        sim.schedule(0.001, my_callback, arg1, arg2)
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
    # Scheduling (cancellable handles)
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback after
        all events already scheduled for the current instant (FIFO within a
        timestamp).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        self._seq = seq = self._seq + 1
        entry = [self.now + delay, seq, fn, args]
        _heappush(self._heap, entry)
        # Event.__new__ + direct slot store skips the __init__ dispatch;
        # this path allocates one handle per call so every cycle counts.
        event = _new_event(Event)
        event._entry = entry
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time!r}, current time is {self.now!r}"
            )
        self._seq = seq = self._seq + 1
        entry = [time, seq, fn, args]
        _heappush(self._heap, entry)
        event = _new_event(Event)
        event._entry = entry
        return event

    # ------------------------------------------------------------------
    # Posting (fire-and-forget, no handle)
    # ------------------------------------------------------------------
    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Like :meth:`schedule`, but returns no handle.  Use for high-rate
        events that are never cancelled (packet deliveries, serialization
        wake-ups)."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        self._seq = seq = self._seq + 1
        _heappush(self._heap, [self.now + delay, seq, fn, args])

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Absolute-time :meth:`post`."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time!r}, current time is {self.now!r}"
            )
        self._seq = seq = self._seq + 1
        _heappush(self._heap, [time, seq, fn, args])

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

    def cancel_posted(self, *args: Any) -> bool:
        """Cancel the pending callback whose arguments are exactly ``args``
        (compared by identity).  Returns whether one was found.

        Posted callbacks have no handle, so this scans the whole heap: a
        cold-path tool (a link going down mid-frame), never a hot one."""
        n = len(args)
        for entry in self._heap:
            pending = entry[3]
            if (entry[2] is not None and len(pending) == n
                    and all(a is b for a, b in zip(pending, args))):
                entry[2] = None
                entry[3] = ()
                return True
        return False

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
