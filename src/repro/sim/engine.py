"""Discrete-event simulation engine.

A minimal, fast event loop.  Heap entries are plain lists
``[time, seq, fn, args]`` so ``heapq`` orders them with C-level
``(time, seq)`` tuple comparisons — no Python ``__lt__`` call per sift step.
The sequence number breaks ties deterministically so runs with the same
seed replay identically, which the test suite relies on.

:meth:`Simulator.post` / :meth:`Simulator.post_at` schedule a callback,
push a fresh entry and return it as an opaque handle.  Most callers drop
it (packet deliveries, link wake-ups); timer owners keep it (retransmission
timers, arbitration ticks) and pass it to :meth:`Simulator.cancel`.
Cancellation is lazy: it nulls the entry's callback and the loop skips the
entry when popped, keeping heap operations O(log n) with no re-heapify.
An entry that has fired is never pushed again, so a cancel after the
callback fired touches only that spent entry: it is a no-op.

A timer that is pushed back on every ACK would otherwise leave one dead
entry per re-arm in the heap.  :meth:`Simulator.repost` keeps the pending
entry instead: when the new time is not earlier, the entry stays in the
heap under its old key as a *placeholder* whose callback slot is nulled
and whose args slot holds the pending ``[time, seq, fn, args]``.  When the
loop reaches the old key it re-keys the same entry and pushes it back,
without firing or counting anything, so each re-armed timer owns one heap
entry.  An earlier time cancels the entry and pushes a fresh one.

A component that may or may not need a callback at a known future time
can claim its tie-break slot now and decide later.  :attr:`Simulator.seq`
is the last sequence number drawn; claiming a slot is drawing the next
one without scheduling anything (``sim.seq += 1``).  To push a callback
into a claimed ``slot`` later, set ``seq`` to ``slot - 1``, call
:meth:`Simulator.post_at` and put ``seq`` back: the callback then fires
exactly where it would have fired had it been posted when the slot was
claimed, and the push is an ordinary ``post_at`` that any wrapper of the
scheduling methods sees.  Only :class:`~repro.sim.link.Link` claims
slots this way, for the serialization wake-up at the end of each frame.
Every other component draws its numbers through ``post``/``post_at``/
``repost``.

A claimed slot that is never posted is a harmless gap the loop never
fires.  :attr:`Simulator.fired_seq` tells whether the loop has passed
it, and :meth:`Simulator.is_next` whether an entry posted into it now
would be the very next one popped: nothing in the heap, live or dead,
orders before it.  The link asks the second question to start a frame
at once instead of posting a wake-up that would fire next anyway.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop
_heapreplace = heapq.heapreplace
_INF = float("inf")


def _skip(heap: List[list], entry: list) -> None:
    """Take the dead ``entry`` off the top of ``heap``: drop a cancelled
    one, or re-key a :meth:`Simulator.repost` placeholder at its pending
    ``[time, seq, fn, args]`` and push it back.  Nothing fires."""
    pending = entry[3]
    if pending:
        entry[0], entry[1], entry[2], entry[3] = pending
        _heapreplace(heap, entry)
    else:
        _heappop(heap)


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
        #: Last tie-break sequence number drawn.  ``post``/``post_at``/
        #: ``repost`` draw the next one; see the module docstring for the
        #: one component that claims slots by writing it directly.
        self.seq: int = 0
        #: Sequence number of the callback firing now (or fired last).
        #: Together with :attr:`now` it is the loop's position: a slot
        #: claimed at time ``now`` has been passed once this
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
        self.seq = seq = self.seq + 1
        entry = [self.now + delay, seq, fn, args]
        _heappush(self._heap, entry)
        return entry

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Handle:
        """Schedule ``fn(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time!r}, current time is {self.now!r}"
            )
        self.seq = seq = self.seq + 1
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
        Safe to call more than once, and after the callback has fired.
        A placeholder left by :meth:`repost` becomes a plain cancelled
        entry."""
        handle[2] = None
        handle[3] = ()

    def repost(self, handle: Handle, delay: float) -> Handle:
        """Move the pending callback behind ``handle`` to ``delay`` seconds
        from now; return the handle to keep.

        Same as ``cancel(handle)`` followed by ``post(delay, fn, *args)``
        with the handle's own callback and arguments: the sequence number
        is drawn here, so ties order exactly as they would after a fresh
        post.  A later (or equal) time keeps the entry as a placeholder and
        returns ``handle``; an earlier one cancels it and returns a new
        handle.  The stored callback is reused as is, so a wrapper of
        :meth:`post` sees each callback once.

        Only for a handle that is still pending: one that has fired or was
        cancelled has no heap entry left to carry the callback.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        self.seq = seq = self.seq + 1
        time = self.now + delay
        fn, args = handle[2], handle[3]
        if fn is None:  # already a placeholder: args holds the pending entry
            if not args:
                raise ValueError("cannot repost a cancelled handle")
            fn, args = args[2], args[3]
        handle[2] = None
        if time >= handle[0]:
            handle[3] = [time, seq, fn, args]
            return handle
        handle[3] = ()
        entry = [time, seq, fn, args]
        _heappush(self._heap, entry)
        return entry

    # ------------------------------------------------------------------
    # Claimed slots (decide now, post later)
    # ------------------------------------------------------------------
    def is_next(self, time: float, seq: int) -> bool:
        """True when an entry keyed ``(time, seq)`` would be the next one
        the loop pops: no heap entry, live or dead, orders before it.
        Dead entries count because the loop would reach them first; a
        placeholder's pending key never orders before its heap key, so
        checking the top suffices."""
        heap = self._heap
        if not heap:
            return True
        top = heap[0]
        return top[0] > time or (top[0] == time and top[1] > seq)

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
                    self.fired_seq = self.seq
                    break
                fn = entry[2]
                if fn is None:
                    _skip(heap, entry)
                    continue
                heappop(heap)
                self.now = entry[0]
                self.fired_seq = entry[1]
                fn(*entry[3])
                processed += 1
                if processed == budget:
                    break
            else:
                self.fired_seq = self.seq
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
        """Number of entries in the heap: live callbacks, one placeholder
        per timer re-armed by :meth:`repost`, and cancelled entries not
        yet popped."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Total events fired over the simulator's lifetime."""
        return self._events_processed

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if the heap is
        empty.  Drops cancelled entries and re-keys placeholders on the
        way, as the loop would, without firing anything."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is not None:
                return entry[0]
            _skip(heap, entry)
        return None
