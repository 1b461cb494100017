"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.3, fired.append, "c")
    sim.schedule(0.1, fired.append, "a")
    sim.schedule(0.2, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(0.5, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_now_tracks_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(0.25, lambda: seen.append(sim.now))
    sim.schedule(0.75, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [0.25, 0.75]


def test_zero_delay_runs_after_current_instant_fifo():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.0, fired.append, "inner")

    sim.schedule(0.1, outer)
    sim.schedule(0.1, fired.append, "sibling")
    sim.run()
    assert fired == ["outer", "sibling", "inner"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.post(0.1, fired.append, "x")
    sim.cancel(handle)
    sim.run()
    assert fired == []
    assert sim.events_processed == 0


def test_cancel_one_of_many():
    sim = Simulator()
    fired = []
    sim.post(0.1, fired.append, "keep")
    drop = sim.post(0.2, fired.append, "drop")
    sim.post(0.3, fired.append, "keep too")
    sim.cancel(drop)
    sim.run()
    assert fired == ["keep", "keep too"]


def test_run_until_stops_at_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(0.1, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=1.0)
    assert fired == ["early"]
    assert sim.now == 1.0  # clock advanced to the horizon
    sim.run(until=10.0)
    assert fired == ["early", "late"]


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(0.1 * (i + 1), fired.append, i)
    processed = sim.run(max_events=3)
    assert processed == 3
    assert fired == [0, 1, 2]


def test_stop_inside_callback():
    sim = Simulator()
    fired = []

    def stopper():
        fired.append(2)
        sim.stop()

    sim.schedule(0.1, fired.append, 1)
    sim.schedule(0.2, stopper)
    sim.schedule(0.3, fired.append, 3)
    sim.run()
    assert fired == [1, 2]


def test_events_processed_accumulates_across_runs():
    sim = Simulator()
    sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    sim.run(until=0.15)
    assert sim.events_processed == 1
    sim.run()
    assert sim.events_processed == 2


def test_peek_time_skips_cancelled():
    sim = Simulator()
    first = sim.post(0.1, lambda: None)
    sim.post(0.2, lambda: None)
    sim.cancel(first)
    assert sim.peek_time() == 0.2


def test_peek_time_empty_heap():
    sim = Simulator()
    assert sim.peek_time() is None


def test_callbacks_can_schedule_recursively():
    sim = Simulator()
    ticks = []

    def tick(n):
        ticks.append(sim.now)
        if n > 0:
            sim.schedule(1.0, tick, n - 1)

    sim.schedule(0.0, tick, 4)
    sim.run()
    assert ticks == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_determinism_same_schedule_same_order():
    def run_once():
        sim = Simulator()
        out = []
        delays = [0.5, 0.1, 0.5, 0.3, 0.1]
        for i, d in enumerate(delays):
            sim.schedule(d, out.append, i)
        sim.run()
        return out

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# post() / post_at() and their handles
# ---------------------------------------------------------------------------

def test_schedule_names_are_post():
    assert Simulator.schedule is Simulator.post
    assert Simulator.schedule_at is Simulator.post_at

def test_post_fires_like_schedule():
    sim = Simulator()
    fired = []
    sim.post(0.2, fired.append, "b")
    sim.post(0.1, fired.append, "a")
    sim.post_at(0.3, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.events_processed == 3


def test_post_returns_cancellable_handle():
    sim = Simulator()
    fired = []
    sim.cancel(sim.post(0.1, fired.append, "post"))
    sim.cancel(sim.post_at(0.2, fired.append, "post_at"))
    sim.post(0.3, fired.append, "kept")
    sim.run()
    assert fired == ["kept"]


def test_post_rejects_past_times():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.post(-0.1, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.post_at(0.5, lambda: None)


def test_post_and_schedule_share_tiebreak_order():
    """Mixing the two names at one timestamp fires in call order: schedule()
    is post() under its older name, drawing from the same sequence
    counter."""
    sim = Simulator()
    fired = []
    sim.schedule(0.5, fired.append, "s1")
    sim.post(0.5, fired.append, "p1")
    sim.schedule(0.5, fired.append, "s2")
    sim.post(0.5, fired.append, "p2")
    sim.run()
    assert fired == ["s1", "p1", "s2", "p2"]


def test_stale_cancel_after_fire_cannot_kill_recycled_entry():
    """Heap entries are never pooled: cancelling a handle after its
    callback fired must not affect any later one (the lazy-cancel trap a
    shared free list would create)."""
    sim = Simulator()
    fired = []
    handle = sim.post(0.1, fired.append, "first")
    sim.run()
    assert fired == ["first"]
    # Recycle-heavy traffic after the fire...
    for _ in range(5):
        sim.post(0.1, fired.append, "posted")
    # ...then a stale cancel on the already-fired handle.
    sim.cancel(handle)
    sim.run()
    assert fired == ["first"] + ["posted"] * 5


def test_cancel_is_idempotent():
    sim = Simulator()
    fired = []
    handle = sim.post(0.1, fired.append, "x")
    sim.post(0.2, fired.append, "y")
    sim.cancel(handle)
    sim.cancel(handle)
    sim.run()
    assert fired == ["y"]
    assert sim.events_processed == 1


def test_run_until_with_post_only_heap():
    sim = Simulator()
    fired = []
    sim.post(0.1, fired.append, "early")
    sim.post(5.0, fired.append, "late")
    sim.run(until=1.0)
    assert fired == ["early"]
    assert sim.now == 1.0
    sim.run()
    assert fired == ["early", "late"]


def test_max_events_counts_fired_not_cancelled():
    sim = Simulator()
    fired = []
    sim.post(0.1, fired.append, 1)
    drop = sim.post(0.2, fired.append, 2)
    sim.post(0.3, fired.append, 3)
    sim.post(0.4, fired.append, 4)
    sim.cancel(drop)
    processed = sim.run(max_events=2)
    assert processed == 2
    assert fired == [1, 3]
    assert sim.now == 0.3


# ---------------------------------------------------------------------------
# Reserved slots: claim a sequence number now, post into it later
# ---------------------------------------------------------------------------

def _claim(sim):
    """Claim the next sequence number the way Link does."""
    sim.seq += 1
    return sim.seq


def _post_into(sim, slot, time, fn, *args):
    """Post into a claimed slot the way Link does: a plain post_at with
    the counter set back to the slot."""
    seq = sim.seq
    sim.seq = slot - 1
    sim.post_at(time, fn, *args)
    sim.seq = seq


def test_reserved_slot_fires_in_reservation_order():
    """A callback pushed late into a reserved slot fires after same-time
    callbacks posted before the reservation and before those posted after
    it, as if it had been posted when the slot was claimed."""
    sim = Simulator()
    fired = []
    sim.post_at(1.0, fired.append, "before")
    slot = _claim(sim)
    sim.post_at(1.0, fired.append, "after")
    sim.post_at(0.5, _post_into, sim, slot, 1.0, fired.append, "reserved")
    sim.run()
    assert fired == ["before", "reserved", "after"]


def test_is_next_orders_by_time_then_sequence():
    """is_next answers whether an entry at (time, seq) would be popped
    first; dead entries count, since the loop reaches them first."""
    sim = Simulator()
    assert sim.is_next(0.0, 1)
    slot = _claim(sim)
    later = sim.post_at(1.0, lambda: None)
    assert sim.is_next(1.0, slot)
    assert not sim.is_next(1.0, later[1] + 1)
    assert not sim.is_next(2.0, slot)
    assert sim.is_next(0.5, later[1] + 1)
    sim.cancel(later)
    assert not sim.is_next(1.0, later[1] + 1)
    # A placeholder orders by its heap key, not its pending one.
    timer = sim.post_at(0.2, lambda: None)
    sim.repost(timer, 0.3)
    assert not sim.is_next(0.25, slot)


def test_fired_seq_tracks_loop_position():
    sim = Simulator()
    seen = []
    sim.post(0.1, lambda: seen.append(sim.fired_seq))
    slot = _claim(sim)
    sim.post(0.1, lambda: (seen.append(sim.fired_seq), sim.stop()))
    sim.post(0.1, lambda: None)
    sim.run()
    # Stopped between the slot and the last callback: the slot is passed,
    # the pending callback is not.
    assert seen[0] < slot < seen[1] == sim.fired_seq
    sim.run()
    # Drained: every claimed number counts as passed.
    assert sim.fired_seq >= _claim(sim) - 1


def test_discard_pending_drops_every_callback():
    sim = Simulator()
    fired = []
    sim.post(0.1, fired.append, 1)
    sim.schedule(0.2, fired.append, 2)
    sim.run(until=0.05)
    sim.discard_pending()
    assert sim.pending_events == 0
    sim.run()
    assert fired == []


# ---------------------------------------------------------------------------
# Re-arming in place: repost()
# ---------------------------------------------------------------------------

def _rearm_trace(rearm):
    """Fire a timer re-armed at t=0.1 to t=0.5, among same-time posts made
    before and after the re-arm; ``rearm(sim, handle, delay)`` re-arms."""
    sim = Simulator()
    fired = []
    timer = sim.post(0.3, fired.append, "timer")
    sim.post(0.5, fired.append, "before")

    def at_tick():
        rearm(sim, timer, 0.4)
        sim.post(0.4, fired.append, "after")

    sim.post(0.1, at_tick)
    sim.run()
    return fired, sim.events_processed


def test_repost_fires_in_cancel_then_post_tie_order():
    def eager(sim, handle, delay):
        fn, args = handle[2], handle[3]
        sim.cancel(handle)
        sim.post(delay, fn, *args)

    def in_place(sim, handle, delay):
        sim.repost(handle, delay)

    expected = _rearm_trace(eager)
    assert expected == (["before", "timer", "after"], 4)
    assert _rearm_trace(in_place) == expected


def test_repost_earlier_returns_new_handle_and_kills_old():
    sim = Simulator()
    fired = []
    old = sim.post(0.5, fired.append, "x")
    new = sim.repost(old, 0.2)
    assert new is not old
    sim.cancel(old)  # the old handle is dead: cancelling it changes nothing
    sim.run()
    assert fired == ["x"]
    assert sim.now == 0.2
    assert sim.events_processed == 1


def test_repost_earlier_then_cancel_new_handle_fires_nothing():
    sim = Simulator()
    fired = []
    new = sim.repost(sim.post(0.5, fired.append, "x"), 0.2)
    sim.cancel(new)
    sim.run()
    assert fired == []
    assert sim.events_processed == 0


def test_reposting_a_placeholder_twice_fires_once_at_last_time():
    sim = Simulator()
    seen = []
    handle = sim.post(0.1, lambda: seen.append(sim.now))
    assert sim.repost(handle, 0.2) is handle
    assert sim.repost(handle, 0.4) is handle
    assert sim.pending_events == 1
    sim.run()
    assert seen == [0.4]
    assert sim.events_processed == 1


def test_reposting_a_placeholder_earlier_fires_once_at_last_time():
    sim = Simulator()
    seen = []
    handle = sim.post(0.2, lambda: seen.append(sim.now))
    handle = sim.repost(handle, 0.5)
    handle = sim.repost(handle, 0.3)
    sim.run()
    assert seen == [0.3]
    assert sim.events_processed == 1


def test_cancel_of_placeholder_fires_nothing():
    sim = Simulator()
    fired = []
    handle = sim.repost(sim.post(0.1, fired.append, "x"), 0.3)
    sim.cancel(handle)
    sim.run()
    assert fired == []
    assert sim.events_processed == 0
    assert sim.pending_events == 0
    with pytest.raises(ValueError):
        sim.repost(handle, 0.1)


def test_peek_time_reports_placeholder_time_and_keeps_it():
    sim = Simulator()
    fired = []
    sim.repost(sim.post(0.1, fired.append, "x"), 0.3)
    assert sim.peek_time() == 0.3
    assert sim.peek_time() == 0.3
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["x"]
    assert sim.now == 0.3


def test_placeholder_pops_are_not_counted_as_events():
    sim = Simulator()
    fired = []
    sim.repost(sim.post(0.1, fired.append, "timer"), 0.6)
    sim.post(0.2, fired.append, 1)
    sim.post(0.3, fired.append, 2)
    sim.post(0.7, fired.append, 3)
    processed = sim.run(max_events=2)
    assert processed == 2
    assert fired == [1, 2]
    assert sim.events_processed == 2
    assert sim.now == 0.3
    sim.run()
    assert fired == [1, 2, "timer", 3]
    assert sim.events_processed == 4


def test_run_until_leaves_placeholder_pending_for_next_run():
    sim = Simulator()
    seen = []
    sim.repost(sim.post(0.1, lambda: seen.append(sim.now)), 2.0)
    sim.run(until=1.0)
    assert seen == []
    assert sim.now == 1.0
    assert sim.pending_events == 1
    assert sim.events_processed == 0
    sim.run()
    assert seen == [2.0]


def test_repost_from_inside_callback_tracks_current_time():
    sim = Simulator()
    seen = []
    timer = sim.post(0.5, lambda: seen.append(sim.now))

    def push_back():
        sim.repost(timer, 0.5)

    sim.post(0.2, push_back)
    sim.run()
    assert seen == [0.7]


def test_repost_negative_delay_rejected():
    sim = Simulator()
    handle = sim.post(0.1, lambda: None)
    with pytest.raises(ValueError):
        sim.repost(handle, -0.1)
    sim.run()
    assert sim.events_processed == 1
