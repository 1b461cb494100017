"""Bare event-loop throughput: events/second with no network machinery.

Three workload shapes, all scheduled with :meth:`~repro.sim.engine.Simulator.post`:

* ``spin`` — one event in flight at a time (heap depth 1): measures
  per-event fixed cost with no sift work.
* ``churn`` — a steady-state heap of ~2000 pending timers with randomized
  deadlines: adds the ``O(log n)`` heap maintenance that dominates
  congested-fabric runs.
* ``rearm`` — ACK-clocked senders: each tick pushes its sender's
  retransmission timer later with :meth:`~repro.sim.engine.Simulator.repost`,
  so the heap holds one entry per timer instead of one per re-arm.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.sim.engine import Simulator

from benchmarks.perf import best_of


def spin_events_per_sec(count: int = 200_000) -> float:
    """A single self-rescheduling tick chain, ``count`` events long."""
    sim = Simulator()
    emit = sim.post

    def tick(n: int) -> None:
        if n > 0:
            emit(1e-6, tick, n - 1)

    emit(0.0, tick, count)
    t0 = time.perf_counter()
    processed = sim.run()
    return processed / (time.perf_counter() - t0)


def churn_events_per_sec(count: int = 50_000, width: int = 2_000) -> float:
    """``width`` self-rescheduling callbacks with seeded-random deadlines
    (steady heap depth = ``width``), capped at ``count`` fired events.
    This is byte-for-byte the workload the pre-optimization baseline in
    :data:`benchmarks.perf.BASELINE_EVENTS_PER_SEC` was measured on."""
    import random

    sim = Simulator()
    emit = sim.post
    rng = random.Random(7)

    def cb() -> None:
        emit(rng.random() * 1e-3, cb)

    for _ in range(width):
        emit(rng.random() * 1e-3, cb)
    t0 = time.perf_counter()
    processed = sim.run(max_events=count)
    return processed / (time.perf_counter() - t0)


def rearm_events_per_sec(count: int = 50_000, width: int = 500) -> float:
    """``width`` senders, each ticking at seeded-random gaps (the ACK
    clock) and pushing its own timer 1 ms past every tick, as a sender
    re-arms its RTO per ACK.  Timers are reached and re-keyed about once
    per 20 ticks but never fire; capped at ``count`` fired ticks."""
    import random

    sim = Simulator()
    emit = sim.post
    repost = sim.repost
    rng = random.Random(7)
    timers = []

    def expire() -> None:
        pass

    def tick(i: int) -> None:
        timers[i] = repost(timers[i], 1e-3)
        emit(rng.random() * 1e-4, tick, i)

    for i in range(width):
        timers.append(emit(1e-3, expire))
        emit(rng.random() * 1e-4, tick, i)
    t0 = time.perf_counter()
    processed = sim.run(max_events=count)
    return processed / (time.perf_counter() - t0)


def run(scale: str = "full", repeats: int = 3) -> Dict[str, float]:
    """All engine measurements as a flat ``{metric: events_per_sec}``."""
    n_spin = 200_000 if scale == "full" else 40_000
    n_churn = 50_000 if scale == "full" else 15_000
    n_rearm = 100_000 if scale == "full" else 30_000
    return {
        "spin_post_events_per_sec": best_of(
            lambda: spin_events_per_sec(n_spin), repeats),
        "churn_post_events_per_sec": best_of(
            lambda: churn_events_per_sec(n_churn), repeats),
        "rearm_post_events_per_sec": best_of(
            lambda: rearm_events_per_sec(n_rearm), repeats),
    }
