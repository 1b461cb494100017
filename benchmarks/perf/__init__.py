"""Performance microbenchmark suite for the simulation core.

Five layers, each isolating one slice of the stack:

* :mod:`benchmarks.perf.bench_engine` — the bare event loop
  (events/second, no network machinery at all),
* :mod:`benchmarks.perf.bench_arbitration` — the PASE control plane
  (arbitrations/second on one link arbitrator at 10²–10⁴ flows, plus a
  control-plane-heavy full-stack point),
* :mod:`benchmarks.perf.bench_switch` — the fabric datapath
  (packets/second through a loaded switch, no transports),
* :mod:`benchmarks.perf.bench_link` — the per-hop frame-end path
  (packets/second for back-to-back trains through a chain of equal-rate
  switches),
* :mod:`benchmarks.perf.bench_transport` — the end-host transport
  chassis (ACK-clocked packets/second for one DCTCP pair through one
  switch) and a full-stack PASE incast (events/second).

``python -m benchmarks.perf`` runs all five and writes ``BENCH_sim.json``
at the repository root; see EXPERIMENTS.md for the schema (bench_sim/v4).
The end-to-end figure sweep is timed by ``sweepbench/``.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List


class BestOf(float):
    """A leg's gated value, the best of its repeats, which it carries in
    ``repeats`` so the report can show their spread."""

    repeats: List[float]

    def spread(self) -> Dict[str, object]:
        return {"repeats": self.repeats, "min": min(self.repeats),
                "median": statistics.median(self.repeats),
                "max": max(self.repeats)}


def best_of(fn: Callable[[], float], repeats: int = 3) -> BestOf:
    """Run a throughput measurement ``repeats`` times, keep the best.

    Microbenchmarks on shared machines are noisy in one direction only
    (interference slows them down), so max is the low-variance estimator.
    """
    samples = [fn() for _ in range(repeats)]
    best = BestOf(max(samples))
    best.repeats = samples
    return best


def timed(fn: Callable[[], int]) -> float:
    """Call ``fn`` (which returns an operation count) and return ops/sec."""
    t0 = time.perf_counter()
    ops = fn()
    return ops / (time.perf_counter() - t0)


#: Pre-optimization engine throughput, measured on this suite's own spin /
#: churn workloads at the seed commit (before list-entry heap records,
#: pooled ``post()`` entries, and the tightened run loop).  BENCH_sim.json
#: embeds these so every report carries its own point of comparison.
BASELINE_EVENTS_PER_SEC: Dict[str, float] = {
    "spin": 425_380.0,
    "churn": 224_787.0,
}

#: Pre-fast-path control-plane throughput, measured on the
#: :mod:`benchmarks.perf.bench_arbitration` workloads at the PR 4 commit
#: (O(F log F) sort-per-``_decide``, count-returning ``expire``), same
#: machine discipline as the engine baselines.  Keys match the metric names
#: in the arbitration results block minus the rate suffix.
BASELINE_ARBITRATIONS_PER_SEC: Dict[str, float] = {
    "churn_100": 47_235.0,
    "churn_1000": 7_409.0,
    "churn_10000": 783.0,
    "parked_1000": 8_249.0,
    "aggregate_top1_1000": 6_408.0,
}
