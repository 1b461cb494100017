"""Figure 12a — end-to-end vs local-only arbitration (left-right).

Paper: arbitrating only the access links cannot account for contention at
the oversubscribed fabric; end-to-end arbitration improves AFCT by up to
60%.

Our reproduction separates two regimes (see EXPERIMENTS.md):

* **shared port buffers** (one 500-packet buffer per port carved into
  classes — shared-memory switch semantics, arguably what Table 3's single
  qSize describes): local-only arbitration lets un-throttled flows overrun
  the fabric buffers, and its drops + conservative low-queue RTOs blow up
  the tail.  End-to-end arbitration prevents the overruns entirely — this
  is where the paper's gap reproduces.
* **per-class buffers** (each PRIO band its own RED queue, the Linux
  testbed stack): nothing overflows, ECN alone keeps the fabric civil, and
  the two modes tie on AFCT with end-to-end ahead only marginally.
"""

from benchmarks.bench_common import emit, run_once, sweep
from repro.core import PaseConfig
from repro.harness import ScenarioSpec, format_series_table

LOADS = (0.3, 0.5, 0.7, 0.9)


def _sweep(shared: bool):
    return sweep(("pase", "pase-local"), ScenarioSpec("left-right"), loads=LOADS,
                 num_flows=250,
                 pase_config=PaseConfig(shared_queue_capacity=shared))


def run_figure():
    shared = _sweep(shared=True)
    per_class = _sweep(shared=False)
    sections = []
    for label, results in (("shared 500-pkt port buffers", shared),
                           ("per-class buffers", per_class)):
        afct = {name: {l: r.afct * 1e3 for l, r in by_load.items()}
                for name, by_load in results.items()}
        tail = {name: {l: r.p99_fct * 1e3 for l, r in by_load.items()}
                for name, by_load in results.items()}
        sections.append(format_series_table(
            f"Figure 12a ({label}): AFCT (ms)", LOADS, afct, unit="ms"))
        sections.append(format_series_table(
            f"Figure 12a ({label}): 99th-pct FCT (ms)", LOADS, tail, unit="ms"))
    emit("fig12a_local_vs_e2e", "\n\n".join(sections))
    return shared, per_class


def test_fig12a_local_vs_e2e(benchmark):
    shared, per_class = run_once(benchmark, run_figure)
    # Shared buffers at high load: end-to-end arbitration prevents the
    # overruns local-only suffers — a decisive tail win (the AFCT stays
    # competitive; local's jump-start still helps its mean).
    assert shared["pase"][0.9].p99_fct < 0.7 * shared["pase-local"][0.9].p99_fct
    assert shared["pase"][0.9].afct < 1.25 * shared["pase-local"][0.9].afct
    assert shared["pase"][0.9].network.data_pkts_dropped <= \
        shared["pase-local"][0.9].network.data_pkts_dropped
    # Per-class buffers: the modes stay within 60% of each other on AFCT.
    assert per_class["pase"][0.9].afct < 1.6 * per_class["pase-local"][0.9].afct
