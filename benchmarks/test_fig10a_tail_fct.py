"""Figure 10a — 99th-percentile FCT vs load: PASE vs pFabric (left-right).

Paper: pFabric's tail is excellent up to ~50% load; beyond 60% its
persistent losses at the oversubscribed core inflate the 99th percentile
and PASE wins (by >85% at 90% load in the paper).
"""

from benchmarks.bench_common import PAPER_LOADS, emit, run_once, sweep
from repro.harness import ScenarioSpec, format_series_table, series_from_results


def run_figure():
    results = sweep(
        ("pase", "pfabric"),
        ScenarioSpec("left-right"),
        loads=PAPER_LOADS,
        num_flows=250,
    )
    series = series_from_results(results, "p99_fct", scale=1e3)
    emit("fig10a_tail_fct", format_series_table(
        "Figure 10a: 99th-percentile FCT (ms) — left-right inter-rack",
        PAPER_LOADS, series, unit="ms"))
    return series


def test_fig10a_tail_fct(benchmark):
    series = run_once(benchmark, run_figure)
    # pFabric owns the tail at low load; the gap must close as load grows
    # (the paper's crossover at >= 60% only partially reproduces here —
    # our ack-clocked pFabric rebuild avoids the persistent-loss regime on
    # this scenario; the full collapse shows under incast, Fig. 10c.  See
    # EXPERIMENTS.md.)
    ratio_low = series["pase"][0.1] / series["pfabric"][0.1]
    ratio_high = series["pase"][0.9] / series["pfabric"][0.9]
    assert ratio_high < ratio_low
    # And at 90% the two tails are within 25% of each other.
    assert series["pase"][0.9] < 1.25 * series["pfabric"][0.9]
