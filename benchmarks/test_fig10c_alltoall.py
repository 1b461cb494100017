"""Figure 10c — AFCT vs load, all-to-all intra-rack: PASE vs pFabric.

Paper: under the search-style worker/aggregator incast, pFabric's line-rate
collisions on host-ToR downlinks waste capacity other flows could have
used; PASE wins at every load, by up to 85% at the highest loads.  The
paper annotates each load with the percent improvement — reproduced here.
"""

from benchmarks.bench_common import emit, run_once, sweep
from repro.harness import (
    ScenarioSpec,
    format_series_table,
    improvement_row,
    series_from_results,
)

LOADS = (0.1, 0.3, 0.5, 0.7, 0.8, 0.9)


def run_figure():
    results = sweep(
        ("pase", "pfabric"),
        ScenarioSpec("all-to-all", {"num_hosts": 20, "fanin": 16}),
        loads=LOADS,
        num_flows=320,
    )
    series = series_from_results(results, "afct", scale=1e3)
    table = format_series_table(
        "Figure 10c: AFCT (ms) — all-to-all incast intra-rack",
        LOADS, series, unit="ms")
    improvements = improvement_row(LOADS, results["pfabric"], results["pase"])
    table += "\nPASE improvement over pFabric (%): " + \
        "  ".join(f"{load*100:.0f}%:{imp:+.1f}" for load, imp in zip(LOADS, improvements))
    emit("fig10c_alltoall", table)
    return results, improvements


def test_fig10c_alltoall(benchmark):
    results, improvements = run_once(benchmark, run_figure)
    # PASE wins at medium-to-high loads where incast losses bite pFabric.
    by_load = dict(zip(LOADS, improvements))
    assert by_load[0.7] > 0
    assert by_load[0.9] > 0
    # Improvement grows toward high load.
    assert by_load[0.9] >= by_load[0.3]
    # pFabric pays with double-digit loss; PASE stays clean.
    assert results["pfabric"][0.9].loss_rate > 0.10
    assert results["pase"][0.9].loss_rate < 0.01
