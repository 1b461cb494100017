"""Figure 1 — limits of self-adjusting endpoints in isolation.

Paper: application throughput (fraction of deadlines met) vs offered load
for DCTCP, D2TCP, and pFabric on the intra-rack deadline workload
(flows U[100 KB, 500 KB], deadlines U[5 ms, 25 ms], two background flows).

Expected shape: D2TCP tracks DCTCP closely and both degrade steeply with
load, while pFabric sustains clearly higher deadline throughput at high
load — the motivation for in-network prioritization.
"""

from benchmarks.bench_common import PAPER_LOADS, emit, run_once, sweep
from repro.harness import ScenarioSpec, format_series_table, series_from_results

PROTOCOLS = ("pfabric", "d2tcp", "dctcp")


def run_figure():
    results = sweep(
        PROTOCOLS,
        ScenarioSpec("intra-rack-deadlines", {"num_hosts": 20}),
        loads=PAPER_LOADS,
        num_flows=200,
    )
    series = series_from_results(results, "application_throughput")
    emit("fig01_app_throughput", format_series_table(
        "Figure 1: application throughput (fraction of deadlines met)",
        PAPER_LOADS, series, precision=3))
    return series


def test_fig01_selfadjusting_limits(benchmark):
    series = run_once(benchmark, run_figure)
    # Self-adjusting endpoints degrade with load...
    assert series["dctcp"][0.9] < series["dctcp"][0.1]
    # ...and D2TCP's deadline-awareness cannot keep it near pFabric when
    # loads are high (the paper's central motivating observation).
    assert series["pfabric"][0.9] >= series["d2tcp"][0.9]
    # At low load everyone is fine.
    assert all(series[p][0.1] > 0.8 for p in PROTOCOLS)
