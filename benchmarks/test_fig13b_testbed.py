"""Figure 13b — the (simulated) testbed: PASE vs DCTCP.

Paper §4.4: a single rack of 10 nodes (9 clients, 1 server), 1 Gbps links,
250 us RTT, 100-packet queues, K = 20, 8 priority queues, flows
U[100 KB, 500 KB], one long background flow.  PASE achieves ~50-60% lower
AFCT than DCTCP across loads.  We replace the Linux hosts with the
simulator (see DESIGN.md), keeping every testbed parameter.
"""

from benchmarks.bench_common import emit, run_once, sweep
from repro.harness import ScenarioSpec, format_series_table

LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)


def run_figure():
    # The testbed scenario carries the switch's 100-packet queues, K = 20.
    results = sweep(("pase", "dctcp"), ScenarioSpec("testbed"), LOADS,
                    num_flows=200)
    series = {name: {load: r.afct * 1e3 for load, r in by_load.items()}
              for name, by_load in results.items()}
    emit("fig13b_testbed", format_series_table(
        "Figure 13b: AFCT (ms) — simulated testbed (9 clients -> 1 server)",
        LOADS, series, unit="ms"))
    return series


def test_fig13b_testbed(benchmark):
    series = run_once(benchmark, run_figure)
    # PASE clearly below DCTCP at every load (paper: 50-60% lower).
    for load in LOADS:
        assert series["pase"][load] < series["dctcp"][load]
    mid_improvement = 1 - series["pase"][0.5] / series["dctcp"][0.5]
    assert mid_improvement > 0.3
