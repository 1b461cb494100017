"""Figure 9c — application throughput vs load: PASE vs D2TCP vs DCTCP.

Paper: the intra-rack deadline scenario (20 machines, flows
U[100 KB, 500 KB], deadlines U[5 ms, 25 ms]); PASE (arbitrating EDF) meets
clearly more deadlines than D2TCP and DCTCP, especially at high load where
every D2TCP/DCTCP flow keeps sending at least one packet per RTT.
"""

from benchmarks.bench_common import PAPER_LOADS, emit, run_once, sweep
from repro.harness import ScenarioSpec, format_series_table, series_from_results


def run_figure():
    results = sweep(
        ("pase", "d2tcp", "dctcp"),
        ScenarioSpec("intra-rack-deadlines", {"num_hosts": 20}),
        loads=PAPER_LOADS,
        num_flows=200,
    )
    series = series_from_results(results, "application_throughput")
    emit("fig09c_deadline_throughput", format_series_table(
        "Figure 9c: application throughput (deadlines met) — intra-rack",
        PAPER_LOADS, series, precision=3))
    return series


def test_fig09c_deadline_throughput(benchmark):
    series = run_once(benchmark, run_figure)
    for load in PAPER_LOADS:
        assert series["pase"][load] >= series["d2tcp"][load] - 0.02
        assert series["pase"][load] >= series["dctcp"][load] - 0.02
    # The gap opens at high load (the paper's headline for this figure).
    assert series["pase"][0.9] > series["dctcp"][0.9]
