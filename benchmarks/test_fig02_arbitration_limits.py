"""Figure 2 — limits of arbitration in isolation (PDQ vs DCTCP).

Paper: AFCT vs load for PDQ and DCTCP on the intra-rack scenario.  PDQ's
explicit rates win clearly at low load (fast convergence), but its flow
switching overhead (pause/unpause handshakes, suppressed probing of paused
flows) erodes and finally inverts the advantage at high load.

The instability at 90% load needs a long enough run to manifest — the
paused-flow backlog builds over hundreds of flows — hence the larger flow
budget here.
"""

from benchmarks.bench_common import emit, run_once, sweep
from repro.harness import ScenarioSpec, format_series_table, series_from_results

LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)


def run_figure():
    results = sweep(
        ("pdq", "dctcp"),
        ScenarioSpec("intra-rack", {"num_hosts": 20}),
        loads=LOADS,
        num_flows=450,
    )
    series = series_from_results(results, "afct", scale=1e3)
    emit("fig02_pdq_vs_dctcp", format_series_table(
        "Figure 2: AFCT (ms) — PDQ vs DCTCP, intra-rack",
        LOADS, series, unit="ms"))
    return series


def test_fig02_arbitration_limits(benchmark):
    series = run_once(benchmark, run_figure)
    # Low load: PDQ's fast convergence wins decisively.
    assert series["pdq"][0.1] < 0.7 * series["dctcp"][0.1]
    # High load: flow-switching overhead flips the ordering.
    assert series["pdq"][0.9] > series["dctcp"][0.9]
