"""Figure 13a — the value of the reference rate (PASE vs PASE-DCTCP).

Paper: intra-rack, 20 nodes, flows U[100 KB, 500 KB].  PASE-DCTCP keeps the
arbitrated queue assignment but ignores Rref (all flows run DCTCP laws);
seeding the window from the reference rate halves AFCT in the paper.
"""

from benchmarks.bench_common import emit, run_once, sweep
from repro.harness import ScenarioSpec, format_series_table, series_from_results

LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)


def scenario():
    return ScenarioSpec("intra-rack", {"num_hosts": 20})


def run_figure():
    results = sweep(("pase", "pase-dctcp"), scenario(), loads=LOADS,
                    num_flows=250)
    series = series_from_results(results, "afct", scale=1e3)
    emit("fig13a_reference_rate", format_series_table(
        "Figure 13a: AFCT (ms) — PASE vs PASE-DCTCP (no reference rate)",
        LOADS, series, unit="ms"))
    return series


def test_fig13a_reference_rate(benchmark):
    series = run_once(benchmark, run_figure)
    # The reference rate helps at every load...
    for load in LOADS:
        assert series["pase"][load] < series["pase-dctcp"][load]
    # ...and clearly so in aggregate (paper: ~50%; we require >= 10%).
    mean_on = sum(series["pase"].values()) / len(LOADS)
    mean_off = sum(series["pase-dctcp"].values()) / len(LOADS)
    assert mean_on < 0.9 * mean_off
