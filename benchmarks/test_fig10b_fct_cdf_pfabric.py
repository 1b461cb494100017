"""Figure 10b — CDF of FCTs at 70% load: PASE vs pFabric (left-right).

Paper: at 70% load the two distributions are close in the body; pFabric's
advantage shows for the shortest flows while its loss-affected tail is
longer.
"""

from benchmarks.bench_common import emit, run_once, sweep
from repro.harness import ScenarioSpec, format_cdf

LOAD = 0.7


def run_figure():
    results = {protocol: by_load[LOAD] for protocol, by_load in sweep(
        ("pase", "pfabric"), ScenarioSpec("left-right"), (LOAD,), num_flows=250).items()}
    cdfs = {name: r.stats.fct_cdf() for name, r in results.items()}
    emit("fig10b_fct_cdf_pfabric", format_cdf(
        "Figure 10b: FCT CDF at 70% load — PASE vs pFabric", cdfs))
    return results


def test_fig10b_fct_cdf_pfabric(benchmark):
    results = run_once(benchmark, run_figure)
    pase, pfab = results["pase"].stats, results["pfabric"].stats
    # Bodies comparable: median within 3x of each other.
    assert pase.median_fct < 3 * pfab.median_fct
    # All flows completed under both.
    assert pase.completion_fraction == 1.0
    assert pfab.completion_fraction == 1.0
