"""Figure 9b — CDF of FCTs at 70% load (left-right inter-rack).

Paper: at 70% load PASE's FCT distribution dominates L2DCT's and DCTCP's
almost everywhere (their CDFs sit to the right of PASE's).
"""

from benchmarks.bench_common import emit, run_once, sweep
from repro.harness import ScenarioSpec, format_cdf

LOAD = 0.7


def run_figure():
    results = {protocol: by_load[LOAD] for protocol, by_load in sweep(
        ("pase", "l2dct", "dctcp"), ScenarioSpec("left-right"), (LOAD,),
        num_flows=250).items()}
    cdfs = {name: r.stats.fct_cdf() for name, r in results.items()}
    emit("fig09b_fct_cdf", format_cdf(
        "Figure 9b: FCT CDF at 70% load — left-right inter-rack", cdfs))
    return results


def test_fig09b_fct_cdf(benchmark):
    results = run_once(benchmark, run_figure)
    pase = results["pase"].stats
    for baseline in ("l2dct", "dctcp"):
        other = results[baseline].stats
        # Distributional dominance at the median and the tail.
        assert pase.median_fct < other.median_fct
        assert pase.fct_percentile(90) < other.fct_percentile(90)
